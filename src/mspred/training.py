"""Adam training loop, checkpoint serialization, and metric logging.

Training is a pure function of (config, dataset, seed): initialization,
minibatch order, and every update are derived from seeded streams, and
gradient accumulation order is fixed by the tape. Re-running with the
same inputs reproduces the final parameters bit for bit. The only
non-deterministic field anywhere is the wallclock column of the metric
records, which is measurement, not state.
"""

from __future__ import annotations

import io
import json
import os
import time
from dataclasses import asdict, dataclass

import numpy as np

from . import autodiff as ad
from . import model as mm
from .datagen import SequenceBatch, mix64
from .errors import (ContractError, FormatError, NumericError, SingularityError,
                     TrainingAbort, ValidationError)

CHECKPOINT_MAGIC = b"MSPCKP01"


@dataclass
class MetricsRecord:
    """One row of the training log.

    ``loss_eval`` is the held-out prediction error (None without a
    holdout); ``ortho_defect`` is ||I - M M^T||_F^2 of the minibatch-mean
    transition; ``wall_ms`` is wallclock since training started.
    """

    iter: int
    loss: float
    loss_eval: float | None
    ortho_defect: float | None
    wall_ms: float

    def to_json(self) -> str:
        payload = {"iter": self.iter, "loss": self.loss, "loss_eval": self.loss_eval,
                   "ortho_defect": self.ortho_defect, "wall_ms": self.wall_ms}
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))


class AdamState:
    """Adam moments for a named parameter set."""

    def __init__(self, names, shapes, lr, beta1=0.9, beta2=0.999, eps=1e-8):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.step_count = 0
        self.m = {n: np.zeros(s) for n, s in zip(names, shapes)}
        self.v = {n: np.zeros(s) for n, s in zip(names, shapes)}


def adam_step(state: AdamState, params: dict[str, np.ndarray],
              grads: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """One Adam update, in place on ``params``.

    m <- b1 m + (1-b1) g;  v <- b2 v + (1-b2) g^2;
    theta <- theta - lr * mhat / (sqrt(vhat) + eps).

    Raises:
        NumericError: a non-finite gradient, naming the step index.
    """
    state.step_count += 1
    t = state.step_count
    bc1 = 1.0 - state.beta1**t
    bc2 = 1.0 - state.beta2**t
    for name, g in grads.items():
        if not np.all(np.isfinite(g)):
            raise NumericError(f"non-finite gradient for {name} at step {t}")
        if g.shape != params[name].shape:
            raise ContractError(f"gradient shape mismatch for {name}")
        m = state.m[name]
        v = state.v[name]
        m *= state.beta1
        m += (1.0 - state.beta1) * g
        v *= state.beta2
        v += (1.0 - state.beta2) * (g * g)
        params[name] -= state.lr * (m / bc1) / (np.sqrt(v / bc2) + state.eps)
    return params


def lr_at(cfg: mm.TrainConfig, iteration: int) -> float:
    """Step schedule: ``lr`` before ``decay_at``, ``lr_final`` after."""
    return cfg.lr if iteration < cfg.decay_at else cfg.lr_final


def _ortho_defect_of_batch(params, obs, cfg):
    """Minibatch mean of the per-sequence defect ||I - M M^T||_F^2.

    M is the variant's own transition (``cfg.transition``); for
    second-order runs it is the final velocity operator. Averaging the
    defects, not the operators, is what trends toward zero as transitions
    become rotations; the mean operator of distinct rotations is
    contractive and its defect has a velocity-distribution-dependent floor.
    """
    mats = mm.batch_transitions_np(params, obs, cfg.T_c, order=cfg.order,
                                   transition=cfg.transition)
    eye = np.eye(mats.shape[1])
    defects = ((eye[None] - np.einsum("nij,nkj->nik", mats, mats)) ** 2).sum(axis=(1, 2))
    return float(defects.mean())


def _holdout_lp(params, obs, cfg):
    errs = mm.horizon_errors_np(params, obs, cfg.T_c, cfg.T_p, order=cfg.order,
                                transition=cfg.transition)
    return float(errs.mean())


def train(cfg: mm.TrainConfig, dataset: SequenceBatch):
    """Run the configured variant on a dataset.

    Returns (final ModelParams, list of MetricsRecord). Minibatches are
    drawn by an epoch-wise seeded permutation; the learning rate drops
    from ``lr`` to ``lr_final`` at ``decay_at`` iterations.

    Raises:
        TrainingAbort: on a non-finite loss or gradient, or a rank
            collapse (``SingularityError``) in the transition solve of a
            step or of its logged held-out and orthogonality fits;
            carries the last good parameters and the metrics so far.
    """
    cfg = cfg.resolved()
    cfg.validate()
    obs = dataset.observations
    needed = cfg.T_c + cfg.T_p if cfg.variant != "rec_model" else max(cfg.T_c, 3)
    if obs.shape[1] < needed:
        raise ValidationError(
            f"dataset sequences of length {obs.shape[1]} cannot supply {needed} frames",
            field="T",
        )
    if cfg.holdout >= obs.shape[0]:
        raise ValidationError("holdout leaves no training sequences", field="holdout")
    eval_obs = obs[obs.shape[0] - cfg.holdout :] if cfg.holdout > 0 else None
    train_obs = obs[: obs.shape[0] - cfg.holdout] if cfg.holdout > 0 else obs

    params = mm.ModelParams.initialize(cfg, obs_dim=obs.shape[2])
    tensors = params.named_tensors()
    adam = AdamState(list(tensors), [t.shape for t in tensors.values()],
                     lr=cfg.lr, beta1=cfg.beta1, beta2=cfg.beta2, eps=cfg.eps)
    perm_rng = np.random.default_rng(mix64(cfg.seed, 29))
    metrics: list[MetricsRecord] = []
    n_train = train_obs.shape[0]
    order = np.empty(0, dtype=np.int64)
    cursor = 0
    started = time.perf_counter()
    last_good = params.copy()

    for it in range(cfg.iterations):
        if cursor + cfg.batch_size > order.shape[0]:
            order = perm_rng.permutation(n_train)
            cursor = 0
        idx = order[cursor : cursor + cfg.batch_size]
        cursor += cfg.batch_size
        batch = train_obs[idx]
        adam.lr = lr_at(cfg, it)
        try:
            tape = ad.Tape()
            bound = mm.TapeModel(tape, params)
            loss = mm.variant_loss(bound, batch, cfg)
            loss_val = float(loss.value[0, 0])
            tape.backward(loss)
            adam_step(adam, params.named_tensors(), bound.gradients())
            last_good = params.copy()
            is_log = (it + 1) % cfg.log_interval == 0
            is_final = (it + 1) == cfg.iterations and cfg.iterations % cfg.log_interval != 0
            if is_log or is_final:
                metrics.append(MetricsRecord(
                    iter=it + 1,
                    loss=loss_val,
                    loss_eval=(_holdout_lp(params, eval_obs, cfg)
                               if eval_obs is not None else None),
                    ortho_defect=_ortho_defect_of_batch(params, batch, cfg),
                    wall_ms=(time.perf_counter() - started) * 1000.0,
                ))
        except (NumericError, SingularityError) as exc:
            raise TrainingAbort(str(exc), iteration=it, params=last_good,
                                metrics=metrics) from exc
    return params, metrics


# ---------------------------------------------------------------------------
# checkpoint format: magic, u32-LE header length, JSON manifest, payloads


def _config_to_dict(cfg: mm.TrainConfig) -> dict:
    d = asdict(cfg)
    for key in ("enc_hidden", "dec_hidden", "mstar_hidden"):
        d[key] = list(d[key])
    return d


def config_from_dict(d: dict) -> mm.TrainConfig:
    kwargs = dict(d)
    for key in ("enc_hidden", "dec_hidden", "mstar_hidden"):
        if key in kwargs and kwargs[key] is not None:
            kwargs[key] = tuple(int(x) for x in kwargs[key])
    return mm.TrainConfig(**kwargs)


def save_checkpoint(params: mm.ModelParams, path, config: mm.TrainConfig | None = None) -> None:
    """Write the MSPCKP01 container; round-trips bit-exactly."""
    tensors = params.named_tensors()
    entries = []
    offset = 0
    for name, arr in tensors.items():
        entries.append([name, list(arr.shape), offset])
        offset += arr.size * 8
    manifest = {
        "config": _config_to_dict(config) if config is not None else None,
        "model": {"a": params.a, "m": params.m, "obs_dim": params.obs_dim,
                  "T_c": params.T_c,
                  "layers": {"enc": len(params.enc), "dec": len(params.dec),
                             "mstar": len(params.mstar) if params.mstar else 0}},
        "tensors": entries,
    }
    blob = json.dumps(manifest, sort_keys=True, separators=(",", ":")).encode("utf-8")
    buf = io.BytesIO()
    buf.write(CHECKPOINT_MAGIC)
    buf.write(len(blob).to_bytes(4, "little"))
    buf.write(blob)
    for name, arr in tensors.items():
        buf.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())
    tmp = f"{path}.tmp"
    with open(tmp, "wb") as fh:
        fh.write(buf.getvalue())
    os.replace(tmp, path)


def load_checkpoint(path) -> tuple[mm.ModelParams, mm.TrainConfig | None]:
    """Read an MSPCKP01 file; malformed input raises FormatError."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < len(CHECKPOINT_MAGIC) + 4:
        raise FormatError("checkpoint truncated before header")
    if raw[: len(CHECKPOINT_MAGIC)] != CHECKPOINT_MAGIC:
        raise FormatError(f"bad checkpoint magic {raw[:8]!r}")
    off = len(CHECKPOINT_MAGIC)
    hlen = int.from_bytes(raw[off : off + 4], "little")
    off += 4
    if off + hlen > len(raw):
        raise FormatError("checkpoint header extends past end of file")
    try:
        manifest = json.loads(raw[off : off + hlen].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FormatError(f"checkpoint header is not valid JSON: {exc}") from exc
    base = off + hlen
    try:
        meta = manifest["model"]
        entries = manifest["tensors"]
        layer_counts = meta["layers"]
    except (KeyError, TypeError) as exc:
        raise FormatError(f"checkpoint manifest missing field: {exc}") from exc
    tensors = {}
    for entry in entries:
        try:
            name, shape, offset = entry[0], tuple(int(s) for s in entry[1]), int(entry[2])
        except (IndexError, TypeError, ValueError) as exc:
            raise FormatError(f"malformed tensor entry {entry!r}") from exc
        nbytes = int(np.prod(shape)) * 8
        lo = base + offset
        if lo + nbytes > len(raw):
            raise FormatError(f"checkpoint payload for tensor {name!r} truncated")
        tensors[name] = np.frombuffer(raw[lo : lo + nbytes], dtype="<f8").reshape(shape).copy()
    payload_len = sum(int(np.prod(e[1])) * 8 for e in entries)
    if base + payload_len != len(raw):
        raise FormatError("checkpoint payload size disagrees with manifest")

    def collect(group, count):
        layers = []
        for i in range(count):
            try:
                w = tensors[f"{group}{i}.w"]
                b = tensors[f"{group}{i}.b"]
            except KeyError as exc:
                raise FormatError(f"checkpoint missing tensor {exc}") from exc
            if b.shape != (1, w.shape[1]):
                raise FormatError(f"bias shape mismatch for {group}{i}")
            layers.append((w, b))
        return layers

    try:
        enc = collect("enc", layer_counts["enc"])
        dec = collect("dec", layer_counts["dec"])
        mstar = collect("mstar", layer_counts["mstar"]) if layer_counts["mstar"] else None
        params = mm.ModelParams(a=int(meta["a"]), m=int(meta["m"]),
                                obs_dim=int(meta["obs_dim"]), T_c=int(meta["T_c"]),
                                enc=enc, dec=dec, mstar=mstar)
        cfg = config_from_dict(manifest["config"]) if manifest.get("config") else None
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"checkpoint manifest is malformed: {exc!r}") from exc
    return params, cfg


def write_metrics(records: list[MetricsRecord], path) -> None:
    """JSON Lines, one record per log interval, keys fixed by contract."""
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(rec.to_json())
            fh.write("\n")
    os.replace(tmp, path)


def read_metrics(path) -> list[dict]:
    out = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                out.append(json.loads(line))
    return out
