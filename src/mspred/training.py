"""Adam training loop, checkpoint serialization, and metric logging.

Training is a pure function of (config, dataset, seed): initialization,
minibatch order, and every update are derived from seeded streams, and
gradient accumulation order is fixed by the tape. Re-running with the
same inputs reproduces the final parameters bit for bit. The only
non-deterministic field anywhere is the wallclock column of the metric
records, which is measurement, not state.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass

import numpy as np

from . import analysis
from . import autodiff as ad
from . import container
from . import model as mm
from .datagen import DatasetHeader, SequenceBatch, mix64
from .errors import (ContractError, DictForm, FormatError, NumericError, SingularityError,
                     TrainingAbort, ValidationError, require_int)

CHECKPOINT_MAGIC = b"MSPCKP01"


@dataclass
class MetricsRecord(DictForm):
    """One row of the training log.

    ``loss`` and ``ortho_defect`` describe the same forward pass: the
    step's objective on its minibatch, with the parameters before the
    step's update. ``ortho_defect`` is the minibatch mean of the
    per-sequence defect ||I - M M^T||_F^2 of the transitions that
    objective fitted (see ``_ortho_defect_of_batch``). ``loss_eval`` is the
    held-out prediction error, read after the update (None without a
    holdout); ``wall_ms`` is wallclock since training started.
    """

    iter: int
    loss: float
    loss_eval: float | None
    ortho_defect: float | None
    wall_ms: float

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))


class AdamState:
    """Adam moments for a named parameter set.

    The first and second moments ``m`` and ``v`` are flat float64 vectors
    laid out in ``names`` order. Two preallocated scratch vectors and a
    finiteness mask hold each step's temporaries, so a step allocates no
    arrays of the parameters' size.
    """

    def __init__(self, names, shapes, lr, beta1=0.9, beta2=0.999, eps=1e-8):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.step_count = 0
        self.shapes = {n: tuple(s) for n, s in zip(names, shapes)}
        total = sum(math.prod(s) for s in self.shapes.values())
        self.m, self.v, self._grad, self._step = (np.zeros(total) for _ in range(4))
        self._finite = np.empty(total, dtype=bool)
        self._grads, self._steps = (
            dict(zip(self.shapes, mm.flat_views(x, self.shapes.values())))
            for x in (self._grad, self._step))


def adam_step(state: AdamState, params: dict[str, np.ndarray],
              grads: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """One Adam update, in place on ``params``; all or nothing.

    m <- b1 m + (1-b1) g;  v <- b2 v + (1-b2) g^2;
    theta <- theta - lr * mhat / (sqrt(vhat) + eps).

    The gradients are gathered into one flat vector and every moment
    update runs once on the whole vector, in the per-element operation
    order of the formula above, so each parameter gets the same bits as a
    tensor-by-tensor update. Every gradient is checked before any
    parameter, moment or the step count changes, so a rejected update
    leaves ``state`` and ``params`` as they were.

    Raises:
        NumericError: a non-finite gradient, naming the step index.
        ContractError: gradient or parameter names that differ from the
            state's, or a gradient or parameter whose shape differs from
            the state's.
    """
    t = state.step_count + 1
    if grads.keys() != state.shapes.keys() or params.keys() != state.shapes.keys():
        raise ContractError(f"Adam state holds {sorted(state.shapes)}, got gradients "
                            f"{sorted(grads)} for parameters {sorted(params)}")
    for name, shape in state.shapes.items():
        g = grads[name]
        if g.shape != shape or params[name].shape != shape:
            raise ContractError(f"shape mismatch for {name}: gradient {g.shape}, "
                                f"parameter {params[name].shape}, state {shape}")
        state._grads[name][...] = g
    g, s = state._grad, state._step
    if not np.isfinite(g, out=state._finite).all():
        bad = next(name for name, x in state._grads.items() if not np.isfinite(x).all())
        raise NumericError(f"non-finite gradient for {bad} at step {t}")
    state.step_count = t
    bc1 = 1.0 - state.beta1**t
    bc2 = 1.0 - state.beta2**t
    m, v = state.m, state.v
    m *= state.beta1
    m += np.multiply(g, 1.0 - state.beta1, out=s)
    v *= state.beta2
    np.square(g, out=s)
    v += np.multiply(s, 1.0 - state.beta2, out=s)
    if bc1 == 1.0:  # from t = 356 at beta1 = 0.9 (t = 1 at 0): m / 1.0 is m
        np.multiply(m, state.lr, out=s)
    else:
        np.divide(m, bc1, out=s)
        s *= state.lr
    np.divide(v, bc2, out=g)
    np.sqrt(g, out=g)
    g += state.eps
    s /= g
    for name, step in state._steps.items():
        params[name] -= step
    return params


def lr_at(cfg: mm.TrainConfig, iteration: int) -> float:
    """Step schedule: ``lr`` before ``decay_at``, ``lr_final`` after."""
    return cfg.lr if iteration < cfg.decay_at else cfg.lr_final


def _ortho_defect_of_batch(est: mm.TransitionEstimate) -> float:
    """Minibatch mean of the per-sequence defect ||I - M M^T||_F^2.

    M is the transition the step's objective fitted (``est``, recorded by
    ``variant_loss``); for second-order runs it is the final velocity
    operator (``TransitionEstimate.transitions``). Averaging the defects,
    not the operators, is what trends toward zero as transitions become
    rotations; the mean operator of distinct rotations is contractive and
    its defect has a velocity-distribution-dependent floor.
    """
    return float(analysis.orthogonality_defect(est.transitions.value).mean())


def _holdout_lp(params, obs, cfg):
    errs = mm.horizon_errors_np(params, obs, cfg.T_c, cfg.T_p, order=cfg.order,
                                transition=cfg.transition)
    return float(errs.mean())


def train(cfg: mm.TrainConfig, dataset: SequenceBatch):
    """Run the configured variant on a dataset.

    Returns (final ModelParams, list of MetricsRecord); the parameters'
    ``trained_on`` is the dataset's header. Minibatches are
    drawn by an epoch-wise seeded permutation; the learning rate drops
    from ``lr`` to ``lr_final`` at ``decay_at`` iterations.

    Raises:
        ValidationError: before step 0, for an invalid config, or for
            sequences too short for the frames it reads (field "T").
        TrainingAbort: on a non-finite loss or gradient, or a rank
            collapse (``SingularityError``) in the transition solve of a
            step or of its logged held-out fit;
            carries the parameters as they stood at the failure (never
            half updated: ``adam_step`` is all or nothing) and the
            metrics so far.
    """
    cfg = cfg.resolved()
    cfg.validate()
    obs = dataset.observations
    # rec_model trains on max(T_c, 3) frames; a held-out curve predicts T_p
    # frames after T_c, as every other objective does
    needed = (max(cfg.T_c, 3) if cfg.variant == "rec_model" and cfg.holdout == 0
              else cfg.T_c + cfg.T_p)
    if obs.shape[1] < needed:
        raise ValidationError(
            f"dataset sequences of length {obs.shape[1]} cannot supply {needed} frames",
            field="T",
        )
    if cfg.holdout >= obs.shape[0]:
        raise ValidationError("holdout leaves no training sequences", field="holdout")
    eval_obs = obs[obs.shape[0] - cfg.holdout :] if cfg.holdout > 0 else None
    train_obs = obs[: obs.shape[0] - cfg.holdout] if cfg.holdout > 0 else obs
    n_train = train_obs.shape[0]
    if cfg.batch_size > n_train:
        raise ValidationError(f"batch_size {cfg.batch_size} exceeds the {n_train} "
                              "training sequences", field="batch_size")

    params = mm.ModelParams.initialize(cfg, obs_dim=obs.shape[2])
    params.trained_on = dataset.header
    tensors = params.named_tensors()
    adam = AdamState(list(tensors), [t.shape for t in tensors.values()],
                     lr=cfg.lr, beta1=cfg.beta1, beta2=cfg.beta2, eps=cfg.eps)
    perm_rng = np.random.default_rng(mix64(cfg.seed, 29))
    metrics: list[MetricsRecord] = []
    order = np.empty(0, dtype=np.int64)
    cursor = 0
    started = time.perf_counter()

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
            is_log = (it + 1) % cfg.log_interval == 0
            is_final = (it + 1) == cfg.iterations and cfg.iterations % cfg.log_interval != 0
            if is_log or is_final:
                metrics.append(MetricsRecord(
                    iter=it + 1,
                    loss=loss_val,
                    loss_eval=(_holdout_lp(params, eval_obs, cfg)
                               if eval_obs is not None else None),
                    ortho_defect=_ortho_defect_of_batch(bound.estimate),
                    wall_ms=(time.perf_counter() - started) * 1000.0,
                ))
        except (NumericError, SingularityError) as exc:
            raise TrainingAbort(str(exc), iteration=it, params=params.copy(),
                                metrics=metrics) from exc
    return params, metrics


# ---------------------------------------------------------------------------
# checkpoint format: magic, u32-LE header length, JSON manifest, payloads


def save_checkpoint(params: mm.ModelParams, path, config: mm.TrainConfig | None = None) -> None:
    """Write the MSPCKP01 container (layout in ``container``); round-trips bit-exactly.

    The payload is ``params.flat`` as one array: its layout is the
    manifest's tensor list, back to back in ``named_tensors()`` order.
    ``params.trained_on``, when set, is recorded as the manifest's
    ``dataset`` entry; without it the manifest has no such key.
    """
    entries = []
    offset = 0
    for name, arr in params.named_tensors().items():
        entries.append([name, list(arr.shape), offset])
        offset += arr.size * 8
    manifest = {
        "config": config.to_dict() if config is not None else None,
        "model": {"a": params.a, "m": params.m, "obs_dim": params.obs_dim,
                  "T_c": params.T_c,
                  "layers": {"enc": len(params.enc), "dec": len(params.dec),
                             "mstar": len(params.mstar) if params.mstar else 0}},
        "tensors": entries,
    }
    if params.trained_on is not None:
        manifest["dataset"] = params.trained_on.to_dict()
    container.write(path, CHECKPOINT_MAGIC, manifest, [params.flat])


def _checkpoint_layout(manifest: dict) -> list:
    """Each tensor entry is [name, shape, offset]; the offsets pack them back to back."""
    layout, payload_len = [], 0
    for name, shape, offset in manifest["tensors"]:
        if int(offset) != payload_len:
            raise FormatError(f"tensor {name!r} at offset {offset}, expected {payload_len}")
        layout.append((name, shape))
        payload_len += math.prod(int(s) for s in shape) * 8
    return layout


def load_checkpoint(path) -> tuple[mm.ModelParams, mm.TrainConfig | None]:
    """Read an MSPCKP01 file; every tensor must belong to a layer whose widths chain,
    and a stored config must parse as ``TrainConfig.from_dict`` and fit the model.
    A recorded dataset header becomes the parameters' ``trained_on``; it
    must parse as a dataset file's header does."""
    manifest, tensors = container.read(path, CHECKPOINT_MAGIC, "checkpoint", _checkpoint_layout)
    used = set()

    def collect(group, count, d_in, d_out):
        # each layer's (in, out) weight must chain from d_in to d_out
        layers, width = [], d_in
        for i in range(count):
            try:
                w = tensors[f"{group}{i}.w"]
                b = tensors[f"{group}{i}.b"]
            except KeyError as exc:
                raise FormatError(f"checkpoint missing tensor {exc}") from exc
            if w.ndim != 2 or w.shape[0] != width:
                raise FormatError(f"{group}{i}.w shape {w.shape} does not take width {width}")
            if b.shape != (1, w.shape[1]):
                raise FormatError(f"bias shape mismatch for {group}{i}")
            layers.append((w, b))
            used.update((f"{group}{i}.w", f"{group}{i}.b"))
            width = w.shape[1]
        if width != d_out:
            raise FormatError(f"{group} ends at width {width}, the manifest implies {d_out}")
        return layers

    try:
        meta = manifest["model"]
        layer_counts = meta["layers"]
        a, m, obs_dim, t_c = (require_int(meta[key], f"model.{key}")
                              for key in ("a", "m", "obs_dim", "T_c"))
        enc = collect("enc", layer_counts["enc"], obs_dim, a * m)
        dec = collect("dec", layer_counts["dec"], a * m, obs_dim)
        mstar = (collect("mstar", layer_counts["mstar"], t_c * obs_dim, a * a)
                 if layer_counts["mstar"] else None)
        record = manifest.get("dataset")
        trained_on = (None if record is None
                      else DatasetHeader.parse(record, "checkpoint dataset record"))
        params = mm.ModelParams(a=a, m=m, obs_dim=obs_dim, T_c=t_c, enc=enc, dec=dec,
                                mstar=mstar, trained_on=trained_on)
        stored = manifest["config"]
    except ValidationError as exc:
        raise FormatError(f"checkpoint manifest {exc}") from exc
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"checkpoint manifest is malformed: {exc!r}") from exc
    if used != set(tensors):
        raise FormatError(f"checkpoint tensors {sorted(set(tensors) - used)} belong to no layer")
    return params, None if stored is None else _stored_config(stored, params)


def _stored_config(doc, params: mm.ModelParams) -> mm.TrainConfig:
    """The manifest's config as stored (unresolved, so it re-saves bit-exactly).

    Resolved, it must validate and agree with the model block on a, m and T_c.
    """
    try:
        cfg = mm.TrainConfig.from_dict(doc)
        resolved = cfg.resolved()
        resolved.validate()
    except ValidationError as exc:
        raise FormatError(f"checkpoint config field {exc.field}: {exc}") from exc
    for key in ("a", "m", "T_c"):
        if getattr(resolved, key) != getattr(params, key):
            raise FormatError(f"checkpoint config has {key} {getattr(resolved, key)}, "
                              f"its model {getattr(params, key)}")
    return cfg


def write_metrics(records: list[MetricsRecord], path) -> None:
    """JSON Lines, one record per log interval, keys fixed by contract."""
    container.atomic_write(path, "".join(rec.to_json() + "\n" for rec in records).encode("utf-8"))


def read_metrics(path) -> list[dict]:
    """The rows of a ``write_metrics`` file; FormatError names a line that is
    not JSON or not exactly the ``MetricsRecord`` fields, each of its type."""
    out = []
    with open(path, "rb") as fh:
        for number, line in enumerate(fh, start=1):
            if line.strip():
                try:
                    row = json.loads(line)  # a JSONDecodeError is a ValueError
                    MetricsRecord.from_dict(row)  # names a missing, unknown or mistyped key
                except (ValueError, ValidationError) as exc:
                    raise FormatError(f"{path} line {number}: {exc}") from exc
                out.append(row)
    return out
