"""Encoder/decoder model, closed-form latent transitions, and losses.

The training objective encodes the first ``T_c`` frames of a sequence,
solves a least-squares problem for the latent transition of *that*
sequence in closed form, rolls the transition forward, decodes, and
scores the prediction against the unseen frames. Because the transition
solve is one differentiable op (``autodiff.lstsq_right``, with a
closed-form backward), the whole pipeline trains end to end by plain
backpropagation.

Every latent is a batched (N, a, m) tape value, so one call of an
estimator and one rollout serve a whole batch, with each sequence
getting its own transition. Losses are averaged over sequences and
predicted frames (the summed variant only rescales the learning rate).
Every gradient-free number (held-out error by horizon, fitted
transitions, equivariance, swaps) comes from ``fit_np`` and
``predict_np`` at the bottom, which run the same estimator and rollout
functions on a scratch tape, so their numbers equal the training loss
bit for bit on identical inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import autodiff as ad
from .autodiff import Var
from .autodiff import cholesky_lower  # noqa: F401  re-exported: the benchmark tracer wraps it here
from .datagen import MixingMap, mix64
from .errors import ContractError, DimensionError, NumericError, SingularityError, ValidationError

VARIANTS = ("msp", "rec_model", "fixed_blocks", "neural_mstar")


# ---------------------------------------------------------------------------
# parameters


@dataclass
class TrainConfig:
    """Hyperparameters of one training run.

    ``T_c``/``T_p`` default to (2, 1) for first order and (5, 5) for
    second order. The learning rate drops from ``lr`` to ``lr_final`` at
    ``decay_at`` (default: 80% of the iteration budget).
    """

    a: int = 8
    m: int = 16
    enc_hidden: tuple[int, ...] = (128, 128)
    dec_hidden: tuple[int, ...] = (128, 128)
    mstar_hidden: tuple[int, ...] = (128, 128)
    lr: float = 3e-4
    lr_final: float = 1e-4
    decay_at: int | None = None
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    batch_size: int = 32
    iterations: int = 10_000
    seed: int = 0
    variant: str = "msp"
    order: int = 1
    T_c: int | None = None
    T_p: int | None = None
    invertibility_weight: float = 1.0
    holdout: int = 0
    log_interval: int = 100

    def resolved(self) -> "TrainConfig":
        """Materialize order-dependent defaults into concrete fields."""
        cfg = self
        if cfg.T_c is None:
            cfg = replace(cfg, T_c=2 if cfg.order == 1 else 5)
        if cfg.T_p is None:
            cfg = replace(cfg, T_p=1 if cfg.order == 1 else 5)
        if cfg.decay_at is None:
            cfg = replace(cfg, decay_at=int(0.8 * cfg.iterations))
        return cfg

    def validate(self) -> None:
        cfg = self.resolved()
        if cfg.variant not in VARIANTS:
            raise ValidationError(f"unknown variant {cfg.variant!r}", field="variant")
        if cfg.order not in (1, 2):
            raise ValidationError("order must be 1 or 2", field="order")
        if cfg.m <= cfg.a:
            raise ValidationError("multiplicity m must exceed a", field="m")
        if cfg.batch_size < 1:
            raise ValidationError("batch_size must be >= 1", field="batch_size")
        if cfg.iterations < 0:
            raise ValidationError("iterations must be >= 0", field="iterations")
        min_tc = 2 if cfg.order == 1 else 3
        if cfg.T_c < min_tc:
            raise ValidationError(f"T_c must be >= {min_tc} for order {cfg.order}",
                                  field="T_c")
        if cfg.T_p < 1 and cfg.variant != "rec_model":
            raise ValidationError("T_p must be >= 1", field="T_p")
        if cfg.variant == "fixed_blocks" and cfg.a % 2 != 0:
            raise ValidationError("fixed_blocks needs even a", field="a")
        if cfg.lr <= 0 or cfg.lr_final <= 0:
            raise ValidationError("learning rates must be positive", field="lr")

    @property
    def transition(self) -> str:
        """The transition estimator this variant trains and is scored with.

        It is the ``transition=`` of ``loss_pred`` and the forward fit;
        ``order`` applies to "lstsq" only.
        """
        return {"fixed_blocks": "blockwise", "neural_mstar": "neural"}.get(self.variant, "lstsq")


def _init_mlp(rng, sizes):
    layers = []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        bound = 1.0 / math.sqrt(fan_in)
        w = rng.uniform(-bound, bound, size=(fan_in, fan_out))
        b = np.zeros((1, fan_out))
        layers.append((w, b))
    return layers


def flat_views(flat: np.ndarray, shapes) -> list[np.ndarray]:
    """Consecutive views of the 1-D ``flat``, one per shape, back to back in order."""
    out, offset = [], 0
    for shape in shapes:
        size = math.prod(shape)
        out.append(flat[offset : offset + size].reshape(shape))
        offset += size
    return out


def _pack(groups):
    """Copy the (w, b) layers of ``groups`` into one new float64 vector, in
    order; return it and the same groups as tuples of views into it."""
    arrays = [x for layers in groups for layer in layers for x in layer]
    flat = np.concatenate([np.ravel(x) for x in arrays], dtype=np.float64)
    views = iter(flat_views(flat, [np.shape(x) for x in arrays]))
    return flat, [tuple((next(views), next(views)) for _ in layers) for layers in groups]


@dataclass
class ModelParams:
    """Encoder and decoder MLP weights plus the latent shape (a, m).

    Layers apply ``x @ W + b`` with tanh between hidden layers and a
    linear final layer. ``mstar`` is present only for the neural
    transition ablation.

    Every weight and bias lives in one contiguous float64 vector,
    ``flat``, laid out in ``named_tensors()`` order, which is also the
    checkpoint's tensor order. Construction copies the given layers into
    a new ``flat`` and turns ``enc``, ``dec`` and ``mstar`` into tuples of
    (w, b) views of it, so parameters change by writing in place
    (``apply_named``, Adam), never by rebinding a layer.
    """

    a: int
    m: int
    obs_dim: int
    T_c: int
    enc: tuple = field(repr=False)
    dec: tuple = field(repr=False)
    mstar: tuple | None = field(default=None, repr=False)
    flat: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.flat, (self.enc, self.dec, mstar) = _pack((self.enc, self.dec, self.mstar or ()))
        self.mstar = mstar or None

    @classmethod
    def initialize(cls, cfg: TrainConfig, obs_dim: int) -> "ModelParams":
        """Seeded init: weights uniform in +-1/sqrt(fan_in), biases zero.

        The neural transition head's output bias starts at vec(I) so that
        ablation begins from an identity transition.
        """
        cfg = cfg.resolved()
        cfg.validate()
        rng = np.random.default_rng(mix64(cfg.seed, 17))
        enc = _init_mlp(rng, (obs_dim, *cfg.enc_hidden, cfg.a * cfg.m))
        dec = _init_mlp(rng, (cfg.a * cfg.m, *cfg.dec_hidden, obs_dim))
        mstar = None
        if cfg.variant == "neural_mstar":
            mstar = _init_mlp(rng, (cfg.T_c * obs_dim, *cfg.mstar_hidden, cfg.a * cfg.a))
            w_out, _ = mstar[-1]
            mstar[-1] = (w_out, np.eye(cfg.a).reshape(1, -1))
        return cls(a=cfg.a, m=cfg.m, obs_dim=obs_dim, T_c=cfg.T_c,
                   enc=enc, dec=dec, mstar=mstar)

    def named_tensors(self) -> dict[str, np.ndarray]:
        """Ordered name -> view of every parameter, in ``flat`` order."""
        out = {}
        for group, layers in (("enc", self.enc), ("dec", self.dec),
                              ("mstar", self.mstar or ())):
            for i, (w, b) in enumerate(layers):
                out[f"{group}{i}.w"] = w
                out[f"{group}{i}.b"] = b
        return out

    def copy(self) -> "ModelParams":
        """The same parameters in a new ``flat`` of their own."""
        return replace(self)

    def apply_named(self, tensors: dict[str, np.ndarray]) -> None:
        """Copy a named_tensors()-style dict into the parameters, in place; all or nothing."""
        mine = self.named_tensors()
        if set(mine) != set(tensors):
            raise ContractError("parameter names do not match this model")
        for name, arr in tensors.items():
            if mine[name].shape != arr.shape:
                raise ContractError(f"shape mismatch for {name}")
        for name, arr in tensors.items():
            mine[name][...] = arr


class TapeModel:
    """Model parameters entered as leaves on one tape.

    Construct a fresh instance per loss evaluation; ``leaf_vars`` maps
    parameter names to their tape handles so the trainer can read
    gradients after backward(). One scan of ``params.flat`` checks every
    parameter is finite; each leaf is then a read-only view of it with
    no copy, so leaves alias the parameters until the next update writes
    them in place: read the tape's values and gradients before updating.

    Raises:
        NumericError: a parameter holds a non-finite entry.
    """

    def __init__(self, tape: ad.Tape, params: ModelParams):
        if not np.isfinite(params.flat).all():
            bad = next(name for name, x in params.named_tensors().items()
                       if not np.isfinite(x).all())
            raise NumericError(f"parameter {bad} holds a non-finite entry")
        self.tape = tape
        self.params = params
        self.a = params.a
        self.m = params.m
        self.leaf_vars: dict[str, Var] = {}
        self._enc = self._enter("enc", params.enc)
        self._dec = self._enter("dec", params.dec)
        self._mstar = self._enter("mstar", params.mstar) if params.mstar else None

    def _enter(self, group, layers):
        out = []
        for i, (w, b) in enumerate(layers):
            wv = self.tape.input_view(w)
            bv = self.tape.input_view(b)
            self.leaf_vars[f"{group}{i}.w"] = wv
            self.leaf_vars[f"{group}{i}.b"] = bv
            out.append((wv, bv))
        return out

    @staticmethod
    def _mlp(layers, x: Var) -> Var:
        h = x
        last = len(layers) - 1
        for i, (w, b) in enumerate(layers):
            h = ad.add_rowvec(ad.matmul(h, w), b)
            if i < last:
                h = ad.tanh(h)
        return h

    def encode_rows(self, x: Var) -> Var:
        """Encode observation rows (r, n) to latent rows (r, a*m)."""
        return self._mlp(self._enc, x)

    def decode_rows(self, h: Var) -> Var:
        """Decode latent rows (r, a*m) back to observation rows (r, n)."""
        return self._mlp(self._dec, h)

    def transition_rows(self, x: Var) -> Var:
        """Neural transition head: condition rows (r, T_c*n) -> (r, a*a)."""
        if self._mstar is None:
            raise ContractError("model has no neural transition head")
        return self._mlp(self._mstar, x)

    def gradients(self) -> dict[str, np.ndarray]:
        return {name: self.tape.grad(var) for name, var in self.leaf_vars.items()}


# ---------------------------------------------------------------------------
# transition estimation


@dataclass
class TransitionEstimate:
    """Result of the internal least-squares transition solve.

    ``m_star`` is the a x a transition (first order) or the acceleration
    operator (second order, with ``m_last`` the final velocity operator).
    ``residual`` is the fit error of the internal problem, from forward
    values only.
    """

    order: int
    m_star: Var
    m_last: Var | None
    residual: float


def estimate_transition(latents: list[Var]) -> TransitionEstimate:
    """Least-squares transition M minimizing sum ||M H_t - H_{t+1}||_F^2.

    ``latents`` are the encoded conditional frames, each (a, m) or a
    batch (N, a, m) with one transition per sequence; the optimum is
    H_plus1 pinv(H_plus0) over their horizontal concatenations, solved
    by one ``lstsq_right`` call. ``residual`` sums the fit error over
    the batch.

    Raises:
        SingularityError: the stacked conditioning latent is rank
            deficient (a collapsed encoder).
    """
    if len(latents) < 2:
        raise ContractError("estimate_transition needs at least two frames")
    a = latents[0].shape[-2]
    h0 = latents[0] if len(latents) == 2 else ad.hcat(latents[:-1])
    h1 = latents[1] if len(latents) == 2 else ad.hcat(latents[1:])
    if h0.shape[-1] < a:
        raise DimensionError(f"conditioning latents give {h0.shape[-1]} columns for {a} "
                             "rows; need (T_c - 1) * m >= a")
    m = ad.lstsq_right(h0, h1)
    residual = float(((m.value @ h0.value - h1.value) ** 2).sum())
    return TransitionEstimate(order=1, m_star=m, m_last=None, residual=residual)


def estimate_transition_blockwise(latents: list[Var], block: int = 2) -> TransitionEstimate:
    """Independent transition solve on each ``block``-row slice.

    The (N, a, m) latents are cut into (N * a/block, block, m) slices and
    solved by ``estimate_transition`` in one batch; slice s is sequence
    s // (a/block), block s % (a/block). The result is exactly a direct
    sum: off-block entries are zeros, not small numbers.
    """
    if len(latents) < 2:
        raise ContractError("estimate_transition_blockwise needs two frames")
    *batch, a, m = latents[0].shape
    if a % block != 0:
        raise ContractError(f"a={a} is not divisible by block={block}")
    n_blocks = a // block
    n_seq = batch[0] if batch else 1
    slices = [ad.reshape(lat, n_seq * n_blocks, block, m) for lat in latents]
    try:
        est = estimate_transition(slices)
    except SingularityError as exc:
        raise SingularityError(f"{block}-row block slices: {exc}", pivot=exc.pivot) from exc
    # every column band holds all blocks stacked; the mask keeps the diagonal ones
    bands = ad.hcat([ad.reshape(est.m_star, *batch, a, block)] * n_blocks)
    mask = np.kron(np.eye(n_blocks), np.ones((block, block)))
    m_star = ad.hadamard(bands, latents[0].tape.input(np.broadcast_to(mask, bands.shape)))
    return TransitionEstimate(order=1, m_star=m_star, m_last=None, residual=est.residual)


def estimate_second_order(latents: list[Var]) -> TransitionEstimate:
    """Two-stage solve: per-step velocity operators, then their transition.

    Step one forms velocity estimates 1M_t = H_t pinv(H_{t-1}) (each frame
    latent must be full row rank, hence m >= a); step two solves the same
    least-squares problem on the velocity sequence, yielding the constant
    acceleration operator. Returns that operator as ``m_star`` and the
    final velocity 1M_{T_c} as ``m_last``. Latents may be (N, a, m)
    batches, as in ``estimate_transition``. Each stage is one
    ``lstsq_right`` call: step one solves all N (T_c - 1) frame pairs as
    one batch, sequence-major.

    Raises:
        SingularityError: naming the failing frame index (and, for a
            batch, the sequence as ``matrix``).
    """
    if len(latents) < 3:
        raise ContractError("second order needs at least three frames (T_c >= 3)")
    *batch, a, m_cols = latents[0].shape
    if m_cols < a:
        raise DimensionError(f"second order needs m >= a, got latent {latents[0].shape}")
    n_seq = batch[0] if batch else 1
    pairs = len(latents) - 1

    def frame_pairs(frames):  # (N * pairs, a, m): pair t of sequence s at s * pairs + t
        return ad.reshape(ad.vcat(frames), n_seq * pairs, a, m_cols)

    try:
        vel = ad.lstsq_right(frame_pairs(latents[:-1]), frame_pairs(latents[1:]))
    except SingularityError as exc:
        seq, frame = divmod(exc.matrix, pairs)
        where = f"matrix {seq}: " if batch else ""
        reason = str(exc).removeprefix(f"matrix {exc.matrix}: ")
        raise SingularityError(f"frame {frame}: {where}{reason}", pivot=exc.pivot,
                               matrix=seq if batch else None) from exc
    # row band t of each sequence holds 1M_t^T, so a transposed row range
    # is the horizontal concatenation of consecutive velocity operators
    bands = ad.reshape(ad.transpose(vel), *batch, pairs * a, a)
    v0 = ad.transpose(ad.slice_rows(bands, 0, (pairs - 1) * a))
    v1 = ad.transpose(ad.slice_rows(bands, a, pairs * a))
    try:
        acc = ad.lstsq_right(v0, v1)
    except SingularityError as exc:
        raise SingularityError(f"velocity stage: {exc}", pivot=exc.pivot,
                               matrix=exc.matrix) from exc
    m_last = ad.transpose(ad.slice_rows(bands, (pairs - 1) * a, pairs * a))
    residual = float(((acc.value @ v0.value - v1.value) ** 2).sum())
    return TransitionEstimate(order=2, m_star=acc, m_last=m_last, residual=residual)


def estimate(latents: list[Var], *, order: int = 1, transition: str = "lstsq",
             head: Var | None = None) -> TransitionEstimate:
    """The estimator that ``transition`` names, on (N, a, m) latents.

    "lstsq" is ``estimate_transition`` (order 1) or
    ``estimate_second_order`` (order 2); "blockwise" is the direct sum of
    2x2 solves; "neural" takes the (N, a, a) transitions ``head`` that
    the model's transition head predicted.
    """
    if transition == "lstsq":
        return estimate_transition(latents) if order == 1 else estimate_second_order(latents)
    if transition == "blockwise":
        return estimate_transition_blockwise(latents)
    if transition == "neural":
        return TransitionEstimate(order=1, m_star=head, m_last=None, residual=float("nan"))
    raise ContractError(f"unknown transition kind {transition!r}")


def rollout(est: TransitionEstimate, h: Var, steps: int) -> list[Var]:
    """Latents M^1 h .. M^steps h by repeated multiplication."""
    if est.order != 1:
        raise ContractError("rollout expects a first-order estimate")
    if steps < 1:
        raise ContractError("steps must be >= 1")
    out = []
    cur = h
    for _ in range(steps):
        cur = ad.matmul(est.m_star, cur)
        out.append(cur)
    return out


def rollout_second_order(est: TransitionEstimate, h: Var, steps: int) -> list[Var]:
    """Second-order rollout: step j applies S_j = A S_{j-1} = A^j B to the
    previous latent, starting from S_0 = B, where A is the acceleration
    operator and B the last velocity operator; the j-th output is
    (A^j B)(A^{j-1} B)...(A B) h.
    """
    if est.order != 2:
        raise ContractError("rollout_second_order expects a second-order estimate")
    if steps < 1:
        raise ContractError("steps must be >= 1")
    step_op = est.m_last
    out = []
    cur = h
    for _ in range(steps):
        step_op = ad.matmul(est.m_star, step_op)
        cur = ad.matmul(step_op, cur)
        out.append(cur)
    return out


# ---------------------------------------------------------------------------
# losses


def _as_batch(obs) -> np.ndarray:
    obs = np.asarray(obs, dtype=np.float64)
    if obs.ndim == 2:
        obs = obs[None]
    if obs.ndim != 3:
        raise DimensionError(f"expected (N, T, n) observations, got {obs.shape}")
    return obs


def _frames(enc_rows: Var, n_seq: int, a: int, m: int) -> list[Var]:
    """Split (N * T_c, a*m) encoder rows into T_c batched (N, a, m) latents."""
    T_c = enc_rows.shape[0] // n_seq
    stacked = ad.reshape(enc_rows, n_seq, T_c * a, m)
    return [ad.slice_rows(stacked, t * a, (t + 1) * a) for t in range(T_c)]


def _rollout_rows(est: TransitionEstimate, start: Var, steps: int) -> Var:
    """Roll (N, a, m) latents forward; (N * steps, a*m) rows, sequence-major."""
    n_seq, a, m = start.shape
    roll = rollout if est.order == 1 else rollout_second_order
    preds = [ad.reshape(p, n_seq, 1, a * m) for p in roll(est, start, steps)]
    return ad.reshape(ad.hcat(preds), n_seq * steps, a * m)


def _encode_frames(tape_model, obs: np.ndarray, T_c: int) -> list[Var]:
    """Encode frames 1..T_c of every sequence in one pass, as ``_frames``."""
    n_seq, _, n_dim = obs.shape
    rows = tape_model.tape.input(obs[:, :T_c].reshape(n_seq * T_c, n_dim))
    return _frames(tape_model.encode_rows(rows), n_seq, tape_model.a, tape_model.m)


def _mean_frame_error(tape_model, rows: Var, targets: np.ndarray) -> Var:
    """Decode predicted latent rows; mean squared L2 error per target frame."""
    diff = ad.sub(tape_model.decode_rows(rows), tape_model.tape.input(targets))
    return ad.scale(ad.frobenius_sq(diff), 1.0 / targets.shape[0])


def loss_pred(tape_model: TapeModel, obs, T_c: int, T_p: int, *,
              order: int = 1, transition: str = "lstsq") -> Var:
    """Prediction loss: fit the transition on frames 1..T_c, score T_p more.

    ``transition`` selects the estimator (see ``estimate``): "lstsq"
    (closed form), "blockwise" (direct sum of 2x2 solves) or "neural"
    (the learned transition head). Every sequence of the batch is fitted
    and rolled out at once. Returns the mean over sequences and predicted
    frames of the squared L2 frame error.
    """
    obs = _as_batch(obs)
    n_seq, t_len, n_dim = obs.shape
    if t_len < T_c + T_p:
        raise DimensionError(f"sequences of length {t_len} cannot supply T_c+T_p={T_c + T_p}")
    lat = _encode_frames(tape_model, obs, T_c)
    head = None
    if transition == "neural":
        cond = tape_model.tape.input(obs[:, :T_c].reshape(n_seq, T_c * n_dim))
        a = tape_model.a
        head = ad.reshape(tape_model.transition_rows(cond), n_seq, a, a)
    est = estimate(lat, order=order, transition=transition, head=head)
    targets = obs[:, T_c : T_c + T_p].reshape(n_seq * T_p, n_dim)
    return _mean_frame_error(tape_model, _rollout_rows(est, lat[-1], T_p), targets)


def loss_rec(tape_model: TapeModel, obs, T_c: int) -> Var:
    """Reconstruction loss: fit on all T_c frames, re-predict frames 2..T_c.

    The transition is estimated from the full conditional sequence and
    then asked to reproduce the frames it was fitted on, starting from
    the first latent. No unseen frames are involved.
    """
    obs = _as_batch(obs)
    n_seq, t_len, n_dim = obs.shape
    if t_len < T_c:
        raise DimensionError(f"sequences of length {t_len} cannot supply T_c={T_c}")
    lat = _encode_frames(tape_model, obs, T_c)
    est = estimate_transition(lat)
    targets = obs[:, 1:T_c].reshape(n_seq * (T_c - 1), n_dim)
    return _mean_frame_error(tape_model, _rollout_rows(est, lat[0], T_c - 1), targets)


def invertibility_loss(tape_model: TapeModel, obs, T_c: int) -> Var:
    """Mean squared error of decode(encode(frame)) over the first T_c frames."""
    obs = _as_batch(obs)
    n_seq, _, n_dim = obs.shape
    frames = obs[:, :T_c].reshape(n_seq * T_c, n_dim)
    tape = tape_model.tape
    x = tape.input(frames)
    rec = tape_model.decode_rows(tape_model.encode_rows(x))
    diff = ad.sub(rec, x)
    return ad.scale(ad.frobenius_sq(diff), 1.0 / (n_seq * T_c))


def variant_loss(tape_model: TapeModel, obs, cfg: TrainConfig) -> Var:
    """The training objective for the configured variant."""
    cfg = cfg.resolved()
    if cfg.variant not in VARIANTS:
        raise ContractError(f"unknown variant {cfg.variant!r}")
    if cfg.variant == "rec_model":
        return loss_rec(tape_model, obs, max(cfg.T_c, 3))
    pred = loss_pred(tape_model, obs, cfg.T_c, cfg.T_p, order=cfg.order,
                     transition=cfg.transition)
    if cfg.variant != "neural_mstar" or cfg.invertibility_weight == 0.0:
        return pred
    inv = invertibility_loss(tape_model, obs, cfg.T_c)
    return ad.add(pred, ad.scale(inv, cfg.invertibility_weight))


# ---------------------------------------------------------------------------
# gradient-free forward path (evaluation)


def _mlp_np(layers, x):
    h = x
    last = len(layers) - 1
    for i, (w, b) in enumerate(layers):
        h = h @ w + b
        if i < last:
            h = np.tanh(h)
    return h


def encode_rows_np(model, rows: np.ndarray) -> np.ndarray:
    """Forward-only encode; accepts ModelParams or an oracle model."""
    if isinstance(model, ModelParams):
        return _mlp_np(model.enc, np.asarray(rows, dtype=np.float64))
    return model.encode_rows_np(rows)


def decode_rows_np(model, rows: np.ndarray) -> np.ndarray:
    """Forward-only decode; accepts ModelParams or an oracle model."""
    if isinstance(model, ModelParams):
        return _mlp_np(model.dec, np.asarray(rows, dtype=np.float64))
    return model.decode_rows_np(rows)


def transition_rows_np(params: ModelParams, rows: np.ndarray) -> np.ndarray:
    if params.mstar is None:
        raise ContractError("model has no neural transition head")
    return _mlp_np(params.mstar, np.asarray(rows, dtype=np.float64))


@dataclass
class TransitionFit:
    """Per-sequence operators fitted on the conditioning frames of a batch.

    ``op`` holds the (N, a, a) first-order transitions, or for a
    second-order fit the acceleration operators, with ``vel`` the last
    velocity operators. ``last`` holds the (N, a, m) last conditioning
    latents that a rollout starts from.
    """

    last: np.ndarray
    op: np.ndarray
    vel: np.ndarray | None = None


def fit_np(model, obs, T_c: int, *, order: int = 1,
           transition: str | None = None) -> TransitionFit:
    """Encode a batch once and fit every sequence's operators, gradient-free.

    ``transition`` and ``order`` select the estimator as in ``loss_pred``
    ("lstsq" of either order, "blockwise" or "neural"); None picks the
    model's neural head if it has one, else "lstsq". The encodings enter
    a scratch tape and run through ``estimate``, the estimator the
    training loss uses, so a fit on the same inputs reproduces
    ``loss_pred``'s operators bit for bit.
    """
    if transition is None:
        transition = "neural" if getattr(model, "mstar", None) is not None else "lstsq"
    obs = _as_batch(obs)
    n_seq, _, n_dim = obs.shape
    a, m = model.a, model.m
    cond = obs[:, :T_c]
    tape = ad.Tape()
    lat = _frames(tape.input(encode_rows_np(model, cond.reshape(n_seq * T_c, n_dim))),
                  n_seq, a, m)
    head = None
    if transition == "neural":
        rows = transition_rows_np(model, cond.reshape(n_seq, T_c * n_dim))
        head = tape.input(rows.reshape(n_seq, a, a))
    est = estimate(lat, order=order, transition=transition, head=head)
    return TransitionFit(last=lat[-1].value, op=est.m_star.value,
                         vel=None if est.m_last is None else est.m_last.value)


def predict_np(model, fit: TransitionFit, steps: int) -> np.ndarray:
    """Roll each fit forward ``steps`` times and decode in one batch.

    The rollout is ``rollout`` (or ``rollout_second_order`` when the fit
    has velocity operators) on a scratch tape; returns (N, steps, n).
    """
    n_seq, a, m = fit.last.shape
    # rows is allocated before the rollout's latents, which are freed before
    # the decode: otherwise their freed blocks fragment the heap, and peak RSS
    # grows by about the size of rows over repeated evaluations
    rows = np.empty((n_seq, steps, a * m))
    tape = ad.Tape()
    second = fit.vel is not None
    est = TransitionEstimate(order=2 if second else 1, m_star=tape.input(fit.op),
                             m_last=tape.input(fit.vel) if second else None,
                             residual=float("nan"))
    roll = rollout_second_order if second else rollout
    for j, pred in enumerate(roll(est, tape.input(fit.last), steps)):
        rows[:, j] = pred.value.reshape(n_seq, a * m)
    del tape, est, pred
    return decode_rows_np(model, rows.reshape(n_seq * steps, a * m)).reshape(n_seq, steps, -1)


def batch_transitions_np(model, obs, T_c: int, *, order: int = 1,
                         transition: str | None = None) -> np.ndarray:
    """Per-sequence transitions of a batch, (N, a, a).

    For a second-order fit these are the last velocity operators.
    """
    fit = fit_np(model, obs, T_c, order=order, transition=transition)
    return fit.op if fit.vel is None else fit.vel


def horizon_errors_np(model, obs, T_c: int, horizons: int, *,
                      order: int = 1, transition: str | None = None) -> np.ndarray:
    """Mean squared frame error at each prediction horizon 1..horizons.

    Fits the per-sequence transition on the first T_c frames, rolls the
    latent forward, decodes every predicted latent in one batch, and
    averages ||error||_2^2 over sequences per horizon.
    """
    obs = _as_batch(obs)
    if obs.shape[1] < T_c + horizons:
        raise DimensionError(f"need T >= {T_c + horizons}, got {obs.shape[1]}")
    fit = fit_np(model, obs, T_c, order=order, transition=transition)
    pred = predict_np(model, fit, horizons)
    return ((pred - obs[:, T_c : T_c + horizons]) ** 2).sum(axis=2).mean(axis=0)


# ---------------------------------------------------------------------------
# oracle model (known generator, exact equivariant lift)


class OracleModel:
    """Exact encoder/decoder built from the known generator.

    Encodes an observation by inverting the mixing map and lifting the
    recovered 2k latent into a (2k) x m matrix whose columns are plane
    rotations of the latent; every column transforms identically under
    the hidden torus action, so the latent transition is exactly the
    block rotation and every loss in this module vanishes on clean data.
    Evaluation-only: its tape methods inject constants, so nothing
    differentiates through it.
    """

    def __init__(self, spec, m: int | None = None):
        self.spec = spec
        self.mixing = MixingMap(spec)
        self.a = spec.latent_dim
        self.m = m if m is not None else self.a + 2
        k = spec.k
        if self.m < self.a:
            raise ContractError("oracle multiplicity must be >= 2k")
        # column-lift angles: column 0 is the identity (so decoding reads
        # it back directly); later columns advance at a factor-specific
        # frequency, which keeps the 2k cos/sin rows linearly independent
        cols = np.arange(self.m)
        freqs = math.pi * (np.arange(k) + 1.0) / (k + 1.0)
        self._phis = freqs[:, None] * cols[None, :]
        basis = np.vstack([np.cos(self._phis), np.sin(self._phis)])
        if np.linalg.matrix_rank(basis, tol=1e-8) < 2 * k:
            raise ContractError("degenerate oracle lift; increase m")

    def _lift(self, z_rows: np.ndarray) -> np.ndarray:
        r = z_rows.shape[0]
        out = np.empty((r, self.a, self.m))
        zx = z_rows[:, 0::2][:, :, None]
        zy = z_rows[:, 1::2][:, :, None]
        c = np.cos(self._phis)[None, :, :]
        s = np.sin(self._phis)[None, :, :]
        out[:, 0::2, :] = c * zx - s * zy
        out[:, 1::2, :] = s * zx + c * zy
        return out.reshape(r, self.a * self.m)

    def encode_rows_np(self, rows: np.ndarray) -> np.ndarray:
        z = self.mixing.demix(np.asarray(rows, dtype=np.float64))
        return self._lift(z)

    def decode_rows_np(self, rows: np.ndarray) -> np.ndarray:
        h = np.asarray(rows, dtype=np.float64).reshape(-1, self.a, self.m)
        return self.mixing.apply(h[:, :, 0])

    # tape protocol (constant injection; evaluation only)

    def bind(self, tape: ad.Tape) -> "BoundOracle":
        return BoundOracle(tape, self)


class BoundOracle:
    """Tape adapter for OracleModel; values enter as constants."""

    def __init__(self, tape, oracle: OracleModel):
        self.tape = tape
        self.oracle = oracle
        self.a = oracle.a
        self.m = oracle.m

    def encode_rows(self, x: Var) -> Var:
        return self.tape.input(self.oracle.encode_rows_np(x.value))

    def decode_rows(self, h: Var) -> Var:
        return self.tape.input(self.oracle.decode_rows_np(h.value))
