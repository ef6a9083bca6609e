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
transitions, equivariance) comes from ``fit_np`` and
``predict_np`` at the bottom: the fit runs the same estimator functions
on a scratch tape, and the rollout forms the same products as
``rollout`` without a tape, so their numbers equal the training loss
bit for bit on identical inputs.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field, replace

import numpy as np

from . import autodiff as ad
from .autodiff import Var
from .autodiff import cholesky_lower  # noqa: F401  re-exported: the benchmark tracer wraps it here
from .datagen import mix64, mixing_map
from .errors import (ContractError, DictForm, DimensionError, NumericError,
                     SingularityError, ValidationError)

VARIANTS = ("msp", "rec_model", "fixed_blocks", "neural_mstar")


# ---------------------------------------------------------------------------
# parameters


@dataclass
class TrainConfig(DictForm):
    """Hyperparameters of one training run.

    ``T_c``/``T_p`` default to (2, 1) for first order and (5, 5) for
    second order, and ``T_c`` must be at least 2 and 4 respectively.
    Only ``msp`` trains at second order. The
    learning rate drops from ``lr`` to ``lr_final`` at ``decay_at``
    (default: 80% of the iteration budget).
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
        # the other variants' objectives fit first-order operators only
        if cfg.order != 1 and cfg.variant != "msp":
            raise ValidationError(f"order 2 needs variant msp, got {cfg.variant!r}",
                                  field="order")
        if cfg.a < 1:
            raise ValidationError("latent dimension a must be >= 1", field="a")
        if cfg.m <= cfg.a:
            raise ValidationError("multiplicity m must exceed a", field="m")
        for key in ("enc_hidden", "dec_hidden", "mstar_hidden"):
            if any(width < 1 for width in getattr(cfg, key)):
                raise ValidationError(f"{key} widths must be >= 1", field=key)
        for key in ("batch_size", "log_interval"):
            if getattr(cfg, key) < 1:
                raise ValidationError(f"{key} must be >= 1", field=key)
        for key in ("iterations", "decay_at", "holdout"):
            if getattr(cfg, key) < 0:
                raise ValidationError(f"{key} must be >= 0", field=key)
        # a moment decay of 1 never moves its moment off zero: Adam divides 0 by 0
        for key in ("beta1", "beta2"):
            if not 0.0 <= getattr(cfg, key) < 1.0:
                raise ValidationError(f"{key} must be in [0, 1)", field=key)
        if not cfg.eps > 0.0:
            raise ValidationError("eps must be > 0", field="eps")
        if not cfg.invertibility_weight >= 0.0:
            raise ValidationError("invertibility_weight must be >= 0",
                                  field="invertibility_weight")
        # at order 2 and T_c = 3 the velocity stage is exactly determined:
        # its operators reach spectral radius 47-2,000 on desk data and a
        # long rollout overflows; from T_c = 4 they stay near 1.4-4
        min_tc = 2 if cfg.order == 1 else 4
        if cfg.T_c < min_tc:
            raise ValidationError(f"T_c must be >= {min_tc} for order {cfg.order}",
                                  field="T_c")
        # every variant is scored by predicting T_p frames, rec_model too
        if cfg.T_p < 1:
            raise ValidationError("T_p must be >= 1", field="T_p")
        if cfg.variant == "fixed_blocks" and cfg.a % 2 != 0:
            raise ValidationError("fixed_blocks needs even a", field="a")
        for key in ("lr", "lr_final"):
            if not getattr(cfg, key) > 0.0:
                raise ValidationError(f"{key} must be > 0", field=key)

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

    # forward-only protocol, shared with OracleModel (see ``fit_np``)

    def encode_rows_np(self, rows: np.ndarray) -> np.ndarray:
        """Encode observation rows (r, n) to latent rows (r, a*m), gradient-free."""
        return _mlp_np(self.enc, np.asarray(rows, dtype=np.float64))

    def decode_rows_np(self, rows: np.ndarray) -> np.ndarray:
        """Decode latent rows (r, a*m) to observation rows (r, n), gradient-free."""
        return _mlp_np(self.dec, np.asarray(rows, dtype=np.float64))

    def transition_rows_np(self, rows: np.ndarray) -> np.ndarray:
        """Neural transition head, gradient-free: rows (r, T_c*n) -> (r, a*a)."""
        if self.mstar is None:
            raise ContractError("model has no neural transition head")
        return _mlp_np(self.mstar, np.asarray(rows, dtype=np.float64))


class TapeModel:
    """Model parameters entered as leaves on one tape.

    Construct a fresh instance per loss evaluation; ``leaf_vars`` maps
    parameter names to their tape handles so the trainer can read
    gradients after backward(), and ``variant_loss`` sets ``estimate`` to
    the ``TransitionEstimate`` its objective built, so the trainer can
    read the step's own transitions. One scan of ``params.flat`` checks every
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
        self.estimate: TransitionEstimate | None = None
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
            h = ad.dense(h, w, b, act=i < last)
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
    """

    order: int
    m_star: Var
    m_last: Var | None

    @property
    def transitions(self) -> Var:
        """The per-sequence transitions: ``m_star`` at first order, the last
        velocity operators ``m_last`` at second order."""
        return self.m_star if self.m_last is None else self.m_last


class Frames(Sequence):
    """T consecutive latents held as one stacked (N, T*a, m) or (T*a, m) tape value.

    Frame t is rows t*a .. (t+1)*a. Indexing slices a frame out (one
    contiguous copy) on first use and keeps it; ``band`` copies a run of
    consecutive frames in one piece, so an estimator that reads frames
    only in runs never copies them one at a time.
    """

    def __init__(self, stacked: Var, a: int):
        self.stacked = stacked
        self.a = a
        self._frames: dict[int, Var] = {}

    def __len__(self) -> int:
        return self.stacked.shape[-2] // self.a

    def __getitem__(self, t):
        if isinstance(t, slice):
            return [self[i] for i in range(len(self))[t]]
        t = range(len(self))[t]
        if t not in self._frames:
            self._frames[t] = self.band(t, t + 1)
        return self._frames[t]

    def band(self, lo: int, hi: int) -> Var:
        """Frames lo .. hi-1 stacked by rows: (N, (hi-lo)*a, m)."""
        return ad.slice_rows(self.stacked, lo * self.a, hi * self.a)


def estimate_transition(latents: Sequence[Var]) -> TransitionEstimate:
    """Least-squares transition M minimizing sum ||M H_t - H_{t+1}||_F^2.

    ``latents`` are the encoded conditional frames, each (a, m) or a
    batch (N, a, m) with one transition per sequence; the optimum is
    H_plus1 pinv(H_plus0) over their horizontal concatenations, solved
    by one ``lstsq_right`` call.

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
    return TransitionEstimate(order=1, m_star=ad.lstsq_right(h0, h1), m_last=None)


def estimate_transition_blockwise(latents: Sequence[Var]) -> TransitionEstimate:
    """Independent transition solve on each 2-row slice.

    The (N, a, m) latents are cut into (N * a/2, 2, m) slices and
    solved by ``estimate_transition`` in one batch; slice s is sequence
    s // (a/2), block s % (a/2). The result is exactly a direct
    sum: off-block entries are zeros, not small numbers. A rank-deficient
    slice raises the ``SingularityError`` of ``estimate_transition``,
    naming its block and, for a batch, its sequence as ``matrix``.
    """
    if len(latents) < 2:
        raise ContractError("estimate_transition_blockwise needs two frames")
    block = 2
    *batch, a, m = latents[0].shape
    if a % block != 0:
        raise ContractError(f"a={a} is not divisible by block={block}")
    n_blocks = a // block
    n_seq = batch[0] if batch else 1
    slices = [ad.reshape(lat, n_seq * n_blocks, block, m) for lat in latents]
    try:
        est = estimate_transition(slices)
    except SingularityError as exc:
        seq, blk = divmod(exc.matrix, n_blocks)
        where = f"matrix {seq}: " if batch else ""
        reason = str(exc).removeprefix(f"matrix {exc.matrix}: ")
        raise SingularityError(f"{where}{block}-row block {blk}: {reason}", pivot=exc.pivot,
                               matrix=seq if batch else None) from exc
    # every column band holds all blocks stacked; the mask keeps the diagonal ones
    bands = ad.hcat([ad.reshape(est.m_star, *batch, a, block)] * n_blocks)
    mask = np.kron(np.eye(n_blocks), np.ones((block, block)))
    mask = latents[0].tape.input(np.broadcast_to(mask, bands.shape), grad=False)
    m_star = ad.hadamard(bands, mask)
    return TransitionEstimate(order=1, m_star=m_star, m_last=None)


def estimate_second_order(latents: Sequence[Var]) -> TransitionEstimate:
    """Two-stage solve: per-step velocity operators, then their transition.

    Step one forms velocity estimates 1M_t = H_t pinv(H_{t-1}) (each frame
    latent must be full row rank, hence m >= a); step two solves the same
    least-squares problem on the velocity sequence, yielding the constant
    acceleration operator. Returns that operator as ``m_star`` and the
    final velocity 1M_{T_c} as ``m_last``. Latents may be (N, a, m)
    batches, as in ``estimate_transition``. Each stage is one
    ``lstsq_right`` call: step one solves all N (T_c - 1) frame pairs as
    one batch, sequence-major. Its operands are row bands of one stacked
    latent, so ``Frames`` are read in place and a list is stacked first.

    Raises:
        SingularityError: naming the failing frame index (and, for a
            batch, the sequence as ``matrix``).
    """
    if len(latents) < 3:
        raise ContractError("second order needs at least three frames (T_c >= 3)")
    if not isinstance(latents, Frames):
        latents = Frames(ad.vcat(list(latents)), latents[0].shape[-2])
    *batch, _, m_cols = latents.stacked.shape
    a = latents.a
    if m_cols < a:
        raise DimensionError(f"second order needs m >= a, got latent {(*batch, a, m_cols)}")
    n_seq = batch[0] if batch else 1
    pairs = len(latents) - 1

    def frame_pairs(lo):  # (N * pairs, a, m): pair t of sequence s at s * pairs + t
        return ad.reshape(latents.band(lo, lo + pairs), n_seq * pairs, a, m_cols)

    try:
        vel = ad.lstsq_right(frame_pairs(0), frame_pairs(1))
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
    return TransitionEstimate(order=2, m_star=acc, m_last=m_last)


def estimate(latents: Sequence[Var], *, order: int = 1, transition: str = "lstsq",
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
        return TransitionEstimate(order=1, m_star=head, m_last=None)
    raise ContractError(f"unknown transition kind {transition!r}")


def rollout(est: TransitionEstimate, h: Var, steps: int) -> list[Var]:
    """Latents of horizons 1..steps after ``h``, by repeated multiplication.

    First order applies M each step: the j-th output is M^j h. Second
    order first advances the step operator S_j = A S_{j-1} from S_0 = B,
    with A the acceleration operator and B the last velocity operator,
    then applies it: the j-th output is (A^j B)(A^{j-1} B)...(A B) h.
    """
    if steps < 1:
        raise ContractError("steps must be >= 1")
    out = []
    cur, step_op = h, est.m_last
    for _ in range(steps):
        if est.order == 1:
            cur = ad.matmul(est.m_star, cur)
        else:
            step_op = ad.matmul(est.m_star, step_op)
            cur = ad.matmul(step_op, cur)
        out.append(cur)
    return out


rollout_second_order = rollout  # a second name that perfbench's span tracer wraps


# ---------------------------------------------------------------------------
# losses


def _as_batch(obs) -> np.ndarray:
    obs = np.asarray(obs, dtype=np.float64)
    if obs.ndim == 2:
        obs = obs[None]
    if obs.ndim != 3:
        raise DimensionError(f"expected (N, T, n) observations, got {obs.shape}")
    if obs.shape[0] == 0:
        raise DimensionError("empty batch: no sequences")
    return obs


def _frames(enc_rows: Var, n_seq: int, a: int, m: int) -> Frames:
    """View (N * T_c, a*m) encoder rows as T_c batched (N, a, m) latents."""
    T_c = enc_rows.shape[0] // n_seq
    return Frames(ad.reshape(enc_rows, n_seq, T_c * a, m), a)


def _rollout_rows(est: TransitionEstimate, start: Var, steps: int) -> Var:
    """Roll (N, a, m) latents forward; (N * steps, a*m) rows, sequence-major."""
    n_seq, a, m = start.shape
    preds = [ad.reshape(p, n_seq, 1, a * m) for p in rollout(est, start, steps)]
    return ad.reshape(ad.hcat(preds), n_seq * steps, a * m)


def _encode_frames(tape_model, obs: np.ndarray, T_c: int) -> tuple[Var, Var]:
    """Enter frames 1..T_c of every sequence as (N * T_c, n) rows,
    sequence-major, and encode them in one pass; returns (rows, encodings)."""
    n_seq, _, n_dim = obs.shape
    rows = tape_model.tape.input(obs[:, :T_c].reshape(n_seq * T_c, n_dim), grad=False)
    return rows, tape_model.encode_rows(rows)


def _mean_frame_error(tape_model, rows: Var, targets: Var) -> Var:
    """Decode latent rows; mean squared L2 error per target frame."""
    diff = ad.sub(tape_model.decode_rows(rows), targets)
    return ad.scale(ad.frobenius_sq(diff), 1.0 / targets.shape[0])


def _prediction_loss(tape_model, obs, T_c: int, T_p: int, order: int,
                     transition: str) -> tuple[Var, Var, Var, TransitionEstimate]:
    """``loss_pred``, also returning the conditioning rows it entered,
    their encodings (see ``_encode_frames``), so that another term of the
    objective can reuse the one encoder pass, and the transition estimate
    it rolled out."""
    obs = _as_batch(obs)
    n_seq, t_len, n_dim = obs.shape
    if t_len < T_c + T_p:
        raise DimensionError(f"sequences of length {t_len} cannot supply T_c+T_p={T_c + T_p}")
    tape, a = tape_model.tape, tape_model.a
    rows, enc = _encode_frames(tape_model, obs, T_c)
    lat = _frames(enc, n_seq, a, tape_model.m)
    head = None
    if transition == "neural":
        cond = tape.input(obs[:, :T_c].reshape(n_seq, T_c * n_dim), grad=False)
        head = ad.reshape(tape_model.transition_rows(cond), n_seq, a, a)
    est = estimate(lat, order=order, transition=transition, head=head)
    targets = tape.input(obs[:, T_c : T_c + T_p].reshape(n_seq * T_p, n_dim), grad=False)
    loss = _mean_frame_error(tape_model, _rollout_rows(est, lat[-1], T_p), targets)
    return loss, rows, enc, est


def loss_pred(tape_model: TapeModel, obs, T_c: int, T_p: int, *,
              order: int = 1, transition: str = "lstsq") -> Var:
    """Prediction loss: fit the transition on frames 1..T_c, score T_p more.

    ``transition`` selects the estimator (see ``estimate``): "lstsq"
    (closed form), "blockwise" (direct sum of 2x2 solves) or "neural"
    (the learned transition head). Every sequence of the batch is fitted
    and rolled out at once. Returns the mean over sequences and predicted
    frames of the squared L2 frame error.
    """
    return _prediction_loss(tape_model, obs, T_c, T_p, order, transition)[0]


def _reconstruction_loss(tape_model, obs, T_c: int) -> tuple[Var, TransitionEstimate]:
    """``loss_rec``, also returning the transition estimate it rolled out."""
    obs = _as_batch(obs)
    n_seq, t_len, n_dim = obs.shape
    if t_len < T_c:
        raise DimensionError(f"sequences of length {t_len} cannot supply T_c={T_c}")
    lat = _frames(_encode_frames(tape_model, obs, T_c)[1], n_seq, tape_model.a, tape_model.m)
    est = estimate_transition(lat)
    targets = tape_model.tape.input(obs[:, 1:T_c].reshape(n_seq * (T_c - 1), n_dim),
                                    grad=False)
    return _mean_frame_error(tape_model, _rollout_rows(est, lat[0], T_c - 1), targets), est


def loss_rec(tape_model: TapeModel, obs, T_c: int) -> Var:
    """Reconstruction loss: fit on all T_c frames, re-predict frames 2..T_c.

    The transition is estimated from the full conditional sequence and
    then asked to reproduce the frames it was fitted on, starting from
    the first latent. No unseen frames are involved.
    """
    return _reconstruction_loss(tape_model, obs, T_c)[0]


def invertibility_loss(tape_model: TapeModel, obs, T_c: int) -> Var:
    """Mean squared error of decode(encode(frame)) over the first T_c frames.

    ``variant_loss`` adds the same term for the neural ablation from the
    encoder pass of its prediction loss instead of encoding again.
    """
    rows, enc = _encode_frames(tape_model, _as_batch(obs), T_c)
    return _mean_frame_error(tape_model, enc, rows)


def variant_loss(tape_model: TapeModel, obs, cfg: TrainConfig) -> Var:
    """The training objective for the configured variant.

    For ``neural_mstar`` with a nonzero ``invertibility_weight`` w it is
    ``loss_pred`` + w * ``invertibility_loss``, with both terms reading
    one encoder pass over the conditioning frames: the same forward
    value as two separate passes, and one summed gradient into the
    encoder.

    The objective's ``TransitionEstimate`` is recorded as
    ``tape_model.estimate``: for ``rec_model`` the first-order fit on its
    max(T_c, 3) frames, otherwise the estimate of ``loss_pred``.
    """
    cfg = cfg.resolved()
    if cfg.variant not in VARIANTS:
        raise ContractError(f"unknown variant {cfg.variant!r}")
    if cfg.variant == "rec_model":
        loss, tape_model.estimate = _reconstruction_loss(tape_model, obs, max(cfg.T_c, 3))
        return loss
    pred, rows, enc, tape_model.estimate = _prediction_loss(
        tape_model, obs, cfg.T_c, cfg.T_p, cfg.order, cfg.transition)
    if cfg.variant != "neural_mstar" or cfg.invertibility_weight == 0.0:
        return pred
    inv = _mean_frame_error(tape_model, enc, rows)
    return ad.add(pred, ad.scale(inv, cfg.invertibility_weight))


# ---------------------------------------------------------------------------
# gradient-free forward path (evaluation)


ROW_BLOCK = 512


def _mlp_np(layers, x):
    """Forward pass of a tanh MLP over the rows of ``x``.

    Every layer forms ``h @ w + b`` (then ``tanh`` unless it is the last)
    as ``matmul`` into a buffer, an in-place bias add and an in-place
    ``tanh``: the same arithmetic bit for bit, with one buffer per hidden
    layer allocated per call, and the last layer written straight into
    the returned array, so no result of a call is ever reused by another.

    An input of more than ``ROW_BLOCK`` rows runs in ceil(R / ROW_BLOCK)
    near-equal row blocks through the same buffers, so every layer's
    temporaries stay cache-sized instead of R rows wide. Blocks are
    near-equal, not ``ROW_BLOCK`` rows and a remainder, because a remainder
    of one row would go through gemv, which rounds differently from gemm;
    every block has more than ROW_BLOCK / 2 rows, so the result equals one
    unblocked pass bit for bit.
    """
    rows = x.shape[0]
    count = max(1, -(-rows // ROW_BLOCK))
    bounds = [rows * i // count for i in range(count + 1)]
    block = -(-rows // count)
    *hidden, (w_out, b_out) = layers
    bufs = [np.empty((block, w.shape[1])) for w, _ in hidden]
    out = np.empty((rows, w_out.shape[1]))
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        h = x[lo:hi]
        for (w, b), buf in zip(hidden, bufs):
            h = np.matmul(h, w, out=buf[: hi - lo])
            h += b
            np.tanh(h, out=h)
        np.matmul(h, w_out, out=out[lo:hi])
        out[lo:hi] += b_out
    return out


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

    def head(self, count: int) -> "TransitionFit":
        """The fits of the first ``count`` sequences, as views."""
        return TransitionFit(last=self.last[:count], op=self.op[:count],
                             vel=None if self.vel is None else self.vel[:count])

    @property
    def transitions(self) -> np.ndarray:
        """The (N, a, a) per-sequence transitions: ``op`` for a first-order
        fit, the last velocity operators ``vel`` for a second-order one."""
        return self.op if self.vel is None else self.vel


def _fit_chunk(model, cond: np.ndarray, order: int,
               transition: str) -> tuple[np.ndarray, TransitionEstimate]:
    """The last latents and the ``estimate`` of one chunk's (n, T_c, n_dim)
    conditioning frames.

    Each forward result enters a scratch tape as a read-only view once it
    is checked finite, so no encoding is copied onto the tape.
    """
    n_seq, T_c, n_dim = cond.shape
    a, m = model.a, model.m
    tape = ad.Tape()

    def enter(values, *shape):
        return tape.input_view(ad._finite(values, "forward pass").reshape(shape))

    head = None
    if transition == "neural":
        lat = [enter(model.encode_rows_np(cond[:, -1]), n_seq, a, m)]
        head = enter(model.transition_rows_np(cond.reshape(n_seq, T_c * n_dim)), n_seq, a, a)
    else:
        enc = enter(model.encode_rows_np(cond.reshape(n_seq * T_c, n_dim)), n_seq * T_c, a * m)
        lat = _frames(enc, n_seq, a, m)
    return lat[-1].value, estimate(lat, order=order, transition=transition, head=head)


def fit_np(model, obs, T_c: int, *, order: int, transition: str) -> TransitionFit:
    """Encode a batch once and fit every sequence's operators, gradient-free.

    ``transition`` and ``order`` name the estimator as in ``loss_pred``
    ("lstsq" of either order, "blockwise" or "neural"); a run's pair is
    its ``TrainConfig.order`` and ``TrainConfig.transition``. ``model`` is
    a ``ModelParams`` or an ``OracleModel``: anything with ``a``, ``m``
    and the forward methods. The encodings enter
    a scratch tape and run through ``estimate``, the estimator the
    training loss uses, so a fit on the same inputs reproduces
    ``loss_pred``'s operators bit for bit. A neural fit reads no latent
    but the last one, where a rollout starts, so it encodes only frame T_c.

    The batch is fitted in near-equal chunks of at most
    max(1, ROW_BLOCK // T_c) sequences, each on its own tape, into arrays
    allocated once for the batch: a chunk's encode is one ``_mlp_np``
    block, so no temporary grows with N. Every sequence's solve is its
    own, so the fits equal one pass over the whole batch bit for bit. A
    ``SingularityError`` names the failing sequence by its index in the
    batch, in the message and as ``matrix``; if several fail, the first
    failing chunk reports.
    """
    obs = _as_batch(obs)
    n_seq = obs.shape[0]
    count = -(-n_seq // max(1, ROW_BLOCK // T_c))
    bounds = [n_seq * i // count for i in range(count + 1)]
    fit = None
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        try:
            last, est = _fit_chunk(model, obs[lo:hi, :T_c], order, transition)
        except SingularityError as exc:
            seq = exc.matrix + lo
            message = str(exc).replace(f"matrix {exc.matrix}: ", f"matrix {seq}: ", 1)
            # chained to the cause, not to the same error under its chunk index
            raise SingularityError(message, pivot=exc.pivot, matrix=seq) from exc.__cause__
        if fit is None:
            a, m = model.a, model.m
            fit = TransitionFit(last=np.empty((n_seq, a, m)), op=np.empty((n_seq, a, a)),
                                vel=None if est.m_last is None else np.empty((n_seq, a, a)))
        fit.last[lo:hi] = last
        fit.op[lo:hi] = est.m_star.value
        if fit.vel is not None:
            fit.vel[lo:hi] = est.m_last.value
        del last, est  # this chunk's tape goes before the next one is built
    return fit


def _predicted_groups(model, fit: TransitionFit, steps: int):
    """Roll each fit forward ``steps`` times; yield the decoded frames group by group.

    Yields (lo, hi, frames), with frames the (N, hi - lo, n) predictions
    at horizons lo + 1 .. hi.

    The latent advances with the products ``rollout`` forms (M cur, or
    S = A S, then S cur when the fit has velocity operators), so it
    equals the tape rollout bit for bit. Each group of horizons is
    decoded as soon as its latents exist and then dropped, so no
    (N, steps, a*m) array is ever formed. Groups are
    near-equal and hold at most max(1, ROW_BLOCK // N) horizons, so one
    decode covers at most max(N, ROW_BLOCK) rows and is never a single row
    unless N * steps is 1 (a 1-row product goes through gemv, which rounds
    differently from gemm).
    """
    if steps < 1:
        raise ContractError("steps must be >= 1")
    n_seq, a, m = fit.last.shape
    for name, op in (("op", fit.op), ("vel", fit.vel)):
        if op is not None and op.shape != (n_seq, a, a):
            raise DimensionError(f"{name} {op.shape} does not fit latent {fit.last.shape}")
    count = -(-steps // max(1, ROW_BLOCK // n_seq))
    bounds = [steps * i // count for i in range(count + 1)]
    # one latent buffer for the largest group; the decode writes fresh frames
    scratch = np.empty(n_seq * -(-steps // count) * a * m)
    cur, step_op = fit.last, fit.vel
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        rows = scratch[: n_seq * (hi - lo) * a * m].reshape(n_seq, hi - lo, a * m)
        for j in range(hi - lo):
            if step_op is None:
                cur = ad._finite(fit.op @ cur, "matmul")
            else:
                step_op = ad._finite(fit.op @ step_op, "matmul")
                cur = ad._finite(step_op @ cur, "matmul")
            rows[:, j] = cur.reshape(n_seq, a * m)
        frames = model.decode_rows_np(rows.reshape(n_seq * (hi - lo), a * m))
        yield lo, hi, frames.reshape(n_seq, hi - lo, -1)


def predict_np(model, fit: TransitionFit, steps: int) -> np.ndarray:
    """Predicted frames (N, steps, n) of each fit at horizons 1..steps.

    The rollout is forward-only, with the products of ``rollout``, and
    the latents are decoded one group of horizons at a time (see
    ``_predicted_groups``); every decode is a gemm through ``_mlp_np``,
    so the frames equal a one-pass decode of the tape rollout bit for bit.
    """
    return np.concatenate([frames for _, _, frames in _predicted_groups(model, fit, steps)],
                          axis=1)


def batch_transitions_np(model, obs, T_c: int, *, order: int, transition: str) -> np.ndarray:
    """Per-sequence transitions of a batch, (N, a, a): ``TransitionFit.transitions``."""
    return fit_np(model, obs, T_c, order=order, transition=transition).transitions


def horizon_errors_np(model, obs, T_c: int, horizons: int, *, order: int, transition: str,
                      fit: TransitionFit | None = None) -> np.ndarray:
    """Mean squared frame error at each prediction horizon 1..horizons.

    Fits the per-sequence transition on the first T_c frames with the
    named estimator, or takes ``fit``, this batch's ``fit_np`` with that
    estimator already made by the caller. It then rolls the latent
    forward, decodes and scores one group of horizons at a time (see
    ``_predicted_groups``), so memory stays at one group's decode however
    many horizons are asked for. Returns ||error||_2^2 averaged over
    sequences per horizon.
    """
    obs = _as_batch(obs)
    if obs.shape[1] < T_c + horizons:
        raise DimensionError(f"need T >= {T_c + horizons}, got {obs.shape[1]}")
    if fit is None:
        fit = fit_np(model, obs, T_c, order=order, transition=transition)
    elif fit.last.shape[0] != obs.shape[0]:
        raise DimensionError(f"fit of {fit.last.shape[0]} sequences for a batch of "
                             f"{obs.shape[0]}")
    err = [((frames - obs[:, T_c + lo : T_c + hi]) ** 2).sum(axis=2)
           for lo, hi, frames in _predicted_groups(model, fit, horizons)]
    return np.concatenate(err, axis=1).mean(axis=0)


# ---------------------------------------------------------------------------
# oracle model (known generator, exact equivariant lift)


class OracleModel:
    """Exact encoder/decoder built from the known generator.

    Encodes an observation by inverting the mixing map and lifting the
    recovered 2k latent into a (2k) x m matrix whose columns are plane
    rotations of the latent; every column transforms identically under
    the hidden torus action, so the latent transition is exactly the
    block rotation and every forward error vanishes on clean data.
    Evaluation-only: it has the forward methods of ``ModelParams``
    (``encode_rows_np``, ``decode_rows_np``) and no tape side.
    """

    def __init__(self, spec, m: int | None = None):
        self.spec = spec
        self.mixing = mixing_map(spec)
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
