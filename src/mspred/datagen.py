"""Synthetic stationary sequences driven by hidden torus rotations.

Each sequence lives on one orbit of a k-fold product of plane rotations:
a hidden 2k-dimensional point ``z0`` is rotated by per-factor angles that
advance with constant velocity (and optionally constant acceleration), and
every rotated point is pushed through a fixed nonlinear mixing map into
observation space. The rotation group is therefore invisible in the raw
observations, which is exactly what the encoder has to undo.

Angles are stored unwrapped so the constant-difference invariant
``theta[t+1] - theta[t] = v + alpha * t`` holds exactly in angle space.

Randomness is counter-based: sequence ``i`` draws from streams seeded by
``mix64(mix64(master_seed, i), lane)``, so generation order and
parallelism cannot change the result.

Generation runs in two passes, neither of which loops over sequences. The
seeding pass computes every stream at once with two array kernels:
``_stream_seeds`` runs splitmix64 twice on ``arange(count)`` in wrapping
uint64 arithmetic, and ``_uniforms`` reproduces, for each stream seed
``s``, exactly the doubles of ``np.random.default_rng(int(s)).random``:
NumPy's ``SeedSequence`` pool hashing (NEP 19) on uint32 arrays, PCG64's
``srandom_r`` seeding and its XSL-RR output (O'Neill 2014) on 128-bit
states carried as (hi, lo) uint64 limbs, and the ``(x >> 11) * 2**-53``
double conversion. Its only Python loop is over the draws of one stream.
A batched pass then computes angles, start points, rotations and
observations over chunks of ``_CHUNK`` sequences, which bounds its
temporaries. It rounds exactly as sequence-at-a-time generation does, so
datasets are byte-identical to it: the rotation is a stacked
matrix-vector product (writing it out as ``c*a - s*b`` rounds
differently), and the mixing map runs one GEMM per sequence on a
(chunk, T, 2k) stack (a single flattened (chunk*T, 2k) GEMM sums in
another order and moves last bits).
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace

import numpy as np

from . import container
from .errors import FormatError, ValidationError

TWO_PI = 2.0 * math.pi

DATASET_MAGIC = b"MSPDAT01"

# lane indices for the per-sequence substreams (see mix64 below)
_LANE_TRANSITION = 0
_LANE_START = 1
_LANE_PARTNER = 2

# sequences per batched pass of the generators (see _observe)
_CHUNK = 256

_MASK32 = (1 << 32) - 1
_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15

# NumPy SeedSequence's hashing constants and PCG64's 128-bit LCG multiplier
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = (2549297995355413924 << 64) + 4865540595714422341


def splitmix64(x):
    """One round of the splitmix64 finalizer (64-bit avalanche).

    Takes a Python int, or a uint64 array on which it wraps elementwise.
    """
    z = x & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def mix64(seed, index):
    """Derive a decorrelated 64-bit stream seed from (seed, index).

    ``seed`` may be a uint64 array (``index`` a Python int) or ``index``
    a uint64 array (``seed`` an int in [0, 2**64)); both wrap mod 2**64.
    """
    return splitmix64(seed + ((index + 1) * _GOLDEN & _MASK64))


@dataclass(frozen=True)
class GeneratorSpec:
    """Parameters of the synthetic sequence generator.

    ``velocity_range`` and ``accel_range`` are half-open intervals applied
    per rotation factor. In velocity mode ``accel_range`` must be
    zero-width. ``latent_dim`` is always ``2 * k``.
    """

    k: int
    obs_dim: int
    T: int
    num_sequences: int
    mixing_seed: int
    velocity_range: tuple[float, float] = (-math.pi / 2, math.pi / 2)
    accel_range: tuple[float, float] = (0.0, 0.0)

    @property
    def latent_dim(self) -> int:
        return 2 * self.k

    def check_obs_dim(self) -> None:
        """Require obs_dim >= 2k + 1: the mixing map needs at least one
        observation direction beyond the 2k latent ones for its nonlinear part."""
        if self.obs_dim < 2 * self.k + 1:
            raise ValidationError(
                f"obs_dim {self.obs_dim} < 2k + 1 = {2 * self.k + 1}", field="obs_dim"
            )

    def validate(self, mode: str) -> None:
        if mode not in ("velocity", "acceleration"):
            raise ValidationError(f"unknown mode {mode!r}", field="mode")
        if self.k < 1:
            raise ValidationError("k must be >= 1", field="k")
        self.check_obs_dim()
        min_t = 3 if mode == "velocity" else 4
        if self.T < min_t:
            raise ValidationError(f"T must be >= {min_t} in {mode} mode", field="T")
        if self.num_sequences < 1:
            raise ValidationError("num_sequences must be >= 1", field="num_sequences")
        for name in ("velocity_range", "accel_range"):
            if len(getattr(self, name)) != 2:
                raise ValidationError(f"{name} must be a (low, high) pair", field=name)
        if not self.velocity_range[0] < self.velocity_range[1]:
            raise ValidationError("velocity_range must be non-empty", field="velocity_range")
        if mode == "velocity" and tuple(self.accel_range) != (0.0, 0.0):
            raise ValidationError(
                "accel_range must be zero-width in velocity mode", field="accel_range"
            )
        if mode == "acceleration" and not self.accel_range[0] < self.accel_range[1]:
            raise ValidationError(
                "accel_range must be non-empty in acceleration mode", field="accel_range"
            )


def velocity_spec(k=3, obs_dim=24, T=3, num_sequences=5000, mixing_seed=7) -> GeneratorSpec:
    """Desk-scale defaults for constant-velocity sequences."""
    return GeneratorSpec(k=k, obs_dim=obs_dim, T=T, num_sequences=num_sequences,
                         mixing_seed=mixing_seed)


def acceleration_spec(k=3, obs_dim=24, T=11, num_sequences=5000, mixing_seed=7) -> GeneratorSpec:
    """Desk-scale defaults for constant-acceleration sequences."""
    return GeneratorSpec(
        k=k, obs_dim=obs_dim, T=T, num_sequences=num_sequences, mixing_seed=mixing_seed,
        velocity_range=(-math.pi / 5, math.pi / 5),
        accel_range=(-math.pi / 40, math.pi / 40),
    )


def latent_rotation(angles) -> np.ndarray:
    """Block-diagonal direct sum of 2x2 rotations, one block per factor.

    ``angles`` is (..., k); the result is (..., 2k, 2k), one matrix per
    row of angles, built without a Python loop over factors.
    """
    angles = np.atleast_1d(np.asarray(angles, dtype=np.float64))
    k = angles.shape[-1]
    rot = np.zeros((*angles.shape[:-1], 2 * k, 2 * k))
    c, s = np.cos(angles), np.sin(angles)
    even = 2 * np.arange(k)
    rot[..., even, even] = c
    rot[..., even, even + 1] = -s
    rot[..., even + 1, even] = s
    rot[..., even + 1, even + 1] = c
    return rot


class MixingMap:
    """Fixed nonlinear observation map x = W2 tanh(W1 z) + W3 z.

    All weights are drawn once from ``mixing_seed``. W3's singular values
    are clamped to [0.5, 2.0]. The nonlinear component is deliberately
    low-rank and sharply saturated: W2 has rank max(2, floor(n/3)), capped
    at n - 2k, so the sharp tanh features live in a fixed subspace of
    observation space while its orthogonal complement carries W3 z
    untouched. The map is therefore exactly injective (project the
    nonlinear subspace away and invert the remaining linear map), and
    reconstructing an observation is strictly harder than recovering its
    latent.
    """

    _SHARPNESS = 14.0        # scale of W1: tanh features are near-binary
    _NONLINEAR_SHARE = 0.10  # mean squared nonlinear norm / linear norm

    def __init__(self, spec: GeneratorSpec):
        spec.check_obs_dim()
        d = spec.latent_dim
        n = spec.obs_dim
        h = 2 * n
        # the nonlinear subspace leaves 2k directions to the linear part,
        # so projecting it away keeps P W3 of full column rank
        r = min(max(2, n // 3), n - d)
        rng = np.random.default_rng(mix64(spec.mixing_seed, 0))
        self.w1 = rng.normal(size=(h, d)) * (self._SHARPNESS / math.sqrt(d))
        w2 = (rng.normal(size=(n, r)) @ rng.normal(size=(r, h))) / math.sqrt(r * h)
        w3 = rng.normal(size=(n, d))
        u, sv, vt = np.linalg.svd(w3, full_matrices=False)
        self.w3 = u @ np.diag(np.clip(sv, 0.5, 2.0)) @ vt
        # calibrate the nonlinear amplitude against the linear energy on a
        # seeded latent probe, so the share is dimension-independent
        probe = rng.normal(size=(256, d))
        nl = np.tanh(probe @ self.w1.T) @ w2.T
        linear_energy = float(np.square(probe @ self.w3.T).sum(axis=1).mean())
        nl_energy = float(np.square(nl).sum(axis=1).mean())
        self.w2 = w2 * math.sqrt(self._NONLINEAR_SHARE * linear_energy / nl_energy)
        # exact linear demixer: project out range(W2), then invert P W3
        u2, s2, _ = np.linalg.svd(self.w2, full_matrices=False)
        basis = u2[:, s2 > 1e-12 * s2.max()]
        proj = np.eye(n) - basis @ basis.T
        pw3 = proj @ self.w3
        self._demix_proj = proj
        self._demix_solve = np.linalg.solve(pw3.T @ pw3, pw3.T)

    def apply(self, z: np.ndarray) -> np.ndarray:
        """Mix latent rows (..., 2k) into observation rows (..., n)."""
        z = np.asarray(z, dtype=np.float64)
        return np.tanh(z @ self.w1.T) @ self.w2.T + z @ self.w3.T

    def demix(self, x: np.ndarray) -> np.ndarray:
        """Exact left inverse of ``apply`` for x in the image of the map.

        Projects onto the orthogonal complement of the nonlinear subspace
        (where the map is purely linear) and solves the normal equations;
        exact up to floating point for any latent, since P W3 has full
        column rank.
        """
        x = np.asarray(x, dtype=np.float64)
        return (x @ self._demix_proj.T) @ self._demix_solve.T


@dataclass
class SequenceBatch:
    """Observation sequences plus the hidden generator state that made them.

    observations: (N, T, n); theta0, velocity, acceleration: (N, k).
    """

    observations: np.ndarray
    theta0: np.ndarray
    velocity: np.ndarray
    acceleration: np.ndarray
    spec: GeneratorSpec
    master_seed: int
    mode: str

    @property
    def num_sequences(self) -> int:
        return self.observations.shape[0]

    def angles_at(self, t) -> np.ndarray:
        """Hidden angles theta0 + v t + alpha t(t-1)/2 at integer time t."""
        return self.theta0 + self.velocity * t + self.acceleration * (t * (t - 1) / 2.0)

    def step_angles(self, t) -> np.ndarray:
        """Per-factor angle increment from frame t to t+1: v + alpha * t."""
        return self.velocity + self.acceleration * t


@dataclass
class PairedBatch:
    """Two batches whose i-th sequences share (velocity, acceleration)."""

    first: SequenceBatch
    second: SequenceBatch


def _stream_seeds(master_seed: int, count: int, lane: int) -> np.ndarray:
    """uint64 seeds ``mix64(mix64(master_seed, i), lane)`` for i < count.

    The master seed is reduced mod 2**64 first, as the scalar ``mix64``
    reduces it, so negative and oversized seeds map alike."""
    return mix64(mix64(master_seed & _MASK64, np.arange(count, dtype=np.uint64)), lane)


def _hasher(hash_const: int, mult: int):
    """SeedSequence's hashmix on uint32 arrays; each call advances the
    hash constant by ``mult``, as NumPy's does."""

    def hashmix(value):
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = hash_const * mult & _MASK32
        value = value * hash_const
        return value ^ (value >> 16)

    return hashmix


def _seed_sequence_state(seeds: np.ndarray) -> list:
    """``SeedSequence(int(s)).generate_state(4, np.uint64)`` per seed, as
    four uint64 arrays.

    Each seed enters as two 32-bit entropy words. NumPy gives a seed below
    2**32 one word, but a missing pool word hashes exactly like a zero one.
    """
    def mix(x, y):
        value = x * _MIX_MULT_L - y * _MIX_MULT_R
        return value ^ (value >> 16)

    hashmix = _hasher(_INIT_A, _MULT_A)
    zero = np.zeros(len(seeds), dtype=np.uint32)
    pool = [hashmix(word) for word in ((seeds & _MASK32).astype(np.uint32),
                                       (seeds >> 32).astype(np.uint32), zero, zero)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    output = _hasher(_INIT_B, _MULT_B)
    words = [output(pool[i % 4]).astype(np.uint64) for i in range(8)]
    # little-endian pairs of uint32 words make the uint64 state words
    return [words[2 * j] | (words[2 * j + 1] << 32) for j in range(4)]


def _mulhi64(a: np.ndarray, b: int) -> np.ndarray:
    """High 64 bits of the 128-bit products a * b, from 32-bit halves."""
    a_lo, a_hi = a & _MASK32, a >> 32
    b_lo, b_hi = b & _MASK32, b >> 32
    p0, p1, p2 = a_lo * b_lo, a_lo * b_hi, a_hi * b_lo
    mid = (p0 >> 32) + (p1 & _MASK32) + (p2 & _MASK32)
    return a_hi * b_hi + (p1 >> 32) + (p2 >> 32) + (mid >> 32)


def _uniforms(seeds: np.ndarray, width: int) -> np.ndarray:
    """Row i holds ``np.random.default_rng(int(seeds[i])).random(width)``,
    bit for bit, computed for all seeds at once.

    PCG64's 128-bit states are (hi, lo) uint64 limb arrays. Seeding is
    ``srandom_r``: inc = (initseq << 1) | 1, step, add initstate, step.
    Each draw steps the LCG and takes the XSL-RR output x; the double is
    ``(x >> 11) * 2**-53``. One ``random(width)`` call yields exactly the
    values of consecutive shorter calls, so callers slice columns.
    """
    seeds = np.asarray(seeds, dtype=np.uint64)
    state_hi, state_lo, seq_hi, seq_lo = _seed_sequence_state(seeds)
    inc_hi, inc_lo = (seq_hi << 1) | (seq_lo >> 63), (seq_lo << 1) | 1
    mult_hi, mult_lo = _PCG_MULT >> 64, _PCG_MULT & _MASK64

    def add(hi, lo, b_hi, b_lo):
        lo_sum = lo + b_lo
        return hi + b_hi + (lo_sum < lo), lo_sum

    def step(hi, lo):
        hi = _mulhi64(lo, mult_lo) + lo * mult_hi + hi * mult_lo
        return add(hi, lo * mult_lo, inc_hi, inc_lo)

    # from state 0 the first step leaves state = inc
    hi, lo = step(*add(inc_hi, inc_lo, state_hi, state_lo))
    out = np.empty((len(seeds), width))
    for j in range(width):
        hi, lo = step(hi, lo)
        x, rot = hi ^ lo, hi >> 58
        x = (x >> rot) | (x << ((64 - rot) & 63))
        out[:, j] = (x >> 11) * 2.0**-53
    return out


def _draws(master_seed: int, count: int, lane: int, width: int) -> np.ndarray:
    """Seeding pass: row i holds the first ``width`` uniforms of sequence i's
    ``lane`` stream, for all ``count`` sequences at once."""
    return _uniforms(_stream_seeds(master_seed, count, lane), width)


def _transitions(spec: GeneratorSpec, master_seed: int, mode: str):
    """(velocity, acceleration), each (N, k), from the transition lane."""
    k, (v_lo, v_hi), (a_lo, a_hi) = spec.k, spec.velocity_range, spec.accel_range
    accel = mode == "acceleration"
    u = _draws(master_seed, spec.num_sequences, _LANE_TRANSITION, 2 * k if accel else k)
    v = v_lo + (v_hi - v_lo) * u[:, :k]
    alpha = a_lo + (a_hi - a_lo) * u[:, k:] if accel else np.zeros_like(v)
    return v, alpha


def _starts(spec: GeneratorSpec, master_seed: int, lane: int):
    """(theta0 (N, k), z0 (N, 2k)) from a start lane: theta0, phase, radius."""
    k = spec.k
    u = _draws(master_seed, spec.num_sequences, lane, 3 * k)
    theta0 = TWO_PI * u[:, :k]
    phase = TWO_PI * u[:, k : 2 * k]
    radius = 0.7 + (1.3 - 0.7) * u[:, 2 * k :]
    z0 = np.empty((spec.num_sequences, 2 * k))
    z0[:, 0::2] = radius * np.cos(phase)
    z0[:, 1::2] = radius * np.sin(phase)
    return theta0, z0


def _observe(spec: GeneratorSpec, theta0, v, alpha, z0) -> np.ndarray:
    """Batched pass: obs[i, t] = mix(rotation(theta_t[i]) @ z0[i]), chunked."""
    mixing = MixingMap(spec)
    t = np.arange(spec.T, dtype=np.float64)[:, None]
    drift = t * (t - 1) / 2.0
    obs = np.empty((len(theta0), spec.T, spec.obs_dim))
    for lo in range(0, len(theta0), _CHUNK):
        c = slice(lo, lo + _CHUNK)
        theta_t = theta0[c, None] + v[c, None] * t + alpha[c, None] * drift
        obs[c] = mixing.apply((latent_rotation(theta_t) @ z0[c, None, :, None])[..., 0])
    return obs


def make_dataset(spec: GeneratorSpec, master_seed: int, mode: str = "velocity") -> SequenceBatch:
    """Generate a batch of stationary sequences.

    Per-sequence randomness comes from two splitmix64-derived substreams:
    lane 0 draws (velocity, acceleration), lane 1 draws (theta0, z0).
    Velocity mode forces acceleration to zero without consuming draws.
    """
    spec.validate(mode)
    v, alpha = _transitions(spec, master_seed, mode)
    theta0, z0 = _starts(spec, master_seed, _LANE_START)
    obs = _observe(spec, theta0, v, alpha, z0)
    return SequenceBatch(obs, theta0, v, alpha, spec, master_seed, mode)


def make_paired(spec: GeneratorSpec, master_seed: int, mode: str = "velocity") -> PairedBatch:
    """Two batches sharing per-index transitions but independent starts.

    The first batch is bit-identical to ``make_dataset(spec, master_seed,
    mode)``; the second replays the same transition stream with start
    draws from lane 2.
    """
    first = make_dataset(spec, master_seed, mode)
    theta0, z0 = _starts(spec, master_seed, _LANE_PARTNER)
    obs = _observe(spec, theta0, first.velocity, first.acceleration, z0)
    second = SequenceBatch(obs, theta0, first.velocity.copy(),
                           first.acceleration.copy(), spec, master_seed, mode)
    return PairedBatch(first, second)


def make_orbit_probe(spec: GeneratorSpec, master_seed: int, offsets: int) -> SequenceBatch:
    """Sequences along a single orbit: same z0 and velocity, starts shifted.

    Sequence l (l = 0..offsets) starts at theta0 + l * v, i.e. the original
    start advanced l transition steps, so all probe sequences share the
    hidden per-step transition exactly.
    """
    spec.validate("velocity")
    one = replace(spec, num_sequences=1)
    v, _alpha = _transitions(one, master_seed, "velocity")
    theta0, z0 = _starts(one, master_seed, _LANE_START)
    n_seq = offsets + 1
    starts = theta0 + np.arange(n_seq, dtype=np.float64)[:, None] * v
    vs = np.tile(v, (n_seq, 1))
    alphas = np.zeros((n_seq, spec.k))
    obs = _observe(spec, starts, vs, alphas, np.tile(z0, (n_seq, 1)))
    return SequenceBatch(obs, starts, vs, alphas, spec, master_seed, "velocity")


def make_single_factor(spec: GeneratorSpec, master_seed: int, factor: int) -> SequenceBatch:
    """Sequences in which only one rotation factor moves.

    Draws the usual per-sequence streams but zeroes every velocity except
    ``factor``'s, so the batch isolates that factor's action; used to
    attribute detected blocks to hidden factors. The batch is always in
    velocity mode, so an acceleration spec's ``accel_range`` is dropped.
    """
    spec = replace(spec, accel_range=(0.0, 0.0))
    spec.validate("velocity")
    if not 0 <= factor < spec.k:
        raise ValidationError(f"factor {factor} out of range for k={spec.k}", field="k")
    v, alpha = _transitions(spec, master_seed, "velocity")
    masked = np.zeros_like(v)
    masked[:, factor] = v[:, factor]
    theta0, z0 = _starts(spec, master_seed, _LANE_START)
    obs = _observe(spec, theta0, masked, alpha, z0)
    return SequenceBatch(obs, theta0, masked, alpha, spec, master_seed, "velocity")


# ---------------------------------------------------------------------------
# dataset file format: magic, u32-LE header length, JSON header, payloads


def _spec_to_header(spec: GeneratorSpec) -> dict:
    d = asdict(spec)
    d["velocity_range"] = list(d["velocity_range"])
    d["accel_range"] = list(d["accel_range"])
    return d


def _spec_from_header(d: dict) -> GeneratorSpec:
    return GeneratorSpec(
        k=int(d["k"]), obs_dim=int(d["obs_dim"]), T=int(d["T"]),
        num_sequences=int(d["num_sequences"]), mixing_seed=int(d["mixing_seed"]),
        velocity_range=tuple(float(x) for x in d["velocity_range"]),
        accel_range=tuple(float(x) for x in d["accel_range"]),
    )


_TENSOR_ORDER = ("observations", "theta0", "velocity", "acceleration")


def save_dataset(batch: SequenceBatch, path) -> None:
    """Write the MSPDAT01 container; the layout is in ``container``."""
    header = {
        "spec": _spec_to_header(batch.spec),
        "master_seed": int(batch.master_seed),
        "mode": batch.mode,
        "shapes": {name: list(getattr(batch, name).shape) for name in _TENSOR_ORDER},
    }
    container.write(path, DATASET_MAGIC, header, [getattr(batch, name) for name in _TENSOR_ORDER])


def _dataset_layout(header: dict) -> list:
    shapes = header["shapes"]
    if sorted(shapes) != sorted(_TENSOR_ORDER):
        raise ValueError(f"arrays {sorted(shapes)} are not {sorted(_TENSOR_ORDER)}")
    return [(name, shapes[name]) for name in _TENSOR_ORDER]


def load_dataset(path) -> SequenceBatch:
    """Read an MSPDAT01 file; its spec must validate and fix every array's shape."""
    header, arrays = container.read(path, DATASET_MAGIC, "dataset", _dataset_layout)
    try:
        spec = _spec_from_header(header["spec"])
        master_seed = int(header["master_seed"])
        mode = header["mode"]
        spec.validate(mode)
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"dataset header missing field: {exc}") from exc
    except ValidationError as exc:
        raise FormatError(f"dataset header holds an invalid spec: {exc}") from exc
    if arrays["observations"].shape != (spec.num_sequences, spec.T, spec.obs_dim):
        raise FormatError("observation shape disagrees with spec")
    for name in ("theta0", "velocity", "acceleration"):
        if arrays[name].shape != (spec.num_sequences, spec.k):
            raise FormatError(f"{name} shape disagrees with spec")
    return SequenceBatch(arrays["observations"], arrays["theta0"], arrays["velocity"],
                         arrays["acceleration"], spec, master_seed, mode)


def with_num_sequences(spec: GeneratorSpec, num_sequences: int) -> GeneratorSpec:
    return replace(spec, num_sequences=num_sequences)


def with_length(spec: GeneratorSpec, T: int) -> GeneratorSpec:
    return replace(spec, T=T)
