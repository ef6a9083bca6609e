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
"""

from __future__ import annotations

import io
import json
import math
import os
from dataclasses import asdict, dataclass, replace

import numpy as np

from .errors import FormatError, ValidationError

TWO_PI = 2.0 * math.pi

DATASET_MAGIC = b"MSPDAT01"

# lane indices for the per-sequence substreams (see mix64 below)
_LANE_TRANSITION = 0
_LANE_START = 1
_LANE_PARTNER = 2

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def splitmix64(x: int) -> int:
    """One round of the splitmix64 finalizer (64-bit avalanche)."""
    z = x & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def mix64(seed: int, index: int) -> int:
    """Derive a decorrelated 64-bit stream seed from (seed, index)."""
    return splitmix64((seed + (index + 1) * _GOLDEN) & _MASK64)


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
    """Block-diagonal direct sum of 2x2 rotations, one block per factor."""
    angles = np.atleast_1d(np.asarray(angles, dtype=np.float64))
    k = angles.shape[0]
    rot = np.zeros((2 * k, 2 * k))
    c, s = np.cos(angles), np.sin(angles)
    for j in range(k):
        rot[2 * j, 2 * j] = c[j]
        rot[2 * j, 2 * j + 1] = -s[j]
        rot[2 * j + 1, 2 * j] = s[j]
        rot[2 * j + 1, 2 * j + 1] = c[j]
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


def _uniform(rng, lo, hi, size):
    return lo + (hi - lo) * rng.random(size)


def _draw_transition(rng, spec: GeneratorSpec, mode: str):
    v = _uniform(rng, spec.velocity_range[0], spec.velocity_range[1], spec.k)
    if mode == "acceleration":
        alpha = _uniform(rng, spec.accel_range[0], spec.accel_range[1], spec.k)
    else:
        alpha = np.zeros(spec.k)
    return v, alpha


def _draw_start(rng, spec: GeneratorSpec):
    theta0 = _uniform(rng, 0.0, TWO_PI, spec.k)
    phase = _uniform(rng, 0.0, TWO_PI, spec.k)
    radius = _uniform(rng, 0.7, 1.3, spec.k)
    z0 = np.empty(2 * spec.k)
    z0[0::2] = radius * np.cos(phase)
    z0[1::2] = radius * np.sin(phase)
    return theta0, z0


def _sequence_obs(mixing, spec, theta0, v, alpha, z0):
    # one rotation per time step, so obs[t] = mix(rotation(theta_t) @ z0)
    # is reproducible term for term from the hidden metadata
    z = np.empty((spec.T, 2 * spec.k))
    for t in range(spec.T):
        theta_t = theta0 + v * t + alpha * (t * (t - 1) / 2.0)
        z[t] = latent_rotation(theta_t) @ z0
    return mixing.apply(z)


def make_dataset(spec: GeneratorSpec, master_seed: int, mode: str = "velocity") -> SequenceBatch:
    """Generate a batch of stationary sequences.

    Per-sequence randomness comes from two splitmix64-derived substreams:
    lane 0 draws (velocity, acceleration), lane 1 draws (theta0, z0).
    Velocity mode forces acceleration to zero without consuming draws.
    """
    spec.validate(mode)
    mixing = MixingMap(spec)
    n_seq = spec.num_sequences
    obs = np.empty((n_seq, spec.T, spec.obs_dim))
    theta0s = np.empty((n_seq, spec.k))
    vs = np.empty((n_seq, spec.k))
    alphas = np.empty((n_seq, spec.k))
    for i in range(n_seq):
        base = mix64(master_seed, i)
        g_rng = np.random.default_rng(mix64(base, _LANE_TRANSITION))
        x_rng = np.random.default_rng(mix64(base, _LANE_START))
        v, alpha = _draw_transition(g_rng, spec, mode)
        theta0, z0 = _draw_start(x_rng, spec)
        obs[i] = _sequence_obs(mixing, spec, theta0, v, alpha, z0)
        theta0s[i], vs[i], alphas[i] = theta0, v, alpha
    return SequenceBatch(obs, theta0s, vs, alphas, spec, master_seed, mode)


def make_paired(spec: GeneratorSpec, master_seed: int, mode: str = "velocity") -> PairedBatch:
    """Two batches sharing per-index transitions but independent starts.

    The first batch is bit-identical to ``make_dataset(spec, master_seed,
    mode)``; the second replays the same transition stream with start
    draws from lane 2.
    """
    first = make_dataset(spec, master_seed, mode)
    mixing = MixingMap(spec)
    n_seq = spec.num_sequences
    obs = np.empty_like(first.observations)
    theta0s = np.empty((n_seq, spec.k))
    for i in range(n_seq):
        base = mix64(master_seed, i)
        x_rng = np.random.default_rng(mix64(base, _LANE_PARTNER))
        theta0, z0 = _draw_start(x_rng, spec)
        obs[i] = _sequence_obs(mixing, spec, theta0, first.velocity[i],
                               first.acceleration[i], z0)
        theta0s[i] = theta0
    second = SequenceBatch(obs, theta0s, first.velocity.copy(),
                           first.acceleration.copy(), spec, master_seed, mode)
    return PairedBatch(first, second)


def make_orbit_probe(spec: GeneratorSpec, master_seed: int, offsets: int) -> SequenceBatch:
    """Sequences along a single orbit: same z0 and velocity, starts shifted.

    Sequence l (l = 0..offsets) starts at theta0 + l * v, i.e. the original
    start advanced l transition steps, so all probe sequences share the
    hidden per-step transition exactly.
    """
    spec.validate("velocity")
    mixing = MixingMap(spec)
    base = mix64(master_seed, 0)
    g_rng = np.random.default_rng(mix64(base, _LANE_TRANSITION))
    x_rng = np.random.default_rng(mix64(base, _LANE_START))
    v, alpha = _draw_transition(g_rng, spec, "velocity")
    theta0, z0 = _draw_start(x_rng, spec)
    n_seq = offsets + 1
    obs = np.empty((n_seq, spec.T, spec.obs_dim))
    theta0s = np.empty((n_seq, spec.k))
    for ell in range(n_seq):
        start = theta0 + ell * v
        obs[ell] = _sequence_obs(mixing, spec, start, v, alpha, z0)
        theta0s[ell] = start
    vs = np.tile(v, (n_seq, 1))
    alphas = np.zeros((n_seq, spec.k))
    return SequenceBatch(obs, theta0s, vs, alphas, spec, master_seed, "velocity")


def make_single_factor(spec: GeneratorSpec, master_seed: int, factor: int) -> SequenceBatch:
    """Sequences in which only one rotation factor moves.

    Draws the usual per-sequence streams but zeroes every velocity except
    ``factor``'s, so the batch isolates that factor's action; used to
    attribute detected blocks to hidden factors.
    """
    spec.validate("velocity")
    if not 0 <= factor < spec.k:
        raise ValidationError(f"factor {factor} out of range for k={spec.k}", field="k")
    mixing = MixingMap(spec)
    n_seq = spec.num_sequences
    obs = np.empty((n_seq, spec.T, spec.obs_dim))
    theta0s = np.empty((n_seq, spec.k))
    vs = np.empty((n_seq, spec.k))
    for i in range(n_seq):
        base = mix64(master_seed, i)
        g_rng = np.random.default_rng(mix64(base, _LANE_TRANSITION))
        x_rng = np.random.default_rng(mix64(base, _LANE_START))
        v, _alpha = _draw_transition(g_rng, spec, "velocity")
        masked = np.zeros(spec.k)
        masked[factor] = v[factor]
        theta0, z0 = _draw_start(x_rng, spec)
        obs[i] = _sequence_obs(mixing, spec, theta0, masked, np.zeros(spec.k), z0)
        theta0s[i], vs[i] = theta0, masked
    return SequenceBatch(obs, theta0s, vs, np.zeros((n_seq, spec.k)), spec,
                         master_seed, "velocity")


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
    """Write the MSPDAT01 container (header JSON + little-endian f64)."""
    shapes = {name: list(getattr(batch, name).shape) for name in _TENSOR_ORDER}
    header = {
        "spec": _spec_to_header(batch.spec),
        "master_seed": int(batch.master_seed),
        "mode": batch.mode,
        "shapes": shapes,
    }
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    buf = io.BytesIO()
    buf.write(DATASET_MAGIC)
    buf.write(len(blob).to_bytes(4, "little"))
    buf.write(blob)
    for name in _TENSOR_ORDER:
        buf.write(np.ascontiguousarray(getattr(batch, name), dtype="<f8").tobytes())
    tmp = f"{path}.tmp"
    with open(tmp, "wb") as fh:
        fh.write(buf.getvalue())
    os.replace(tmp, path)


def load_dataset(path) -> SequenceBatch:
    """Read an MSPDAT01 file, verifying magic and shape consistency."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < len(DATASET_MAGIC) + 4:
        raise FormatError("dataset file truncated before header")
    if raw[: len(DATASET_MAGIC)] != DATASET_MAGIC:
        raise FormatError(f"bad dataset magic {raw[:8]!r}")
    off = len(DATASET_MAGIC)
    hlen = int.from_bytes(raw[off : off + 4], "little")
    off += 4
    if off + hlen > len(raw):
        raise FormatError("dataset header extends past end of file")
    try:
        header = json.loads(raw[off : off + hlen].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FormatError(f"dataset header is not valid JSON: {exc}") from exc
    off += hlen
    try:
        spec = _spec_from_header(header["spec"])
        master_seed = int(header["master_seed"])
        mode = header["mode"]
        shapes = header["shapes"]
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"dataset header missing field: {exc}") from exc
    arrays = {}
    for name in _TENSOR_ORDER:
        if name not in shapes:
            raise FormatError(f"dataset header lacks shape for {name!r}")
        shape = tuple(int(x) for x in shapes[name])
        count = int(np.prod(shape))
        nbytes = count * 8
        if off + nbytes > len(raw):
            raise FormatError(f"dataset payload for {name!r} truncated")
        arrays[name] = np.frombuffer(raw[off : off + nbytes], dtype="<f8").reshape(shape).copy()
        off += nbytes
    if off != len(raw):
        raise FormatError("trailing bytes after dataset payload")
    n_seq, t_len, n_dim = arrays["observations"].shape
    if (n_seq, t_len, n_dim) != (spec.num_sequences, spec.T, spec.obs_dim):
        raise FormatError("observation shape disagrees with spec")
    for name in ("theta0", "velocity", "acceleration"):
        if arrays[name].shape != (n_seq, spec.k):
            raise FormatError(f"{name} shape disagrees with spec")
    return SequenceBatch(arrays["observations"], arrays["theta0"], arrays["velocity"],
                         arrays["acceleration"], spec, master_seed, mode)


def with_num_sequences(spec: GeneratorSpec, num_sequences: int) -> GeneratorSpec:
    return replace(spec, num_sequences=num_sequences)


def with_length(spec: GeneratorSpec, T: int) -> GeneratorSpec:
    return replace(spec, T=T)
