"""Post-hoc measurements on trained models.

Everything here is gradient-free and pure: equivariance error (how well a
transition fitted on one sequence predicts another sequence with the same
hidden motion), transition swapping, intra-orbit homogeneity, spectra of
the transition family, orthogonality, and a linear probe regressing the
hidden transition parameters from the fitted operators.

The prediction routines call ``model.fit_np`` then ``model.predict_np``,
which run the training loss's own estimator and rollout functions on a
scratch tape, so their numbers coincide with the tape loss on identical
inputs. Each batch is fitted once; cross-sequence predictions pair one
batch's operators with another batch's latents.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import model as mm
from .datagen import PairedBatch, SequenceBatch, mix64
from .errors import ContractError, DimensionError, NumericError

RATIO_FLOOR = 1e-15


def _prediction_error(pred, obs, T_c):
    """Mean squared frame error of (N, T_p, n) predictions, as ``loss_pred``."""
    n_seq, T_p, n_dim = pred.shape
    if obs.shape[1] < T_c + T_p:
        raise DimensionError(f"need T >= {T_c + T_p}, got {obs.shape[1]}")
    targets = obs[:, T_c : T_c + T_p].reshape(n_seq * T_p, n_dim)
    diff = pred.reshape(n_seq * T_p, n_dim) - targets
    return float((diff ** 2).sum() * (1.0 / (n_seq * T_p)))


def fitted_transitions(model, obs, T_c):
    """Per-sequence transitions from batched encodings.

    A model with a neural transition head is read through the head; any
    other model through the first-order least-squares fit.
    """
    return mm.fit_np(model, obs, T_c).op


@dataclass
class EquivarianceReport:
    """Self-prediction error, cross-sequence error, and their ratio."""

    lp: float
    lp_equiv: float
    ratio: float | None
    sample_count: int

    def to_dict(self) -> dict:
        return {"kind": "equivariance", "lp": self.lp, "lp_equiv": self.lp_equiv,
                "ratio": self.ratio, "sample_count": self.sample_count}


def equivariance_error(model, paired: PairedBatch, T_c: int, T_p: int) -> EquivarianceReport:
    """Score transitions fitted on one batch against its paired partner.

    ``lp`` predicts each partner sequence with its own fitted transition;
    ``lp_equiv`` predicts it with the transition fitted on the sequence
    that shares its hidden motion. Transitions come from the model's
    neural head if it has one, else from the least-squares fit. The ratio
    is None when the baseline is below the floating-point floor.
    """
    first, second = paired.first, paired.second
    if first.num_sequences != second.num_sequences:
        raise ContractError("paired batches differ in length")
    own = mm.fit_np(model, second.observations, T_c)
    cross = replace(own, op=mm.fit_np(model, first.observations, T_c).op)
    lp = _prediction_error(mm.predict_np(model, own, T_p), second.observations, T_c)
    lp_equiv = _prediction_error(mm.predict_np(model, cross, T_p), second.observations, T_c)
    ratio = (lp_equiv / lp) if lp >= RATIO_FLOOR else None
    return EquivarianceReport(lp=lp, lp_equiv=lp_equiv, ratio=ratio,
                              sample_count=first.num_sequences)


@dataclass
class SwapResult:
    """Decoded frames and per-frame errors for a transition swap."""

    pred_a_on_b: np.ndarray
    pred_b_on_a: np.ndarray
    err_a_on_b: np.ndarray
    err_b_on_a: np.ndarray
    err_self_a: np.ndarray
    err_self_b: np.ndarray

    def to_dict(self) -> dict:
        return {"kind": "swap",
                "pred_a_on_b": self.pred_a_on_b.tolist(),
                "pred_b_on_a": self.pred_b_on_a.tolist(),
                "err_a_on_b": self.err_a_on_b.tolist(),
                "err_b_on_a": self.err_b_on_a.tolist(),
                "err_self_a": self.err_self_a.tolist(),
                "err_self_b": self.err_self_b.tolist()}


def transition_swap(model, seq_a, seq_b, T_c: int, T_p: int) -> SwapResult:
    """Apply each sequence's fitted transition to the other sequence."""
    seqs = [np.asarray(s, dtype=np.float64) for s in (seq_a, seq_b)]
    if min(len(s) for s in seqs) < T_c + T_p:
        raise DimensionError(f"both sequences need T >= {T_c + T_p}")
    seqs = np.stack([s[: T_c + T_p] for s in seqs])
    fit = mm.fit_np(model, seqs, T_c)
    # rows: a's transition on b, b's on a, then each on itself
    ops, lats = [0, 1, 0, 1], [1, 0, 0, 1]
    pred = mm.predict_np(model, mm.TransitionFit(last=fit.last[lats], op=fit.op[ops]), T_p)
    err = ((pred - seqs[lats, T_c:]) ** 2).sum(axis=2)
    return SwapResult(pred_a_on_b=pred[0], pred_b_on_a=pred[1],
                      err_a_on_b=err[0], err_b_on_a=err[1],
                      err_self_a=err[2], err_self_b=err[3])


def transition_distance(m1, m2) -> tuple[float, np.ndarray]:
    """Squared Frobenius distance and the entrywise squared differences."""
    m1 = np.asarray(m1, dtype=np.float64)
    m2 = np.asarray(m2, dtype=np.float64)
    if m1.shape != m2.shape:
        raise DimensionError(f"shape mismatch: {m1.shape} vs {m2.shape}")
    sq = (m1 - m2) ** 2
    return float(sq.sum()), sq


def orthogonality_defect(mat) -> float:
    """||I - M M^T||_F^2; zero exactly when M is orthogonal."""
    mat = np.asarray(mat, dtype=np.float64)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise DimensionError(f"orthogonality defect needs a square matrix, got {mat.shape}")
    eye = np.eye(mat.shape[0])
    return float(((eye - mat @ mat.T) ** 2).sum())


@dataclass
class HomogeneityReport:
    """Distances between transitions fitted at shifted starts of one orbit."""

    distances: list[float]
    mean: float
    max: float
    base_norm: float

    @property
    def relative_mean(self) -> float:
        return self.mean / self.base_norm if self.base_norm > 0 else float("inf")

    def to_dict(self) -> dict:
        return {"kind": "homogeneity", "distances": self.distances, "mean": self.mean,
                "max": self.max, "base_norm": self.base_norm,
                "relative_mean": self.relative_mean}


def homogeneity_check(model, probe: SequenceBatch, T_c: int = 2) -> HomogeneityReport:
    """Compare transitions fitted at different offsets along one orbit.

    The probe must come from ``make_orbit_probe``: sequence l starts l
    steps further along the same orbit with the same hidden velocity. A
    transition map constant on orbits gives all distances zero.
    """
    mats = fitted_transitions(model, probe.observations, T_c)
    base = mats[0]
    distances = [float(np.linalg.norm(base - mats[ell])) for ell in range(1, len(mats))]
    return HomogeneityReport(distances=distances,
                             mean=float(np.mean(distances)),
                             max=float(np.max(distances)),
                             base_norm=float(np.linalg.norm(base)))


# ---------------------------------------------------------------------------
# spectra


def canonical_spectrum(mat) -> np.ndarray:
    """Eigenvalues sorted lexicographically by (real, imaginary) part.

    Real input matrices give exactly conjugate complex pairs, so the sort
    is a total order; ties inside a conjugate pair resolve by the sign of
    the imaginary part.
    """
    mat = np.asarray(mat, dtype=np.float64)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise DimensionError(f"spectrum needs a square matrix, got {mat.shape}")
    try:
        eig = np.linalg.eigvals(mat)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"eigensolver did not converge: {exc}") from exc
    order = np.lexsort((eig.imag, eig.real))
    return eig[order]


def spectrum_distance(m1, m2) -> float:
    """Sum of moduli of differences between canonically sorted spectra."""
    s1 = canonical_spectrum(m1)
    s2 = canonical_spectrum(m2)
    if s1.shape != s2.shape:
        raise DimensionError("spectra of different sizes")
    return float(np.abs(s1 - s2).sum())


@dataclass
class SpectrumReport:
    """Pairwise distances between eigenvalue multisets of a family."""

    pairs: list[tuple[int, int, float]]
    mean: float | None
    max: float | None

    def to_dict(self) -> dict:
        return {"kind": "spectrum",
                "pairs": [[i, j, d] for i, j, d in self.pairs],
                "mean": self.mean, "max": self.max}


def spectrum_similarity(mats) -> SpectrumReport:
    """All-pairs spectrum distances; empty pair set for a singleton."""
    mats = [np.asarray(m, dtype=np.float64) for m in mats]
    for m in mats:
        if m.shape != mats[0].shape:
            raise DimensionError("transition matrices differ in size")
    spectra = [canonical_spectrum(m) for m in mats]
    pairs = []
    for i in range(len(mats)):
        for j in range(i + 1, len(mats)):
            pairs.append((i, j, float(np.abs(spectra[i] - spectra[j]).sum())))
    if not pairs:
        return SpectrumReport(pairs=[], mean=None, max=None)
    dists = [d for _, _, d in pairs]
    return SpectrumReport(pairs=pairs, mean=float(np.mean(dists)), max=float(np.max(dists)))


def paired_spectrum_distances(model, paired: PairedBatch, T_c: int = 2) -> list[float]:
    """Spectrum distance between same-motion, different-orbit transitions."""
    mats_a = fitted_transitions(model, paired.first.observations, T_c)
    mats_b = fitted_transitions(model, paired.second.observations, T_c)
    return [spectrum_distance(a, b) for a, b in zip(mats_a, mats_b)]


# ---------------------------------------------------------------------------
# linear probe


def regress_transition_params(mats, targets, *, seed: int = 0,
                              ridge: float = 1e-6) -> list[float | None]:
    """1 - R^2 of ridge regression from flattened transitions to targets.

    Fits on a seeded 80% split and scores each target column on the held
    out 20%. A held-out target with (numerically) zero variance reports
    None for that column.
    """
    mats = np.asarray(mats, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    if targets.ndim == 1:
        targets = targets[:, None]
    n = mats.shape[0]
    if targets.shape[0] != n:
        raise DimensionError("targets and transition count differ")
    if n < 5:
        raise ContractError("need at least 5 samples for the 80/20 split")
    x = np.concatenate([mats.reshape(n, -1), np.ones((n, 1))], axis=1)
    perm = np.random.default_rng(mix64(seed, 71)).permutation(n)
    cut = max(1, int(round(0.8 * n)))
    train, test = perm[:cut], perm[cut:]
    xt = x[train]
    gram = xt.T @ xt + ridge * np.eye(x.shape[1])
    beta = np.linalg.solve(gram, xt.T @ targets[train])
    pred = x[test] @ beta
    out: list[float | None] = []
    for col in range(targets.shape[1]):
        y = targets[test, col]
        ss_tot = float(((y - y.mean()) ** 2).sum())
        if ss_tot < 1e-15:
            out.append(None)
            continue
        ss_res = float(((y - pred[:, col]) ** 2).sum())
        out.append(ss_res / ss_tot)
    return out


def velocity_targets(batch: SequenceBatch) -> np.ndarray:
    """(cos v_j, sin v_j) per factor, the regression probe's targets."""
    return np.concatenate([np.cos(batch.velocity), np.sin(batch.velocity)], axis=1)
