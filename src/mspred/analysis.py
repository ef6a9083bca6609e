"""Post-hoc measurements on trained models.

Everything here is gradient-free and pure: equivariance error (how well a
transition fitted on one sequence predicts another sequence with the same
hidden motion), intra-orbit homogeneity, spectra of the transition
family, orthogonality, and a linear probe regressing the hidden
transition parameters from the fitted operators.

The prediction routines call ``model.fit_np``, which runs the training
loss's own estimator on a scratch tape, then ``model.predict_np``, which
forms the training rollout's own products forward-only, so their numbers
coincide with the tape loss on identical inputs. Each batch is fitted
once; cross-sequence predictions pair one batch's operators with another
batch's latents.

Every section reads a model through its default estimator
(``model.default_transition``: the neural head if it has one, else the
first-order least-squares fit). A caller that already fitted a paired
batch passes ``paired_fits`` to ``equivariance_error`` and the operators
to ``spectrum_distances`` instead of fitting again; ``mspred eval`` does
so with one paired batch whose first ``pair_count`` pairs score
equivariance and whose first ``spectrum_pairs`` give the spectra.
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


def paired_fits(model, paired: PairedBatch, T_c: int) -> tuple[mm.TransitionFit,
                                                                 mm.TransitionFit]:
    """``fit_np`` of both sides of a paired batch, with the model's default
    estimator (``model.default_transition``): one fit per side."""
    return (mm.fit_np(model, paired.first.observations, T_c),
            mm.fit_np(model, paired.second.observations, T_c))


def equivariance_error(model, paired: PairedBatch, T_c: int, T_p: int, *,
                       fits: tuple[mm.TransitionFit, mm.TransitionFit] | None = None,
                       ) -> EquivarianceReport:
    """Score transitions fitted on one batch against its paired partner.

    ``lp`` predicts each partner sequence with its own fitted transition;
    ``lp_equiv`` predicts it with the transition fitted on the sequence
    that shares its hidden motion. Transitions come from the model's
    neural head if it has one, else from the least-squares fit: the
    ``paired_fits`` of the batch, or ``fits`` when the caller already
    made them. The ratio is None when the baseline is below the
    floating-point floor.
    """
    count = paired.second.num_sequences
    if paired.first.num_sequences != count:
        raise ContractError("paired batches differ in length")
    first, own = fits if fits is not None else paired_fits(model, paired, T_c)
    if first.last.shape[0] != count or own.last.shape[0] != count:
        raise ContractError("fits and paired batch differ in length")
    cross = replace(own, op=first.op)
    targets = paired.second.observations
    lp = _prediction_error(mm.predict_np(model, own, T_p), targets, T_c)
    lp_equiv = _prediction_error(mm.predict_np(model, cross, T_p), targets, T_c)
    ratio = (lp_equiv / lp) if lp >= RATIO_FLOOR else None
    return EquivarianceReport(lp=lp, lp_equiv=lp_equiv, ratio=ratio, sample_count=count)


def orthogonality_defect(mat) -> float | np.ndarray:
    """||I - M M^T||_F^2; zero exactly when M is orthogonal.

    A square matrix gives a float; a (..., n, n) stack gives the array of
    its per-matrix defects, each equal bit for bit to the 2-D call.
    """
    mat = np.asarray(mat, dtype=np.float64)
    if mat.ndim < 2 or mat.shape[-1] != mat.shape[-2]:
        raise DimensionError(f"orthogonality defect needs square matrices, got {mat.shape}")
    eye = np.eye(mat.shape[-1])
    defects = ((eye - mat @ mat.swapaxes(-1, -2)) ** 2).sum(axis=(-2, -1))
    return float(defects) if mat.ndim == 2 else defects


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
    mats = mm.fit_np(model, probe.observations, T_c).op
    base = mats[0]
    distances = [float(np.linalg.norm(base - mats[ell])) for ell in range(1, len(mats))]
    return HomogeneityReport(distances=distances,
                             mean=float(np.mean(distances)),
                             max=float(np.max(distances)),
                             base_norm=float(np.linalg.norm(base)))


# ---------------------------------------------------------------------------
# spectra


def canonical_spectrum(mats) -> np.ndarray:
    """Eigenvalues sorted lexicographically by (real, imaginary) part.

    Accepts one (n, n) matrix or a (..., n, n) stack, which takes one
    eigensolver call and sorts each spectrum along the last axis. Real
    input matrices give exactly conjugate complex pairs, so the sort is a
    total order; ties inside a conjugate pair resolve by the sign of the
    imaginary part.
    """
    mats = np.asarray(mats, dtype=np.float64)
    if mats.ndim < 2 or mats.shape[-1] != mats.shape[-2]:
        raise DimensionError(f"spectrum needs square matrices, got {mats.shape}")
    try:
        eig = np.linalg.eigvals(mats)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"eigensolver did not converge: {exc}") from exc
    order = np.lexsort((eig.imag, eig.real), axis=-1)
    return np.take_along_axis(eig, order, axis=-1)


def spectrum_distances(m1, m2) -> np.ndarray:
    """Sum of moduli of differences between canonically sorted spectra, one
    per matrix pair of two equally shaped stacks; one eigensolver call."""
    m1 = np.asarray(m1, dtype=np.float64)
    m2 = np.asarray(m2, dtype=np.float64)
    if m1.shape != m2.shape:
        raise DimensionError(f"spectra of different sizes: {m1.shape} vs {m2.shape}")
    s1, s2 = canonical_spectrum(np.stack([m1, m2]))
    return np.abs(s1 - s2).sum(axis=-1)


def spectrum_distance(m1, m2) -> float:
    """Sum of moduli of differences between canonically sorted spectra."""
    return float(spectrum_distances(m1, m2))


def paired_spectrum_distances(model, paired: PairedBatch, T_c: int = 2) -> list[float]:
    """Spectrum distance between same-motion, different-orbit transitions."""
    first, second = paired_fits(model, paired, T_c)
    return spectrum_distances(first.op, second.op).tolist()


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
