"""Simultaneous block-diagonalization of a family of transition operators.

A family of matrices sharing a common block structure in some orthogonal
basis is uncovered by minimizing a graph-spectral surrogate: view the
conjugated matrix V = U M U^T as a weighted graph through the adjacency
A = abs(V) abs(V)^T and form its symmetrically normalized Laplacian
L = I - D^{-1/2} A D^{-1/2}. The kernel dimension of L counts the
connected components of A's graph, i.e. the blocks of V, and the loss is
L's trace norm, the convex surrogate of its rank.

That trace norm is L's trace. A is entrywise nonnegative, so
D^{-1/2} A D^{-1/2} is similar to D^{-1} A, whose rows are nonnegative and
sum to at most 1; its eigenvalues lie in [-1, 1] and the symmetric L is
positive semidefinite. Hence ||L||_* = tr L = n - sum_i A_ii / d_i
= sum_i sum_{j != i} A_ij / d_i, the share of each coordinate's adjacency
weight that couples it to other coordinates. With s = abs(V) this needs
only row norms and degrees, A_ii = |s_i|^2 and d_i = s_i . sum_j s_j, so
no Gram matrix or eigensolver is formed.

The objective over a family M_0 .. M_{c-1} is one tape node. It lays the
members side by side, so both conjugation products V_i = U M_i U^T are
single GEMMs, and it forms the smoothed |V_i| and the mean trace in the
same pass. Its VJP maps the gradient G_i in each V_i to
dM_i = U^T G_i U and dU = sum_i G_i U M_i^T + G_i^T U M_i, where each sum
over the family is one (n, c*n) x (c*n, n) GEMM. Nothing in it assumes
U^T U = I, so the gradient holds for a general U.

``fit_sbd`` starts from orthogonal bases U0, not from points in skew
coordinates: a spectral guess, then seeded random bases. It optimizes
U = exp(S) U0 with S skew-symmetric and zero at the start, so ``U`` stays
orthogonal to rounding error and the optimization is unconstrained; the
exponential is one tape op built on the eigendecomposition of the
Hermitian iS. The family is checked once per fit and conjugated by U0
once per start, and that array enters every iteration's tape as a view,
so an iteration's tape holds five nodes. Only U is reported: S alone no
longer determines it, so ``sbd_result.json`` carries no skew parameter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import autodiff as ad
from .autodiff import Var
from .datagen import mix64
from .errors import ContractError, DimensionError, NumericError
from .training import AdamState, adam_step

ABS_EPS = 1e-12      # smoothing of |x| inside the adjacency
DEGREE_EPS = 1e-10   # guard added to every degree


def abs_adjacency(v: Var) -> Var:
    """Adjacency A = abs(V) abs(V)^T with smoothed absolute value."""
    if v.shape[0] != v.shape[1]:
        raise DimensionError(f"abs_adjacency needs a square matrix, got {v.shape}")
    sabs = ad.smooth_abs(v, ABS_EPS)
    return ad.matmul(sabs, ad.transpose(sabs))


def normalized_laplacian(adj: Var) -> Var:
    """I - D^{-1/2} A D^{-1/2} with an epsilon guard on the degrees."""
    if adj.shape[0] != adj.shape[1]:
        raise DimensionError(f"normalized_laplacian needs a square matrix, got {adj.shape}")
    n = adj.shape[0]
    tape = adj.tape
    ones = tape.input(np.ones((n, 1)))
    degrees = ad.add(ad.matmul(adj, ones), tape.input(np.full((n, 1), DEGREE_EPS)))
    dinv_sqrt = ad.rsqrt(degrees)
    outer = ad.matmul(dinv_sqrt, ad.transpose(dinv_sqrt))
    return ad.sub(tape.input(np.eye(n)), ad.hadamard(adj, outer))


def blockness_loss(v: Var) -> Var:
    """Trace norm of the Laplacian of A(V), which is its trace n - sum A_ii/d_i.

    Low values mean little adjacency weight crosses between coordinates,
    i.e. many blocks. This is the batched loss on a one-member family
    with U = I, so the two never disagree in rounding.
    """
    if v.shape[0] != v.shape[1]:
        raise DimensionError(f"blockness_loss needs a square matrix, got {v.shape}")
    n = v.shape[0]
    return _mean_blockness_batched(v.tape.input(np.eye(n)), v, n)


def expm_skew(skew: Var) -> Var:
    """Matrix exponential U = exp(S) of a skew-symmetric S, as one tape op.

    With the Hermitian iS = Q diag(w) Q^H, U = Re(Q diag(e^{-iw}) Q^H) is
    orthogonal to rounding error. The backward pass is Daleckii-Krein:
    G -> Re(Q (conj(D) o (Q^H G Q)) Q^H) with the divided differences
    D_jk = e^{-i(w_j + w_k)/2} sin(h_jk) / h_jk, h_jk = (w_j - w_k)/2,
    which is e^{-iw_j} at w_j = w_k.
    """
    if skew.shape[0] != skew.shape[1]:
        raise DimensionError(f"expm_skew needs a square matrix, got {skew.shape}")
    try:
        w, q = np.linalg.eigh(1j * skew.value)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"expm_skew eigensolver did not converge: {exc}") from exc
    qh = q.conj().T
    u = np.ascontiguousarray(((q * np.exp(-1j * w)) @ qh).real)

    def vjp(g):
        half = 0.5 * (w[:, None] - w[None, :])
        sinc = np.divide(np.sin(half), half, out=np.ones_like(half), where=half != 0.0)
        phase = np.exp(0.5j * w)
        div_diff_conj = (phase[:, None] * phase[None, :]) * sinc
        return ((q @ (div_diff_conj * (qh @ g @ q)) @ qh).real,)

    return skew.tape._push(u, (skew.index,), vjp)


def _mean_blockness_batched(u: Var, stack: Var, n: int) -> Var:
    """Mean blockness loss of V_i = U M_i U^T over a family stacked as (count*n, n).

    One tape node. Every member is laid side by side, as the (n, count*n)
    matrix [V_0 ... V_{count-1}], so the conjugation and the sums over
    the family in the VJP are single GEMMs. With s = smoothed |V|, row
    energies r_a = |s_a|^2, column sums c = sum_a s_a and degrees
    q_a = s_a . c + eps, the loss is n - mean_i sum_a r_a / q_a, and
    with w = r / q^2 and e = sum_a w_a s_a its gradient in V_i is
    G_i = (-2 V / q + (V / s) o (w c^T + 1 e^T)) / count.
    """
    count = stack.shape[0] // n
    uv = u.value
    ut = uv.T.copy()  # a transposed operand makes these small GEMMs ~2x slower
    # side by side: m_side[k, i, l] = M_i[k, l], w_side[k, i, b] = (M_i U^T)[k, b]
    # and v[a, i, b] = V_i[a, b]
    m_side = stack.value.reshape(count, n, n).transpose(1, 0, 2).reshape(n * count, n)
    w_side = m_side @ ut
    v = (uv @ w_side.reshape(n, count * n)).reshape(n, count, n)
    v_sq = v * v + ABS_EPS * ABS_EPS
    s = np.sqrt(v_sq)
    ones = np.ones(n)
    r = v_sq @ ones
    c = s.sum(axis=0)
    q = (s * c) @ ones + DEGREE_EPS
    out = np.array([[n - (r / q).sum() / count]])

    def vjp(g):
        scale = g[0, 0] / count
        w = (scale * r) / (q * q)
        e = (w[:, :, None] * s).sum(axis=0)
        gv = v * ((w[:, :, None] * c + e) / s - (2.0 * scale) / q[:, :, None])
        g_side = gv.reshape(n, count * n)
        # z_side[k, i, b] = (U^T G_i)[k, b]
        z_side = (ut @ g_side).reshape(n * count, n)
        # dU = sum_i G_i (M_i U^T)^T + (U^T G_i)^T M_i
        du = g_side @ w_side.reshape(n, count * n).T + z_side.T @ m_side
        dstack = (z_side @ uv).reshape(n, count, n).transpose(1, 0, 2)
        return du, dstack.reshape(count * n, n)

    return u.tape._push(out, (u.index, stack.index), vjp)


def _spectral_basis(mats: list[np.ndarray], rng) -> np.ndarray:
    """Guess the common basis from one random symmetric combination of the family.

    A family M_i = Q R_i Q^T of block rotations has symmetric parts
    Q diag(cos-blocks) Q^T, so the eigenvectors of a random symmetric
    combination are Q's columns up to rotation within each block. They
    are the rows of the returned U0, so U0 M_i U0^T is near block-diagonal.
    """
    coeffs = rng.normal(size=len(mats))
    combo = sum(c * (m + m.T) for c, m in zip(coeffs, mats))
    return np.linalg.eigh(combo)[1].T


@lru_cache(maxsize=None)
def _upper_indices(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Row and column indices of the strict upper triangle, read-only."""
    rows, cols = np.triu_indices(n, k=1)
    rows.flags.writeable = False
    cols.flags.writeable = False
    return rows, cols


def skew_from_params(tape, params: Var, n: int) -> Var:
    """Assemble an n x n skew-symmetric matrix from n(n-1)/2 parameters."""
    count = n * (n - 1) // 2
    if params.shape != (count, 1):
        raise DimensionError(f"expected ({count}, 1) parameters, got {params.shape}")
    rows, cols = _upper_indices(n)
    p = params.value[:, 0]
    out = np.zeros((n, n))
    out[rows, cols] = p
    out[cols, rows] = -p
    return tape._push(out, (params.index,),
                      lambda g: ((g[rows, cols] - g[cols, rows])[:, None],))


@dataclass
class BlockStructure:
    """Disjoint blocks of coordinate indices covering 0..a-1."""

    blocks: list[tuple[int, ...]]
    threshold: float

    def sizes(self) -> list[int]:
        return sorted(len(b) for b in self.blocks)

    def to_dict(self) -> dict:
        return {"kind": "blocks", "blocks": [list(b) for b in self.blocks],
                "threshold": self.threshold}


@dataclass
class SbdResult:
    """Orthogonal change of basis with its loss history and blocks."""

    u: np.ndarray
    loss_history: list[float]
    blocks: BlockStructure

    def conjugate(self, mats) -> np.ndarray:
        """Apply the change of basis: V_i = U M_i U^T."""
        mats = np.asarray(mats, dtype=np.float64)
        single = mats.ndim == 2
        if single:
            mats = mats[None]
        out = np.einsum("ij,njk,lk->nil", self.u, mats, self.u)
        return out[0] if single else out

    def to_dict(self) -> dict:
        return {"kind": "sbd", "u": self.u.tolist(), "loss_history": self.loss_history,
                "blocks": self.blocks.to_dict()}


class _UnionFind:
    def __init__(self, n):
        self.parent = list(range(n))

    def find(self, x):
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, x, y):
        rx, ry = self.find(x), self.find(y)
        if rx != ry:
            self.parent[max(rx, ry)] = min(rx, ry)


def detect_blocks(v_list, threshold: float = 0.01) -> BlockStructure:
    """Read the common block partition off a family of conjugated matrices.

    Averages abs(V - I) over the family, draws an edge (i, j) wherever
    either direction exceeds ``threshold`` times the largest averaged
    entry, and returns the connected components, each sorted, ordered by
    smallest member.
    """
    mats = [np.asarray(v, dtype=np.float64) for v in v_list]
    if not mats:
        raise ContractError("detect_blocks needs at least one matrix")
    n = mats[0].shape[0]
    for m in mats:
        if m.shape != (n, n):
            raise DimensionError("matrices differ in size")
    energy = np.mean([np.abs(m - np.eye(n)) for m in mats], axis=0)
    scale = energy.max()
    uf = _UnionFind(n)
    if scale > 0.0:
        cut = threshold * scale
        for i in range(n):
            for j in range(i + 1, n):
                if max(energy[i, j], energy[j, i]) > cut:
                    uf.union(i, j)
    groups: dict[int, list[int]] = {}
    for i in range(n):
        groups.setdefault(uf.find(i), []).append(i)
    blocks = sorted((tuple(sorted(g)) for g in groups.values()), key=lambda b: b[0])
    return BlockStructure(blocks=list(blocks), threshold=threshold)


def fit_sbd(transitions, iters: int = 1500, lr: float = 0.05, seed: int = 0, *,
            threshold: float = 0.01, restarts: int = 4) -> SbdResult:
    """Optimize the orthogonal basis that block-diagonalizes a family.

    Each of the ``restarts`` starts is an orthogonal basis U0: the first
    is the spectral guess of ``_spectral_basis``, the others are seeded
    random bases (the landscape has merged-block local minima). A start
    conjugates the family by U0 once, then runs Adam on the skew
    parameter S of U = exp(S) U0 from S = 0 against the mean blockness
    loss of U M_i U^T; the learning rate drops 3x for the last 40% of
    each start to settle the endgame. The recorded history is the
    running best across everything tried, so it is non-increasing, and
    the returned U is the best-loss iterate exp(S) U0; S itself is not
    returned, as it determines U only together with its start.

    Raises:
        ContractError: if there is no transition, or ``iters`` or
            ``restarts`` is below 1.
        NumericError: if a transition has a non-finite entry, naming the
            first such transition, or if the loss turns non-finite,
            naming the iterate.
    """
    mats = [np.asarray(m, dtype=np.float64) for m in transitions]
    if not mats:
        raise ContractError("fit_sbd needs at least one transition")
    if iters < 1 or restarts < 1:
        raise ContractError(f"fit_sbd needs iters >= 1 and restarts >= 1, "
                            f"got {iters} and {restarts}")
    n = mats[0].shape[0]
    for m in mats:
        if m.shape != (n, n):
            raise DimensionError("transitions differ in size")
    try:
        family = ad.as_matrix(np.stack(mats))
    except NumericError as exc:
        bad = next(i for i, m in enumerate(mats) if not np.isfinite(m).all())
        raise NumericError(f"transition {bad} has a non-finite entry") from exc
    count = n * (n - 1) // 2
    rng = np.random.default_rng(mix64(seed, 101))
    decay_from = int(0.6 * iters)
    best_loss = math.inf
    best_u = None
    history: list[float] = []
    for restart in range(restarts):
        u0 = (_spectral_basis(mats, rng) if restart == 0
              else np.linalg.qr(rng.normal(size=(n, n)))[0])
        # U M U^T = exp(S) (U0 M U0^T) exp(S)^T: the family enters conjugated
        conjugated = (u0 @ family @ u0.T).reshape(-1, n)
        p = np.zeros((count, 1))
        adam = AdamState(["p"], [(count, 1)], lr=lr)
        for it in range(iters):
            adam.lr = lr if it < decay_from else 0.3 * lr
            tape = ad.Tape()
            pv = tape.input(p)
            rot = expm_skew(skew_from_params(tape, pv, n))
            loss = _mean_blockness_batched(rot, tape.input_view(conjugated), n)
            loss_val = float(loss.value[0, 0])
            if not math.isfinite(loss_val):
                raise NumericError(
                    f"blockness loss became non-finite at iterate {it} "
                    f"of restart {restart}"
                )
            if loss_val < best_loss:
                best_loss = loss_val
                best_u = rot.value @ u0
            history.append(best_loss)
            tape.backward(loss)
            adam_step(adam, {"p": p}, {"p": tape.grad(pv)})
    v_best = [best_u @ m @ best_u.T for m in mats]
    blocks = detect_blocks(v_best, threshold=threshold)
    return SbdResult(u=best_u, loss_history=history, blocks=blocks)


def restrict_to_blocks(v, blocks: BlockStructure, keep) -> np.ndarray:
    """Keep selected blocks of a matrix, identity elsewhere.

    ``keep`` lists indices into ``blocks.blocks``. Entries inside kept
    blocks are copied; all other diagonal entries become 1 and all other
    off-diagonal entries become 0.
    """
    v = np.asarray(v, dtype=np.float64)
    n = v.shape[0]
    if v.shape != (n, n):
        raise DimensionError("restrict_to_blocks needs a square matrix")
    keep = list(keep)
    for b in keep:
        if not (0 <= b < len(blocks.blocks)):
            raise ContractError(f"unknown block index {b}")
    out = np.eye(n)
    for b in keep:
        idx = np.array(blocks.blocks[b])
        out[np.ix_(idx, idx)] = v[np.ix_(idx, idx)]
    return out


def assign_blocks_to_factors(block_structure: BlockStructure,
                             per_factor_vs: list[np.ndarray]) -> list[int]:
    """Match each hidden factor to the block it activates most.

    ``per_factor_vs[j]`` is the averaged abs(V - I) over sequences where
    only factor j moves; the factor is assigned to the block holding the
    largest share of that activation mass. This automates an assignment
    that would otherwise be read off heatmaps by eye.
    """
    out = []
    for energy in per_factor_vs:
        masses = []
        for members in block_structure.blocks:
            idx = np.array(members)
            masses.append(float(np.abs(energy[np.ix_(idx, idx)]).sum()))
        out.append(int(np.argmax(masses)))
    return out
