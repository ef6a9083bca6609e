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

``U`` stays orthogonal to rounding error throughout: it is the exponential
of a skew-symmetric parameter, one tape op built on the eigendecomposition
of the Hermitian iS, so the optimization is unconstrained.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
    i.e. many blocks. This is the batched loss on a one-member family, so
    the two never disagree in rounding.
    """
    if v.shape[0] != v.shape[1]:
        raise DimensionError(f"blockness_loss needs a square matrix, got {v.shape}")
    return _mean_laplacian_trace(ad.smooth_abs(v, ABS_EPS), v.shape[0])


def expm_skew(skew: Var) -> Var:
    """Matrix exponential U = exp(S) of a skew-symmetric S, as one tape op.

    With the Hermitian iS = Q diag(w) Q^H, U = Re(Q diag(e^{-iw}) Q^H) is
    orthogonal to rounding error. The backward pass is Daleckii-Krein:
    G -> Re(Q (conj(D) o (Q^H G Q)) Q^H) with the divided differences
    D_jk = e^{-i(w_j + w_k)/2} sinc((w_j - w_k)/2), exact at w_j = w_k.
    """
    if skew.shape[0] != skew.shape[1]:
        raise DimensionError(f"expm_skew needs a square matrix, got {skew.shape}")
    try:
        w, q = np.linalg.eigh(1j * skew.value)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"expm_skew eigensolver did not converge: {exc}") from exc
    qh = q.conj().T
    u = np.ascontiguousarray(((q * np.exp(-1j * w)) @ qh).real)
    dw = w[:, None] - w[None, :]
    div_diff = np.exp(-0.5j * (w[:, None] + w[None, :])) * np.sinc(dw / (2.0 * np.pi))

    def vjp(g):
        return ((q @ (div_diff.conj() * (qh @ g @ q)) @ qh).real,)

    return skew.tape._push(u, (skew.index,), vjp)


def _batched_conjugate(u: Var, stack: Var, n: int) -> Var:
    """V_i = U M_i U^T for a family stacked vertically as (count*n, n)."""
    count = stack.shape[0] // n
    uv = u.value
    sv = stack.value.reshape(count, n, n)
    out = (uv @ sv @ uv.T).reshape(count * n, n)

    def vjp(g):
        gb = g.reshape(count, n, n)
        gbt = gb.transpose(0, 2, 1)
        svt = sv.transpose(0, 2, 1)
        du = ((gb @ uv) @ svt).sum(axis=0) + ((gbt @ uv) @ sv).sum(axis=0)
        dstack = (uv.T @ gb @ uv).reshape(count * n, n)
        return du, dstack

    return u.tape._push(out, (u.index, stack.index), vjp)


def _mean_laplacian_trace(sabs: Var, n: int) -> Var:
    """Mean of n - sum_i A_ii / (d_i + DEGREE_EPS) over a stack of |V| blocks.

    ``sabs`` stacks the smoothed |V_i| vertically as (count*n, n). With
    r_i = |s_i|^2, column sums c = sum_j s_j and degrees q_i = s_i . c + eps,
    the gradient of -r_i/q_i summed over i is
    -2 s/q + (r/q^2) c^T + 1 (sum_l (r_l/q_l^2) s_l)^T.
    """
    count = sabs.shape[0] // n
    s = sabs.value.reshape(count, n, n)
    r = (s * s).sum(axis=2)
    c = s.sum(axis=1)
    q = (s @ c[:, :, None])[:, :, 0] + DEGREE_EPS
    out = np.array([[n - (r / q).sum() / count]])

    def vjp(g):
        w = r / (q * q)
        ds = (-2.0 * s / q[:, :, None] + w[:, :, None] * c[:, None, :]
              + w[:, None, :] @ s)
        return ((g[0, 0] / count) * ds.reshape(count * n, n),)

    return sabs.tape._push(out, (sabs.index,), vjp)


def _mean_blockness_batched(u: Var, stack: Var, n: int) -> Var:
    """Mean blockness loss of U M_i U^T over a family stacked as (count*n, n)."""
    v = _batched_conjugate(u, stack, n)
    return _mean_laplacian_trace(ad.smooth_abs(v, ABS_EPS), n)


def _log_special_orthogonal(u: np.ndarray) -> np.ndarray:
    """Skew-symmetric logarithm of a rotation (det +1 orthogonal) matrix."""
    w, v = np.linalg.eig(u)
    s = np.real((v * np.log(w)) @ np.linalg.inv(v))
    return (s - s.T) / 2.0


def _spectral_init(mats: list[np.ndarray], rng) -> np.ndarray | None:
    """Warm-start skew parameters from a joint eigenbasis guess.

    For a family of near-conjugated rotations, the symmetric part of any
    member is U0 diag(cos-blocks) U0^T, so the eigenvectors of a random
    symmetric combination expose the common basis up to within-block
    rotation. Returns None if the exp/log round trip is poor (e.g.
    eigenvalue clustering), in which case the caller falls back to a
    random start.
    """
    n = mats[0].shape[0]
    coeffs = rng.normal(size=len(mats))
    combo = sum(c * (m + m.T) for c, m in zip(coeffs, mats))
    _, q = np.linalg.eigh(combo)
    u0 = q.T
    if np.linalg.det(u0) < 0:
        u0 = u0.copy()
        u0[0] *= -1.0
    skew = _log_special_orthogonal(u0)
    iu = np.triu_indices(n, k=1)
    p = skew[iu].reshape(-1, 1)
    tape = ad.Tape()
    rebuilt = expm_skew(skew_from_params(tape, tape.input(p), n))
    if np.abs(rebuilt.value - u0).max() > 1e-8:
        return None
    return p


def skew_from_params(tape, params: Var, n: int) -> Var:
    """Assemble an n x n skew-symmetric matrix from n(n-1)/2 parameters."""
    count = n * (n - 1) // 2
    if params.shape != (count, 1):
        raise DimensionError(f"expected ({count}, 1) parameters, got {params.shape}")
    rows, cols = np.triu_indices(n, k=1)
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

    def block_of(self, coord: int) -> int:
        for b, members in enumerate(self.blocks):
            if coord in members:
                return b
        raise ContractError(f"coordinate {coord} not covered")

    def sizes(self) -> list[int]:
        return sorted(len(b) for b in self.blocks)

    def to_dict(self) -> dict:
        return {"kind": "blocks", "blocks": [list(b) for b in self.blocks],
                "threshold": self.threshold}


@dataclass
class SbdResult:
    """Orthogonal change of basis with its loss history and blocks."""

    u: np.ndarray
    skew_param: np.ndarray
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
        return {"kind": "sbd", "u": self.u.tolist(),
                "skew_param": self.skew_param.ravel().tolist(),
                "loss_history": self.loss_history,
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
            threshold: float = 0.01, init_scale: float = 0.6,
            restarts: int = 4) -> SbdResult:
    """Optimize the orthogonal basis that block-diagonalizes a family.

    Runs Adam on the skew parameters of U against the mean blockness
    loss of U M_i U^T, restarting from ``restarts`` seeded initial points
    (the landscape has merged-block local minima); the learning rate
    drops 3x for the last 40% of each restart to settle the endgame. The
    recorded history is the running best across everything tried, so it
    is non-increasing, and the returned U is the best-loss iterate.

    Raises:
        ContractError: if there is no transition, or ``iters`` or
            ``restarts`` is below 1.
        NumericError: if the loss turns non-finite, naming the iterate.
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
    stacked = np.concatenate(mats, axis=0)
    count = n * (n - 1) // 2
    rng = np.random.default_rng(mix64(seed, 101))
    decay_from = int(0.6 * iters)
    best_loss = math.inf
    best_p = None
    best_u = None
    history: list[float] = []
    for restart in range(restarts):
        if restart == 0 and init_scale == 0.0:
            p = np.zeros((count, 1))
        elif restart == 0:
            p = _spectral_init(mats, rng)
            if p is None:
                p = rng.normal(0.0, init_scale, size=(count, 1))
        else:
            p = rng.normal(0.0, init_scale, size=(count, 1))
        adam = AdamState(["p"], [(count, 1)], lr=lr)
        for it in range(iters):
            adam.lr = lr if it < decay_from else 0.3 * lr
            tape = ad.Tape()
            pv = tape.input(p)
            u = expm_skew(skew_from_params(tape, pv, n))
            loss = _mean_blockness_batched(u, tape.input(stacked), n)
            loss_val = float(loss.value[0, 0])
            if not math.isfinite(loss_val):
                raise NumericError(
                    f"blockness loss became non-finite at iterate {it} "
                    f"of restart {restart}"
                )
            if loss_val < best_loss:
                best_loss = loss_val
                best_p = p.copy()
                best_u = u.value.copy()
            history.append(best_loss)
            tape.backward(loss)
            adam_step(adam, {"p": p}, {"p": tape.grad(pv)})
    v_best = [best_u @ m @ best_u.T for m in mats]
    blocks = detect_blocks(v_best, threshold=threshold)
    return SbdResult(u=best_u, skew_param=best_p, loss_history=history, blocks=blocks)


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
