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

The objective over a family M_0 .. M_{c-1} is a plain forward and
gradient pair, ``mean_blockness_np`` and ``mean_blockness_grad``. It reads
the members laid side by side, so both conjugation products V_i = U M_i U^T
are single GEMMs, and it forms the smoothed |V_i| and the mean trace in
the same pass. The gradient maps the gradient G_i in each V_i to
dM_i = U^T G_i U and dU = sum_i G_i U M_i^T + G_i^T U M_i, where each sum
over the family is one (n, c*n) x (c*n, n) GEMM, and forms dM_i only when
asked. Nothing in it assumes U^T U = I, so the gradient holds for a
general U. ``_mean_blockness_batched`` and ``blockness_loss`` wrap the
pair as one tape node.

``fit_sbd`` starts from orthogonal bases U0: a spectral guess, then
seeded random bases. Each start optimizes U = R U0 over orthogonal R,
from R = I, by a Cayley retraction on the current iterate (Wen & Yin,
Math. Prog. 2013). At R the gradient in X of the loss at (I + X) R is
Omega = dR R^T; its projection onto the skew matrices, Omega - Omega^T, is
fed to Adam, whose step D from zero is exactly skew: Adam acts on each
entry alone with an update odd in its gradient, so an entry and its mirror
take exactly opposite steps and the diagonal never moves. Then
R <- (I - D/2)^{-1} (I + D/2) R, one n x n solve; the Cayley factor of a
skew D is orthogonal, so R stays orthogonal to rounding error and no
eigensolver, complex array or matrix exponential is formed after the
spectral start. ``expm_skew_np`` and its Daleckii-Krein gradient
``expm_skew_grad`` (``expm_skew`` as a tape op) remain for the tape and
its tests; the fit does not call them. The graph of an iteration never
changes, so the fit records no tape: it calls the loss's forward and
gradient in turn, and writes the family-sized temporaries into buffers
allocated once per fit, with the same operands in the same order as the
tape ops, so both give the same bits. The family is checked once per
fit, then conjugated by U0 and laid side by side once per start, and its
gradient is never formed. Only U is reported.
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
    if len(v.shape) != 2 or v.shape[0] != v.shape[1]:
        raise DimensionError(f"abs_adjacency needs a square matrix, got {v.shape}")
    sabs = ad.smooth_abs(v, ABS_EPS)
    return ad.matmul(sabs, ad.transpose(sabs))


def normalized_laplacian(adj: Var) -> Var:
    """I - D^{-1/2} A D^{-1/2} with an epsilon guard on the degrees."""
    if len(adj.shape) != 2 or adj.shape[0] != adj.shape[1]:
        raise DimensionError(f"normalized_laplacian needs a square matrix, got {adj.shape}")
    n = adj.shape[0]
    tape = adj.tape
    ones = tape.input(np.ones((n, 1)), grad=False)
    eps = tape.input(np.full((n, 1), DEGREE_EPS), grad=False)
    degrees = ad.add(ad.matmul(adj, ones), eps)
    dinv_sqrt = ad.rsqrt(degrees)
    outer = ad.matmul(dinv_sqrt, ad.transpose(dinv_sqrt))
    return ad.sub(tape.input(np.eye(n), grad=False), ad.hadamard(adj, outer))


def blockness_loss(v: Var) -> Var:
    """Trace norm of the Laplacian of A(V), which is its trace n - sum A_ii/d_i.

    Low values mean little adjacency weight crosses between coordinates,
    i.e. many blocks. This is the batched loss on a one-member family
    with U = I, so the two never disagree in rounding; that U is a
    constant, so no dU is formed.
    """
    if len(v.shape) != 2 or v.shape[0] != v.shape[1]:
        raise DimensionError(f"blockness_loss needs a square matrix, got {v.shape}")
    n = v.shape[0]
    return _mean_blockness_batched(v.tape.input(np.eye(n), grad=False), v, n)


def expm_skew_np(skew: np.ndarray) -> tuple[np.ndarray, tuple]:
    """Matrix exponential U = exp(S) of a skew-symmetric S, and the
    eigendecomposition ``expm_skew_grad`` reads.

    With the Hermitian iS = Q diag(w) Q^H, U = Re(Q diag(e^{-iw}) Q^H) is
    orthogonal to rounding error.

    Raises:
        NumericError: if the eigensolver does not converge.
    """
    try:
        w, q = np.linalg.eigh(1j * skew)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"expm_skew eigensolver did not converge: {exc}") from exc
    qh = q.conj().T
    return np.ascontiguousarray(((q * np.exp(-1j * w)) @ qh).real), (w, q, qh)


def expm_skew_grad(eig: tuple, g: np.ndarray) -> np.ndarray:
    """Gradient in S of a loss whose gradient in U = exp(S) is G, by
    Daleckii-Krein: G -> Re(Q (conj(D) o (Q^H G Q)) Q^H) with the divided
    differences D_jk = e^{-i(w_j + w_k)/2} sin(h_jk) / h_jk,
    h_jk = (w_j - w_k)/2, which is e^{-iw_j} at w_j = w_k. ``eig`` is the
    second value of ``expm_skew_np``."""
    w, q, qh = eig
    half = 0.5 * (w[:, None] - w[None, :])
    sinc = np.divide(np.sin(half), half, out=np.ones_like(half), where=half != 0.0)
    phase = np.exp(0.5j * w)
    div_diff_conj = (phase[:, None] * phase[None, :]) * sinc
    return (q @ (div_diff_conj * (qh @ g @ q)) @ qh).real


def expm_skew(skew: Var) -> Var:
    """``expm_skew_np`` as one tape op, with ``expm_skew_grad`` as its VJP."""
    if len(skew.shape) != 2 or skew.shape[0] != skew.shape[1]:
        raise DimensionError(f"expm_skew needs a square matrix, got {skew.shape}")
    u, eig = expm_skew_np(skew.value)
    return skew.tape._push(u, (skew.index,), lambda g: (expm_skew_grad(eig, g),))


def _side_by_side(stack: np.ndarray) -> np.ndarray:
    """Lay a (count, n, n) family out as the (n * count, n) array whose row
    k * count + i is row k of member i: the layout ``mean_blockness_np``
    reads. A one-member family is its member."""
    count, n, _ = stack.shape
    return stack.transpose(1, 0, 2).reshape(n * count, n)


class BlocknessBuffers:
    """The arrays one evaluation of the mean blockness loss of ``count``
    n x n members writes, and its gradient reads: ``mean_blockness_np``
    fills them with ``out=``, so a fit allocates them once."""

    def __init__(self, n: int, count: int):
        self.n, self.count = n, count
        self.ones = np.ones(n)
        self.ut = np.empty((n, n))
        # w_side[k, i, b] = (M_i U^T)[k, b] and v[a, i, b] = V_i[a, b]; each
        # (n, count, n) array also has its (n, count*n) view, named *_wide
        self.w_side = np.empty((n * count, n))
        self.v, self.v_sq, self.s, self.work = (np.empty((n, count, n)) for _ in range(4))
        self.w_wide, self.v_wide, self.work_wide = (
            x.reshape(n, count * n) for x in (self.w_side, self.v, self.work))
        self.r, self.q = np.empty((n, count)), np.empty((n, count))
        self.c, self.e = np.empty((count, n)), np.empty((count, n))
        # the per-row factors w and 2 scale / q of the gradient
        self.factors = np.empty((2, n, count))
        # z[k, i, b] = (U^T G_i)[k, b], and its (n * count, n) view
        self.z = np.empty((n, count * n))
        self.z_side = self.z.reshape(n * count, n)


def mean_blockness_np(u: np.ndarray, side: np.ndarray, buf: BlocknessBuffers) -> float:
    """Mean blockness loss of V_i = U M_i U^T over a family laid side by side.

    ``side`` is the (n * count, n) layout of ``_side_by_side``, read as the
    (n, count*n) matrix [M_0 ... M_{count-1}] after a product with U^T, so
    the conjugation is two GEMMs. With s = smoothed |V|, row energies
    r_a = |s_a|^2, column sums c = sum_a s_a and degrees q_a = s_a . c + eps,
    the loss is n - mean_i sum_a r_a / q_a. ``buf`` keeps what
    ``mean_blockness_grad`` reads.
    """
    np.copyto(buf.ut, u.T)  # a transposed operand makes these small GEMMs ~2x slower
    np.matmul(side, buf.ut, out=buf.w_side)
    np.matmul(u, buf.w_wide, out=buf.v_wide)
    v = buf.v
    v_sq = np.multiply(v, v, out=buf.v_sq)
    v_sq += ABS_EPS * ABS_EPS
    s = np.sqrt(v_sq, out=buf.s)
    np.matmul(v_sq, buf.ones, out=buf.r)
    np.sum(s, axis=0, out=buf.c)
    np.matmul(np.multiply(s, buf.c, out=buf.work), buf.ones, out=buf.q)
    buf.q += DEGREE_EPS
    return float(buf.n - (buf.r / buf.q).sum() / buf.count)


def mean_blockness_grad(u: np.ndarray, side: np.ndarray, buf: BlocknessBuffers,
                        scale: float, *, need_u: bool = True, need_side: bool = False):
    """Gradients (dU, d side) of g times the loss that ``mean_blockness_np``
    last wrote into ``buf``, for the same U and side, with ``scale`` = g / count.

    With w = scale r / q^2 and e = sum_a w_a s_a the gradient in V_i is
    G_i = V o ((w c^T + 1 e^T) / s - 2 scale / q); then
    dM_i = U^T G_i U comes back in ``side``'s layout and
    dU = sum_i G_i (M_i U^T)^T + (U^T G_i)^T M_i, each sum over the family
    one (n, count*n) x (count*n, n) GEMM. A gradient not asked for is None
    and is not formed.
    """
    n, count = buf.n, buf.count
    v, s, c = buf.v, buf.s, buf.c
    w, d = buf.factors
    np.multiply(scale, buf.r, out=w)
    w /= np.multiply(buf.q, buf.q, out=d)  # scale r / q^2
    np.divide(2.0 * scale, buf.q, out=d)
    # each factor repeated along the trailing axis: a product broadcasting
    # a length-1 axis there runs n elements at a time, ~2x slower
    w, d = np.repeat(buf.factors, n).reshape(2, n, count, n)
    e = np.sum(np.multiply(w, s, out=buf.work), axis=0, out=buf.e)
    gv = np.multiply(w, c, out=buf.work)
    gv += e
    gv /= s
    gv -= d
    np.multiply(v, gv, out=gv)
    g_wide, z_side = buf.work_wide, buf.z_side
    np.matmul(buf.ut, g_wide, out=buf.z)
    du = g_wide @ buf.w_wide.T + z_side.T @ side if need_u else None
    return du, z_side @ u if need_side else None


def _mean_blockness_batched(u: Var, side: Var, n: int) -> Var:
    """``mean_blockness_np`` as one tape node, with ``mean_blockness_grad``
    as its VJP; a constant U or family gets no gradient product. Nothing
    in it assumes U^T U = I, so the gradient holds for a general U."""
    count = side.shape[0] // n
    buf = BlocknessBuffers(n, count)
    uv, m_side = u.value, side.value
    out = np.array([[mean_blockness_np(uv, m_side, buf)]])
    need_u, need_side = not u.constant, not side.constant

    def vjp(g):
        return mean_blockness_grad(uv, m_side, buf, g[0, 0] / count,
                                   need_u=need_u, need_side=need_side)

    return u.tape._push(out, (u.index, side.index), vjp)


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
    linked = np.maximum(energy, energy.T) > threshold * energy.max()
    np.fill_diagonal(linked, True)
    # each coordinate takes its neighbours' smallest label until none
    # changes; then every component is labelled by its smallest member
    labels = np.arange(n)
    while True:
        spread = np.where(linked, labels, n).min(axis=1)
        if np.array_equal(spread, labels):
            break
        labels = spread
    blocks = [tuple(np.flatnonzero(labels == root).tolist()) for root in np.unique(labels)]
    return BlockStructure(blocks=blocks, threshold=threshold)


def fit_sbd(transitions, iters: int = 1000, lr: float = 0.05, seed: int = 0, *,
            threshold: float = 0.01, restarts: int = 4) -> SbdResult:
    """Optimize the orthogonal basis that block-diagonalizes a family.

    Each of the ``restarts`` starts is an orthogonal basis U0: the first
    is the spectral guess of ``_spectral_basis``, the others are seeded
    random bases (the landscape has merged-block local minima). A start
    conjugates the family by U0 once, then runs Adam against the mean
    blockness loss of U M_i U^T with U = R U0, from R = I: each iteration
    takes one Adam step D from zero on the skew projection of the
    gradient dR R^T and moves R by the Cayley factor
    (I - D/2)^{-1} (I + D/2). The learning rate drops 3x for the last 40%
    of each start to settle the endgame. The recorded history is the
    running best across everything tried, so it is non-increasing, and
    the returned U is the best-loss iterate R U0.

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
    rng = np.random.default_rng(mix64(seed, 101))
    decay_from = int(0.6 * iters)
    buf = BlocknessBuffers(n, len(mats))
    scale = 1.0 / len(mats)  # the loss's own gradient, 1, over the count
    eye = np.eye(n)
    grad, delta = np.empty((n, n)), np.empty((n, n))
    best_loss = math.inf
    best_u = None
    history: list[float] = []
    for restart in range(restarts):
        u0 = (_spectral_basis(mats, rng) if restart == 0
              else np.linalg.qr(rng.normal(size=(n, n)))[0])
        # (R U0) M (R U0)^T = R (U0 M U0^T) R^T: the family enters conjugated
        conjugated = _side_by_side(u0 @ family @ u0.T)
        rot = eye
        adam = AdamState(["delta"], [(n, n)], lr=lr)
        params, grads = {"delta": delta}, {"delta": grad}
        for it in range(iters):
            adam.lr = lr if it < decay_from else 0.3 * lr
            loss = mean_blockness_np(rot, conjugated, buf)
            if not math.isfinite(loss):
                raise NumericError(
                    f"blockness loss became non-finite at iterate {it} "
                    f"of restart {restart}"
                )
            if loss < best_loss:
                best_loss = loss
                best_u = rot @ u0
            history.append(best_loss)
            du, _ = mean_blockness_grad(rot, conjugated, buf, scale)
            # the gradient in X of the loss at (I + X) R, projected onto
            # skew matrices: Adam's step from zero is then exactly skew
            omega = du @ rot.T
            np.subtract(omega, omega.T, out=grad)
            delta.fill(0.0)
            adam_step(adam, params, grads)
            # the Cayley factor (I - D/2)^{-1} (I + D/2) of a skew D is orthogonal
            delta *= 0.5
            rot = np.linalg.solve(eye - delta, (eye + delta) @ rot)
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
