"""Reverse-mode automatic differentiation over dense float64 matrices.

A :class:`Tape` records every operation as it executes (define-by-run).
Node values are immutable float64 numpy arrays, either 2-D matrices or
batched 3-D stacks of matrices (N, rows, cols); a :class:`Var` is a
lightweight handle (tape, node index, shape). The matrix ops (``matmul``,
``transpose``, ``reshape``, ``slice_rows``, ``hcat``, ``vcat``,
``spd_inverse``, ``pinv_right``, ``lstsq_right``) act on the last two
axes, so one op runs a whole batch with the same per-matrix arithmetic as
N separate 2-D calls; the elementwise ops (``add``, ``sub``,
``hadamard``, ``scale``, ``square``, ``smooth_abs``, ``rsqrt``) and the
reductions (``reduce_sum``, ``frobenius_sq``) take any shape. ``dense`` is one MLP layer, ``x @ w + b`` and an optional
tanh, as a single node on 2-D rows. Calling :meth:`Tape.backward` on a
scalar loss runs one reverse topological sweep and fills a gradient slot
per reachable node.

Design notes, fixed once and relied on by tests:

* every forward value is checked finite; a NaN/Inf raises ``NumericError``
  naming the op that produced it (a leaf entered by ``Tape.input_view`` is
  checked by its caller instead);
* ``spd_inverse`` and ``lstsq_right`` factorize through ``cholesky_lower``
  (LAPACK's Cholesky, lower triangle only), which rejects matrices whose
  diagonal-based condition estimate exceeds ``COND_LIMIT``, each matrix
  of a batch on its own;
* ``lstsq_right(h0, h1)`` is the least-squares transition
  h1 h0^T (h0 h0^T)^{-1} as one node with a closed-form backward; it is
  the solve every model estimator uses. ``pinv_right`` stays as a
  composite of tape ops (transpose, matmul, ``spd_inverse``) that the
  gradient suite checks on its own;
* ``sym_eig`` differentiates eigenvalues only (the eigenvector matrix is
  returned as a plain array, deliberately without a gradient path);
* gradient accumulation order is the reverse of node creation order, so
  identical inputs give bit-identical gradients.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .errors import ContractError, DimensionError, NumericError, SingularityError

Array = np.ndarray

# cholesky_lower refuses matrices whose (diag L max / diag L min)^2 exceeds this.
COND_LIMIT = 1e12


def as_matrix(data) -> Array:
    """Validate and copy ``data`` into an immutable 2-D or 3-D float64 array."""
    a = np.array(data, dtype=np.float64, copy=True)
    if a.ndim == 1:
        a = a.reshape(1, -1)
    if a.ndim not in (2, 3):
        raise DimensionError(f"matrix must be 2-D or a 3-D batch, got ndim={a.ndim}")
    if not np.isfinite(a).all():
        raise NumericError("matrix construction saw a non-finite entry")
    a.flags.writeable = False
    return a


class Var:
    """Handle to one node on a tape."""

    __slots__ = ("tape", "index", "shape")

    def __init__(self, tape: "Tape", index: int, shape: tuple[int, ...]):
        self.tape = tape
        self.index = index
        self.shape = shape

    @property
    def value(self) -> Array:
        return self.tape.values[self.index]

    def __repr__(self):
        return f"Var(index={self.index}, shape={self.shape})"


class Tape:
    """Append-only operation record plus gradient slots.

    A tape is single-owner: it must not be mutated from two threads.
    ``backward`` may run once per tape; rebuild the graph on a fresh tape
    for every new gradient evaluation.
    """

    def __init__(self):
        self.values: list[Array] = []
        self.parents: list[tuple[int, ...]] = []
        self.vjps: list = []
        self.grads: list | None = None

    def _push(self, value: Array, parents=(), vjp=None) -> Var:
        value.setflags(write=False)
        self.values.append(value)
        self.parents.append(parents)
        self.vjps.append(vjp)
        return Var(self, len(self.values) - 1, value.shape)

    def input(self, data) -> Var:
        """Enter a leaf value (parameter or constant) onto the tape."""
        return self._push(as_matrix(data))

    def input_view(self, array: Array) -> Var:
        """Enter a leaf as a read-only view of ``array``, without a copy or a scan.

        The leaf aliases ``array``: the caller vouches that it is finite
        and must not write to it while the tape's values or gradients are
        still to be read.
        """
        if array.dtype != np.float64 or array.ndim not in (2, 3):
            raise ContractError(f"input_view needs a 2-D or 3-D float64 array, "
                                f"got {array.dtype} with ndim={array.ndim}")
        return self._push(array.view())

    def backward(self, loss: Var) -> None:
        """Reverse sweep from ``loss``, filling gradient slots.

        Raises:
            ContractError: if ``loss`` is not 1x1, lives on another tape,
                or backward already ran on this tape.
        """
        if self.grads is not None:
            raise ContractError("backward() already ran on this tape")
        if loss.tape is not self:
            raise ContractError("loss belongs to a different tape")
        if loss.shape != (1, 1):
            raise ContractError(f"loss must be 1x1, got {loss.shape}")
        self.grads = [None] * len(self.values)
        self.grads[loss.index] = np.ones((1, 1))
        for i in range(loss.index, -1, -1):
            g = self.grads[i]
            vjp = self.vjps[i]
            if g is None or vjp is None:
                continue
            for p, pg in zip(self.parents[i], vjp(g)):
                if pg is None:
                    continue
                if self.grads[p] is None:
                    self.grads[p] = pg
                else:
                    self.grads[p] = self.grads[p] + pg

    def grad(self, var: Var) -> Array:
        """Gradient of the last backward()'s loss w.r.t. ``var``.

        Nodes the loss does not depend on get a zero gradient.
        """
        if self.grads is None:
            raise ContractError("call backward() before grad()")
        g = self.grads[var.index]
        if g is None:
            return np.zeros(var.shape)
        return g


def _same_tape(*vars_: Var) -> Tape:
    tape = vars_[0].tape
    for v in vars_[1:]:
        if v.tape is not tape:
            raise ContractError("operands live on different tapes")
    return tape


def _mT(x: Array) -> Array:
    """Transpose of the last two axes (``ndarray.mT`` needs numpy 2)."""
    return x.swapaxes(-1, -2)


def _mT_copy(x: Array) -> Array:
    """``_mT`` as a C-contiguous copy, for the right operand of a stacked product.

    numpy runs a stacked (N, r, c) product more slowly when its right
    operand is a swapped-axes view, or when both operands view one array
    (a Gram product), than on a contiguous copy, copy included, and gives
    the same bits. A transposed left operand is as fast as a view, so a
    copy there would only add its own cost.
    """
    return np.ascontiguousarray(x.swapaxes(-1, -2))


def _finite(out: Array, op: str) -> Array:
    if not np.isfinite(out).all():
        raise NumericError(f"{op} produced a non-finite value")
    return out


# ---------------------------------------------------------------------------
# core ops


def matmul(a: Var, b: Var) -> Var:
    if a.shape[:-2] != b.shape[:-2] or a.shape[-1] != b.shape[-2]:
        raise DimensionError(f"matmul dims differ: {a.shape} @ {b.shape}")
    tape = _same_tape(a, b)
    av, bv = a.value, b.value
    out = _finite(av @ bv, "matmul")

    def vjp(g):
        # a 2-D product hands the transposed view to BLAS as it is
        return g @ (_mT(bv) if bv.ndim == 2 else _mT_copy(bv)), _mT(av) @ g

    return tape._push(out, (a.index, b.index), vjp)


def add(a: Var, b: Var) -> Var:
    if a.shape != b.shape:
        raise DimensionError(f"add shapes differ: {a.shape} vs {b.shape}")
    tape = _same_tape(a, b)
    out = _finite(a.value + b.value, "add")
    return tape._push(out, (a.index, b.index), lambda g: (g, g))


def sub(a: Var, b: Var) -> Var:
    if a.shape != b.shape:
        raise DimensionError(f"sub shapes differ: {a.shape} vs {b.shape}")
    tape = _same_tape(a, b)
    out = _finite(a.value - b.value, "sub")
    return tape._push(out, (a.index, b.index), lambda g: (g, -g))


def hadamard(a: Var, b: Var) -> Var:
    if a.shape != b.shape:
        raise DimensionError(f"hadamard shapes differ: {a.shape} vs {b.shape}")
    tape = _same_tape(a, b)
    av, bv = a.value, b.value
    out = _finite(av * bv, "hadamard")
    return tape._push(out, (a.index, b.index), lambda g: (g * bv, g * av))


def scale(a: Var, c: float) -> Var:
    c = float(c)
    out = _finite(a.value * c, "scale")
    return a.tape._push(out, (a.index,), lambda g: (g * c,))


def square(a: Var) -> Var:
    av = a.value
    out = _finite(av * av, "square")
    return a.tape._push(out, (a.index,), lambda g: (2.0 * g * av,))


def smooth_abs(a: Var, eps: float) -> Var:
    """Entrywise sqrt(x^2 + eps^2): a differentiable |x| surrogate."""
    av = a.value
    y = _finite(np.sqrt(av * av + eps * eps), "smooth_abs")
    return a.tape._push(y, (a.index,), lambda g: (g * av / y,))


def rsqrt(a: Var) -> Var:
    """Entrywise x^(-1/2); requires strictly positive entries."""
    av = a.value
    if np.any(av <= 0.0):
        raise ContractError("rsqrt requires strictly positive entries")
    y = _finite(1.0 / np.sqrt(av), "rsqrt")
    return a.tape._push(y, (a.index,), lambda g: (-0.5 * g * y / av,))


def transpose(a: Var) -> Var:
    out = np.ascontiguousarray(_mT(a.value))
    return a.tape._push(out, (a.index,), lambda g: (_mT(g),))


def reshape(a: Var, *shape: int) -> Var:
    """Row-major reshape to ``shape``: (rows, cols) or a batch (N, rows, cols)."""
    if len(shape) not in (2, 3) or math.prod(shape) != a.value.size:
        raise DimensionError(f"cannot reshape {a.shape} to {shape}")
    old = a.shape
    out = a.value.reshape(shape)  # a read-only view: values are never written
    return a.tape._push(out, (a.index,), lambda g: (g.reshape(old),))


def slice_rows(a: Var, start: int, stop: int) -> Var:
    if not (0 <= start < stop <= a.shape[-2]):
        raise DimensionError(f"row slice [{start}:{stop}] out of range for {a.shape}")
    shape = a.shape
    out = a.value[..., start:stop, :].copy()

    def vjp(g):
        full = np.zeros(shape)
        full[..., start:stop, :] = g
        return (full,)

    return a.tape._push(out, (a.index,), vjp)


def _concat(parts: list[Var], axis: int, name: str) -> Var:
    """Concatenate along ``axis`` (-1: columns, -2: rows); other axes must agree."""
    if not parts:
        raise ContractError(f"{name} of zero matrices")
    if len({p.shape[:axis] + p.shape[axis:][1:] for p in parts}) > 1:
        raise DimensionError(f"{name} shapes disagree: {[p.shape for p in parts]}")
    tape = _same_tape(*parts)
    out = np.concatenate([p.value for p in parts], axis=axis)
    edges = [0, *itertools.accumulate(p.shape[axis] for p in parts)]
    after = (slice(None),) * (-1 - axis)  # the axes after ``axis``

    def vjp(g):
        return tuple(np.ascontiguousarray(g[(..., slice(lo, hi), *after)])
                     for lo, hi in zip(edges, edges[1:]))

    return tape._push(out, tuple(p.index for p in parts), vjp)


def hcat(parts: list[Var]) -> Var:
    return _concat(parts, -1, "hcat")


def vcat(parts: list[Var]) -> Var:
    return _concat(parts, -2, "vcat")


def dense(x: Var, w: Var, b: Var, act: bool) -> Var:
    """One MLP layer as one node: ``x @ w + b``, then tanh if ``act``.

    ``x`` is (r, n) rows, ``w`` (n, c) and ``b`` a (1, c) row vector. The
    bias add and the tanh run in place on the product's array, each with
    the arithmetic of its own op, so the value and every gradient equal
    those of a matmul node, a broadcast bias-add node and a tanh node bit
    for bit. The product and the biased sum are checked finite; tanh maps
    finite values to finite values.
    """
    if len(x.shape) != 2 or len(w.shape) != 2 or x.shape[1] != w.shape[0]:
        raise DimensionError(f"dense dims differ: {x.shape} @ {w.shape}")
    if b.shape != (1, w.shape[1]):
        raise DimensionError(f"row vector {b.shape} does not match {w.shape}")
    tape = _same_tape(x, w, b)
    xv, wv = x.value, w.value
    out = _finite(xv @ wv, "dense product")
    out += b.value
    _finite(out, "dense bias add")
    if act:
        np.tanh(out, out=out)

    def vjp(g):
        if act:
            g = g * (1.0 - out * out)
        return g @ _mT(wv), _mT(xv) @ g, g.sum(axis=0, keepdims=True)

    return tape._push(out, (x.index, w.index, b.index), vjp)


def reduce_sum(a: Var) -> Var:
    shape = a.shape
    out = _finite(np.array([[float(a.value.sum())]]), "reduce_sum")
    return a.tape._push(out, (a.index,), lambda g: (np.full(shape, g[0, 0]),))


def frobenius_sq(a: Var) -> Var:
    av = a.value
    out = _finite(np.array([[float((av * av).sum())]]), "frobenius_sq")
    return a.tape._push(out, (a.index,), lambda g: (2.0 * g[0, 0] * av,))


# ---------------------------------------------------------------------------
# linear-algebra ops


def _first_indefinite_minor(s: Array) -> int | None:
    """Index j of the first leading (j+1) x (j+1) minor that fails Cholesky,
    or None if ``s`` factors."""
    lo, hi = 0, s.shape[0]
    while lo < hi:
        mid = (lo + hi) // 2
        try:
            np.linalg.cholesky(s[: mid + 1, : mid + 1])
            lo = mid + 1
        except np.linalg.LinAlgError:
            hi = mid
    return lo if lo < s.shape[0] else None


def _singular(s: Array, i: int, message: str, pivot: int) -> SingularityError:
    """The error for matrix ``i`` of ``s``; in a batch the message names it."""
    if s.ndim != 3:
        return SingularityError(message, pivot=int(pivot))
    return SingularityError(f"matrix {i}: {message}", pivot=int(pivot), matrix=int(i))


def cholesky_lower(s: Array) -> Array:
    """Lower Cholesky factor of an SPD matrix (or of each matrix in a
    (N, n, n) batch), reading the lower triangle.

    Raises:
        SingularityError: non-positive or non-finite pivot, or diagonal-based
            condition estimate (max diag L / min diag L)^2 above
            ``COND_LIMIT``, checked per matrix; ``pivot`` names the
            offending index and, in a batch, the message names the first
            failing matrix.
    """
    stack = s.reshape(-1, *s.shape[-2:])
    try:
        L = np.linalg.cholesky(s)
    except np.linalg.LinAlgError:
        pivots = map(_first_indefinite_minor, stack)
        i, j = next((i, j) for i, j in enumerate(pivots) if j is not None)
        raise _singular(s, i, f"Cholesky pivot {j} is not positive", j) from None
    if not np.isfinite(L).all():  # LAPACK passes NaN through
        finite = np.isfinite(L).all(axis=-1).reshape(len(stack), -1)
        i, j = np.argwhere(~finite)[0]
        raise _singular(s, i, f"Cholesky pivot {j} is not finite", j)
    diag = np.diagonal(L, axis1=-2, axis2=-1).reshape(len(stack), -1)
    # the batch-wide ratio bounds every matrix's, so a passing batch needs
    # no per-matrix pass
    if (diag.max() / diag.min()) ** 2 <= COND_LIMIT:
        return L
    cond_est = (diag.max(axis=1) / diag.min(axis=1)) ** 2
    if (cond_est > COND_LIMIT).any():
        i = int(np.argmax(cond_est > COND_LIMIT))
        worst = np.argmin(diag[i])
        raise _singular(s, i, f"condition estimate {cond_est[i]:.3e} exceeds "
                              f"{COND_LIMIT:.0e} (pivot {worst})", worst)
    return L


def spd_inverse(s: Var) -> Var:
    """Inverse of a symmetric positive definite matrix (or batch) via Cholesky.

    Backward: dL/dS = -S^{-T} G S^{-T}, symmetrized, which is the correct
    derivative when S is produced by a symmetric composite such as H H^T.
    """
    if s.shape[-1] != s.shape[-2]:
        raise DimensionError(f"spd_inverse needs square matrices, got {s.shape}")
    linv = np.linalg.inv(cholesky_lower(s.value))  # S^{-1} = L^{-T} L^{-1}
    x = _mT(linv) @ linv
    inv = _finite((x + _mT(x)) / 2.0, "spd_inverse")

    def vjp(g):
        h = -inv @ g @ inv
        return ((h + _mT(h)) / 2.0,)

    return s.tape._push(inv, (s.index,), vjp)


def pinv_right(h: Var) -> Var:
    """Right Moore-Penrose pseudo-inverse h^T (h h^T)^{-1} of a wide matrix.

    Valid for full-row-rank h with at least as many columns as rows; a
    rank-deficient input surfaces as the underlying ``SingularityError``.
    The composite is built from tape ops, so it is differentiable end to
    end; a (N, a, k) batch gets one pseudo-inverse per matrix.
    """
    a, k = h.shape[-2:]
    if k < a:
        raise DimensionError(f"pinv_right needs cols >= rows, got {h.shape}")
    ht = transpose(h)
    gram = matmul(h, ht)
    return matmul(ht, spd_inverse(gram))


def lstsq_right(h0: Var, h1: Var) -> Var:
    """Least-squares transition M = h1 h0^T (h0 h0^T)^{-1}, minimizing ||M h0 - h1||_F.

    The same matrix as ``matmul(h1, pinv_right(h0))`` as one tape node:
    h0 and h1 are (a, k) or a (N, a, k) batch with k >= a, and a batch
    gets one solve per matrix. The Gram matrix G = h0 h0^T is factored by
    ``cholesky_lower``, so a rank-deficient h0 raises its
    ``SingularityError``.

    Backward, with M = C G^{-1} and C = h1 h0^T: gC = g G^{-1},
    gG = -M^T gC, dL/dh1 = gC h0 and dL/dh0 = gC^T h1 + (gG + gG^T) h0.
    """
    if h0.shape != h1.shape:
        raise DimensionError(f"lstsq_right shapes differ: {h0.shape} vs {h1.shape}")
    a, k = h0.shape[-2:]
    if k < a:
        raise DimensionError(f"lstsq_right needs cols >= rows, got {h0.shape}")
    tape = _same_tape(h0, h1)
    x0, x1 = h0.value, h1.value
    x0t = _mT_copy(x0)
    linv = np.linalg.inv(cholesky_lower(x0 @ x0t))
    ginv = _mT_copy(linv) @ linv  # G^{-1} = L^{-T} L^{-1}
    out = _finite((x1 @ x0t) @ ginv, "lstsq_right")

    def vjp(g):
        gc = g @ ginv
        gg = -_mT(out) @ gc
        return _mT(gc) @ x1 + (gg + _mT(gg)) @ x0, gc @ x0

    return tape._push(out, (h0.index, h1.index), vjp)


def sym_eig(s: Var) -> tuple[Var, Array]:
    """Eigendecomposition of (s + s^T)/2.

    Returns:
        (eigenvalues as an ascending n x 1 Var, orthonormal eigenvector
        matrix as a plain read-only array). Only losses of the eigenvalues
        are differentiable: dL/dS = Q diag(dL/dlambda) Q^T.

    Raises:
        NumericError: if the iterative eigensolver fails to converge.
    """
    if s.shape[0] != s.shape[1]:
        raise DimensionError(f"sym_eig needs a square matrix, got {s.shape}")
    sym = (s.value + s.value.T) / 2.0
    try:
        w, q = np.linalg.eigh(sym)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"symmetric eigensolver did not converge: {exc}") from exc
    q = np.ascontiguousarray(q)
    q.flags.writeable = False

    def vjp(g):
        return (q @ (g.ravel()[:, None] * q.T),)

    lam = s.tape._push(w.reshape(-1, 1).copy(), (s.index,), vjp)
    return lam, q
