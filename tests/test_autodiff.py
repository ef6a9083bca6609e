import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mspred import autodiff as ad
from mspred.errors import ContractError, DimensionError, NumericError, SingularityError

from oracles import central_diff, rel_err


def make_rng(seed):
    return np.random.default_rng(seed)


def grad_check(build, x0, tol=1e-4, step=1e-6):
    """Compare tape gradient of build(tape, x)->scalar Var against FD."""

    def forward(x):
        tape = ad.Tape()
        return float(build(tape, x).value[0, 0])

    tape = ad.Tape()
    xv = tape.input(x0)
    loss = build(tape, x0, xv)
    tape.backward(loss)
    analytic = tape.grad(xv)
    numeric = central_diff(forward, x0, step=step)
    assert rel_err(analytic, numeric) < tol


class GradCase:
    """One differentiable op exercised through a scalar loss."""

    def __init__(self, name, shape, builder, tol=1e-4):
        self.name = name
        self.shape = shape
        self.builder = builder
        self.tol = tol

    def run(self, x0):
        def forward(x):
            tape = ad.Tape()
            return float(self.builder(tape, tape.input(x)).value[0, 0])

        tape = ad.Tape()
        xv = tape.input(x0)
        tape.backward(self.builder(tape, xv))
        analytic = tape.grad(xv)
        numeric = central_diff(forward, x0)
        return rel_err(analytic, numeric)


def _fixed(tape, arr):
    return tape.input(arr)


B23 = np.array([[0.3, -1.2, 0.7], [1.1, 0.4, -0.5]])
B223 = np.stack([B23, -0.5 * B23[::-1]])  # (2, 2, 3)
B232 = np.swapaxes(B223, 1, 2)  # (2, 3, 2)
X34 = np.array([[0.5, -0.2, 0.9, 0.1], [-1.0, 0.3, 0.4, -0.6], [0.2, 0.8, -0.3, 0.7]])
W42 = np.array([[0.4, -0.3], [0.1, 0.6], [-0.5, 0.2], [0.3, 0.3]])
B12 = np.array([[0.2, -0.1]])

GRAD_CASES = [
    GradCase("matmul_left", (3, 2), lambda t, x: ad.reduce_sum(ad.matmul(x, _fixed(t, B23)))),
    GradCase("matmul_right", (2, 4), lambda t, x: ad.reduce_sum(ad.matmul(_fixed(t, B23.T), x))),
    GradCase("add", (3, 3), lambda t, x: ad.frobenius_sq(ad.add(x, _fixed(t, np.ones((3, 3)))))),
    GradCase("sub", (3, 3), lambda t, x: ad.frobenius_sq(ad.sub(_fixed(t, np.ones((3, 3))), x))),
    GradCase("hadamard", (2, 5), lambda t, x: ad.reduce_sum(ad.hadamard(x, ad.square(x)))),
    GradCase("scale", (4, 2), lambda t, x: ad.frobenius_sq(ad.scale(x, -1.7))),
    GradCase("square", (2, 3), lambda t, x: ad.reduce_sum(ad.square(x))),
    GradCase("smooth_abs", (3, 3), lambda t, x: ad.reduce_sum(ad.smooth_abs(x, 1e-12))),
    GradCase("transpose", (2, 5), lambda t, x: ad.frobenius_sq(ad.matmul(ad.transpose(x), _fixed(t, np.ones((2, 2)))))),
    GradCase("reshape", (2, 6), lambda t, x: ad.frobenius_sq(ad.reshape(x, 3, 4))),
    GradCase("slice_rows", (5, 3), lambda t, x: ad.frobenius_sq(ad.slice_rows(x, 1, 4))),
    GradCase("hcat", (3, 2), lambda t, x: ad.frobenius_sq(ad.hcat([x, ad.square(x)]))),
    GradCase("vcat", (2, 3), lambda t, x: ad.frobenius_sq(ad.vcat([x, ad.scale(x, 2.0)]))),
    # dense: x @ w + b with and without tanh, through each of its operands
    GradCase("dense_tanh_x", (3, 4), lambda t, x: ad.reduce_sum(ad.dense(x, _fixed(t, W42), _fixed(t, B12), True))),
    GradCase("dense_tanh_w", (4, 2), lambda t, x: ad.frobenius_sq(ad.dense(_fixed(t, X34), x, _fixed(t, B12), True))),
    GradCase("dense_tanh_b", (1, 2), lambda t, x: ad.frobenius_sq(ad.dense(_fixed(t, X34), _fixed(t, W42), x, True))),
    GradCase("dense_linear_x", (3, 4), lambda t, x: ad.frobenius_sq(ad.dense(x, _fixed(t, W42), _fixed(t, B12), False))),
    GradCase("dense_linear_w", (4, 2), lambda t, x: ad.frobenius_sq(ad.dense(_fixed(t, X34), x, _fixed(t, B12), False))),
    GradCase("dense_linear_b", (1, 2), lambda t, x: ad.frobenius_sq(ad.dense(_fixed(t, X34), _fixed(t, W42), x, False))),
    GradCase("spd_inverse", (4, 4), lambda t, x: ad.frobenius_sq(
        ad.spd_inverse(ad.add(ad.matmul(x, ad.transpose(x)), _fixed(t, np.eye(4)))))),
    GradCase("pinv_right", (2, 5), lambda t, x: ad.frobenius_sq(ad.pinv_right(x))),
    GradCase("frobenius_sq", (3, 3), lambda t, x: ad.frobenius_sq(x)),
    GradCase("reduce_sum", (3, 3), lambda t, x: ad.square(ad.reduce_sum(x))),
    # batched (N, rows, cols) values: the matrix ops act on the last two axes
    GradCase("matmul_left_3d", (2, 3, 2), lambda t, x: ad.reduce_sum(ad.matmul(x, _fixed(t, B223)))),
    GradCase("matmul_right_3d", (2, 2, 4), lambda t, x: ad.reduce_sum(ad.matmul(_fixed(t, B232), x))),
    GradCase("transpose_3d", (2, 2, 5), lambda t, x: ad.frobenius_sq(ad.matmul(ad.transpose(x), _fixed(t, B223[:, :, :2])))),
    GradCase("reshape_3d", (2, 2, 6), lambda t, x: ad.frobenius_sq(ad.matmul(ad.reshape(x, 4, 3, 2), _fixed(t, np.ones((4, 2, 2)))))),
    GradCase("reshape_2d_to_3d", (4, 3), lambda t, x: ad.frobenius_sq(ad.matmul(ad.reshape(x, 2, 3, 2), _fixed(t, B223)))),
    GradCase("slice_rows_3d", (2, 5, 3), lambda t, x: ad.frobenius_sq(ad.matmul(ad.slice_rows(x, 1, 4), _fixed(t, B232)))),
    GradCase("hcat_3d", (2, 3, 2), lambda t, x: ad.frobenius_sq(ad.hcat([x, ad.square(x)]))),
    GradCase("vcat_3d", (2, 2, 3), lambda t, x: ad.frobenius_sq(ad.vcat([x, ad.scale(x, 2.0)]))),
    GradCase("spd_inverse_3d", (2, 4, 4), lambda t, x: ad.frobenius_sq(
        ad.spd_inverse(ad.add(ad.matmul(x, ad.transpose(x)), _fixed(t, np.stack([np.eye(4)] * 2)))))),
    GradCase("pinv_right_3d", (2, 2, 5), lambda t, x: ad.frobenius_sq(
        ad.pinv_right(ad.add(x, _fixed(t, np.stack([2.0 * np.eye(2, 5)] * 2)))))),
]


@pytest.mark.parametrize("case", GRAD_CASES, ids=lambda c: c.name)
def test_gradient_matches_central_differences(case):
    rng = make_rng(hash(case.name) % (2**32))
    for trial in range(5):
        x0 = rng.normal(size=case.shape)
        if case.name == "pinv_right":
            x0 += np.array([[2.0, 0, 0, 0, 0], [0, 2.0, 0, 0, 0]])  # keep full row rank
        assert case.run(x0) < case.tol, f"{case.name} trial {trial}"


def test_gradient_suite_100_instances():
    # one hundred fresh seeded instances across the op set
    rng = make_rng(20240811)
    for trial in range(100):
        case = GRAD_CASES[trial % len(GRAD_CASES)]
        x0 = rng.normal(size=case.shape)
        if case.name == "pinv_right":
            x0[:, : x0.shape[0]] += 2.0 * np.eye(x0.shape[0])
        assert case.run(x0) < 1e-4


# ---------------------------------------------------------------------------
# op-level examples


def test_input_view_aliases_without_copy_and_checks_dtype_and_rank():
    tape = ad.Tape()
    base = np.arange(6.0).reshape(2, 3)
    leaf = tape.input_view(base)
    assert np.shares_memory(leaf.value, base)
    assert not leaf.value.flags.writeable and base.flags.writeable
    tape.backward(ad.frobenius_sq(leaf))
    np.testing.assert_array_equal(tape.grad(leaf), 2.0 * base)
    for bad in (np.arange(6).reshape(2, 3), np.arange(6.0)):
        with pytest.raises(ContractError, match="input_view"):
            tape.input_view(bad)


def test_constant_leaf_gets_no_gradient_slot_and_no_grad():
    tape = ad.Tape()
    x = tape.input(np.arange(6.0).reshape(2, 3))
    c = tape.input(np.ones((2, 3)), grad=False)
    v = tape.input_view(np.full((2, 3), 2.0), grad=False)
    assert c.constant and v.constant and not x.constant
    tape.backward(ad.frobenius_sq(ad.add(ad.hadamard(x, c), v)))
    assert tape.grads[c.index] is None and tape.grads[v.index] is None
    np.testing.assert_array_equal(tape.grad(x), 2.0 * (x.value + 2.0))
    for leaf in (c, v):
        with pytest.raises(ContractError, match="constant"):
            tape.grad(leaf)


# (op, operand shapes); every op is scored by a fixed weighting of its output
CONSTANT_OPERAND_OPS = {
    "dense": (lambda x, w, b: ad.dense(x, w, b, act=True), [(5, 3), (3, 4), (1, 4)]),
    "matmul": (ad.matmul, [(2, 4, 3), (2, 3, 5)]),
    "sub": (ad.sub, [(4, 3), (4, 3)]),
    "hadamard": (ad.hadamard, [(2, 4, 3), (2, 4, 3)]),
    "lstsq_right": (ad.lstsq_right, [(2, 3, 6), (2, 3, 6)]),
}


@pytest.mark.parametrize("name", list(CONSTANT_OPERAND_OPS))
def test_constant_operand_keeps_other_gradients_bitwise(name):
    op, shapes = CONSTANT_OPERAND_OPS[name]
    rng = make_rng(41)
    data = [rng.normal(size=shape) for shape in shapes]

    def grads(constant):
        tape = ad.Tape()
        leaves = [tape.input(d, grad=i != constant) for i, d in enumerate(data)]
        out = op(*leaves)
        weight = tape.input(make_rng(43).normal(size=out.shape))
        tape.backward(ad.reduce_sum(ad.hadamard(out, weight)))
        assert all(tape.grads[leaf.index] is None for leaf in leaves if leaf.constant)
        return [None if leaf.constant else tape.grad(leaf) for leaf in leaves]

    reference = grads(constant=None)
    for constant in range(len(data)):
        for i, g in enumerate(grads(constant)):
            assert (g is None) == (i == constant)
            if g is not None:
                assert np.array_equal(g, reference[i]), (constant, i)


def test_matmul_identity():
    tape = ad.Tape()
    x = tape.input(np.arange(9.0).reshape(3, 3))
    out = ad.matmul(tape.input(np.eye(3)), x)
    np.testing.assert_array_equal(out.value, x.value)


def test_matmul_hand_example():
    tape = ad.Tape()
    a = tape.input([[1.0, 2.0], [3.0, 4.0]])
    b = tape.input([[0.0, 1.0], [1.0, 0.0]])
    np.testing.assert_array_equal(ad.matmul(a, b).value, [[2.0, 1.0], [4.0, 3.0]])


def test_matmul_gradient_tight():
    rng = make_rng(7)
    a0 = rng.normal(size=(3, 4))
    b0 = rng.normal(size=(4, 2))

    def forward(a):
        t = ad.Tape()
        return float(ad.reduce_sum(ad.matmul(t.input(a), t.input(b0))).value[0, 0])

    t = ad.Tape()
    av = t.input(a0)
    t.backward(ad.reduce_sum(ad.matmul(av, t.input(b0))))
    assert rel_err(t.grad(av), central_diff(forward, a0)) < 1e-6


def test_matmul_shape_error_names_shapes():
    tape = ad.Tape()
    a = tape.input(np.ones((2, 3)))
    b = tape.input(np.ones((2, 3)))
    with pytest.raises(DimensionError, match=r"\(2, 3\)"):
        ad.matmul(a, b)


def test_add_zero_and_tanh_zero():
    tape = ad.Tape()
    x = tape.input([[1.0, -2.0]])
    np.testing.assert_array_equal(ad.add(x, tape.input(np.zeros((1, 2)))).value, x.value)
    z = tape.input(np.zeros((2, 2)))
    y = ad.dense(z, tape.input(np.eye(2)), tape.input(np.zeros((1, 2))), act=True)
    np.testing.assert_array_equal(y.value, np.zeros((2, 2)))
    tape.backward(ad.reduce_sum(y))
    np.testing.assert_array_equal(tape.grad(z), np.ones((2, 2)))  # tanh'(0) = 1


def test_elementwise_shape_errors():
    tape = ad.Tape()
    a = tape.input(np.ones((2, 2)))
    b = tape.input(np.ones((2, 3)))
    for op in (ad.add, ad.sub, ad.hadamard):
        with pytest.raises(DimensionError):
            op(a, b)


def test_dense_shape_errors_name_shapes():
    tape = ad.Tape()
    x, w, b = (tape.input(np.ones(s)) for s in ((2, 3), (3, 4), (1, 4)))
    assert ad.dense(x, w, b, act=False).shape == (2, 4)
    for args in ((x, tape.input(np.ones((2, 4))), b), (tape.input(np.ones((2, 2, 3))), w, b)):
        with pytest.raises(DimensionError, match=r"dense dims differ"):
            ad.dense(*args, act=True)
    for bias in ((1, 3), (2, 4)):
        with pytest.raises(DimensionError, match=r"row vector"):
            ad.dense(x, w, tape.input(np.ones(bias)), act=True)


def test_transpose_involution_and_vector():
    tape = ad.Tape()
    x = tape.input(np.arange(6.0).reshape(2, 3))
    np.testing.assert_array_equal(ad.transpose(ad.transpose(x)).value, x.value)
    col = ad.transpose(tape.input([[1.0, 2.0, 3.0]]))
    assert col.shape == (3, 1)
    np.testing.assert_array_equal(col.value.ravel(), [1.0, 2.0, 3.0])


def test_spd_inverse_identity_and_diagonal():
    tape = ad.Tape()
    np.testing.assert_allclose(ad.spd_inverse(tape.input(np.eye(3))).value, np.eye(3), atol=1e-14)
    d = ad.spd_inverse(tape.input(np.diag([1.0, 4.0])))
    np.testing.assert_allclose(d.value, np.diag([1.0, 0.25]), atol=1e-14)


def test_spd_inverse_random_and_gradient():
    rng = make_rng(11)
    b = rng.normal(size=(5, 5))
    s = b @ b.T + np.eye(5)
    tape = ad.Tape()
    inv = ad.spd_inverse(tape.input(s))
    assert np.abs(s @ inv.value - np.eye(5)).max() < 1e-10

    def forward(x):
        t = ad.Tape()
        xv = t.input(x)
        return float(ad.frobenius_sq(
            ad.spd_inverse(ad.add(ad.matmul(xv, ad.transpose(xv)), t.input(np.eye(5))))
        ).value[0, 0])

    t = ad.Tape()
    xv = t.input(b)
    t.backward(ad.frobenius_sq(
        ad.spd_inverse(ad.add(ad.matmul(xv, ad.transpose(xv)), t.input(np.eye(5))))))
    assert rel_err(t.grad(xv), central_diff(forward, b)) < 1e-5


def test_spd_inverse_failure_carries_pivot():
    tape = ad.Tape()
    not_pd = np.diag([1.0, -1.0, 2.0])
    with pytest.raises(SingularityError) as exc:
        ad.spd_inverse(tape.input(not_pd))
    assert exc.value.pivot == 1


def test_spd_inverse_condition_guard():
    tape = ad.Tape()
    with pytest.raises(SingularityError) as exc:
        ad.spd_inverse(tape.input(np.diag([1.0, 1e-13])))
    assert exc.value.pivot == 1


@pytest.mark.parametrize("bad", range(6))
def test_cholesky_pivot_is_first_indefinite_leading_minor(bad):
    rng = make_rng(31)
    h = rng.normal(size=(6, 9))
    s = h @ h.T
    s[bad, bad] = -100.0
    with pytest.raises(SingularityError) as exc:
        ad.cholesky_lower(s)
    assert exc.value.pivot == bad


def test_cholesky_reads_lower_triangle_only():
    rng = make_rng(32)
    h = rng.normal(size=(4, 7))
    s = h @ h.T
    garbage = s + np.triu(rng.normal(size=(4, 4)) * 50.0, k=1)
    L = ad.cholesky_lower(garbage)
    np.testing.assert_allclose(L @ L.T, s, rtol=1e-13, atol=1e-13)
    assert np.array_equal(L, ad.cholesky_lower(s))


def test_cholesky_rejects_non_finite_entry():
    s = 2.0 * np.eye(4)
    s[2, 0] = s[0, 2] = np.nan
    with pytest.raises(SingularityError) as exc:
        ad.cholesky_lower(s)
    assert exc.value.pivot == 2


def test_batched_cholesky_names_failing_matrix_and_pivot():
    rng = make_rng(33)
    h = rng.normal(size=(4, 5, 8))
    s = h @ np.swapaxes(h, 1, 2)
    L = ad.cholesky_lower(s)
    for i in range(4):
        assert np.array_equal(L[i], ad.cholesky_lower(s[i]))
    bad = s.copy()
    bad[2, 3, 3] = -100.0
    with pytest.raises(SingularityError, match="matrix 2") as exc:
        ad.cholesky_lower(bad)
    assert exc.value.pivot == 3
    nan = s.copy()
    nan[1, 4, 0] = nan[1, 0, 4] = np.nan
    with pytest.raises(SingularityError, match="matrix 1") as exc:
        ad.cholesky_lower(nan)
    assert exc.value.pivot == 4


def test_batched_condition_guard_applies_per_matrix():
    # each matrix is perfectly conditioned; across the batch the diagonal
    # spans 1e13, which a batch-wide estimate would wrongly reject
    scaled = np.stack([np.eye(2), 1e-13 * np.eye(2)])
    ad.cholesky_lower(scaled)
    tape = ad.Tape()
    with pytest.raises(SingularityError, match="matrix 1") as exc:
        ad.spd_inverse(tape.input(np.stack([np.eye(2), np.diag([1.0, 1e-13])])))
    assert exc.value.pivot == 1


def test_batched_spd_inverse_equals_per_matrix_inverse():
    rng = make_rng(34)
    h = rng.normal(size=(3, 4, 6))
    s = h @ np.swapaxes(h, 1, 2)
    tape = ad.Tape()
    inv = ad.spd_inverse(tape.input(s)).value
    for i in range(3):
        assert np.array_equal(inv[i], ad.spd_inverse(tape.input(s[i])).value)


def test_batched_matmul_rejects_mismatched_batches():
    tape = ad.Tape()
    with pytest.raises(DimensionError):
        ad.matmul(tape.input(np.ones((2, 3, 3))), tape.input(np.ones((3, 3, 3))))
    with pytest.raises(DimensionError):
        ad.matmul(tape.input(np.ones((2, 3, 3))), tape.input(np.ones((3, 3))))


def test_pinv_right_identity_and_orthogonal_rows():
    tape = ad.Tape()
    np.testing.assert_allclose(ad.pinv_right(tape.input(np.eye(3))).value, np.eye(3), atol=1e-14)
    h = tape.input([[1.0, 0.0, 0.0], [0.0, 2.0, 0.0]])
    np.testing.assert_allclose(
        ad.pinv_right(h).value, [[1.0, 0.0], [0.0, 0.5], [0.0, 0.0]], atol=1e-14
    )


def test_pinv_right_left_inverse_property():
    rng = make_rng(13)
    h0 = rng.normal(size=(3, 8))
    tape = ad.Tape()
    h = tape.input(h0)
    p = ad.pinv_right(h)
    assert np.linalg.norm(h0 @ p.value - np.eye(3)) < 1e-10


def test_pinv_right_requires_wide_matrix():
    tape = ad.Tape()
    with pytest.raises(DimensionError):
        ad.pinv_right(tape.input(np.ones((4, 2))))


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_moore_penrose_identities(seed):
    rng = make_rng(seed)
    a = rng.integers(1, 5)
    k = a + rng.integers(1, 6)
    h0 = rng.normal(size=(a, k)) + np.hstack([2.0 * np.eye(a), np.zeros((a, k - a))])
    tape = ad.Tape()
    p = ad.pinv_right(tape.input(h0)).value
    assert np.linalg.norm(h0 @ p @ h0 - h0) < 1e-9
    assert np.linalg.norm(p @ h0 @ p - p) < 1e-9
    assert np.linalg.norm((h0 @ p) - (h0 @ p).T) < 1e-9
    assert np.linalg.norm((p @ h0) - (p @ h0).T) < 1e-9


def _lstsq_pair(rng, shape):
    """Well-conditioned wide h0 and an unrelated h1 of the same shape."""
    a, k = shape[-2:]
    h0 = rng.normal(size=shape) + np.broadcast_to(2.0 * np.eye(a, k), shape)
    return h0, rng.normal(size=shape)


@pytest.mark.parametrize("shape", [(3, 5), (3, 3, 5)], ids=["2d", "batch"])
def test_lstsq_right_gradients_match_central_differences(shape):
    # kept out of GRAD_CASES, whose cases take one input; this op takes two
    rng = make_rng(41)
    h0, h1 = _lstsq_pair(rng, shape)
    weight = rng.normal(size=(*shape[:-1], shape[-2]))

    def loss(tape, x0, x1):
        m = ad.lstsq_right(x0, x1)
        return ad.add(ad.reduce_sum(ad.hadamard(m, tape.input(weight))), ad.frobenius_sq(m))

    def forward(x0, x1):
        tape = ad.Tape()
        return float(loss(tape, tape.input(x0), tape.input(x1)).value[0, 0])

    tape = ad.Tape()
    v0, v1 = tape.input(h0), tape.input(h1)
    tape.backward(loss(tape, v0, v1))
    assert rel_err(tape.grad(v0), central_diff(lambda x: forward(x, h1), h0)) < 1e-6
    assert rel_err(tape.grad(v1), central_diff(lambda x: forward(h0, x), h1)) < 1e-6


@pytest.mark.parametrize("shape", [(3, 5), (4, 3, 7)], ids=["2d", "batch"])
def test_lstsq_right_equals_matmul_by_pinv_right(shape):
    h0, h1 = _lstsq_pair(make_rng(42), shape)
    tape = ad.Tape()
    v0, v1 = tape.input(h0), tape.input(h1)
    fused = ad.lstsq_right(v0, v1).value
    assert rel_err(fused, ad.matmul(v1, ad.pinv_right(v0)).value) < 1e-12


def test_lstsq_right_rejects_tall_or_mismatched_inputs():
    tape = ad.Tape()
    tall = tape.input(np.ones((4, 2)))
    with pytest.raises(DimensionError):
        ad.lstsq_right(tall, tall)
    with pytest.raises(DimensionError):
        ad.lstsq_right(tape.input(np.eye(2, 4)), tape.input(np.eye(2, 5)))
    with pytest.raises(DimensionError):
        ad.lstsq_right(tape.input(np.ones((2, 2, 4))), tape.input(np.ones((3, 2, 4))))


def test_lstsq_right_collapsed_input_carries_pivot():
    tape = ad.Tape()
    rank_one = np.array([[1.0, 0.0, 0.0], [2.0, 0.0, 0.0]])
    with pytest.raises(SingularityError) as exc:
        ad.lstsq_right(tape.input(rank_one), tape.input(np.ones((2, 3))))
    assert exc.value.pivot == 1 and exc.value.matrix is None
    batch = np.stack([np.eye(2, 3), rank_one, np.eye(2, 3)])
    with pytest.raises(SingularityError, match="matrix 1") as exc:
        ad.lstsq_right(tape.input(batch), tape.input(batch))
    assert exc.value.pivot == 1 and exc.value.matrix == 1


def test_sym_eig_identity_and_hand_case():
    tape = ad.Tape()
    lam, _ = ad.sym_eig(tape.input(np.eye(3)))
    np.testing.assert_allclose(lam.value.ravel(), [1.0, 1.0, 1.0], atol=1e-14)
    lam2, _ = ad.sym_eig(tape.input([[0.5, -0.5], [-0.5, 0.5]]))
    np.testing.assert_allclose(lam2.value.ravel(), [0.0, 1.0], atol=1e-12)


def test_sym_eig_reconstruction_and_orthonormality():
    rng = make_rng(17)
    for _ in range(20):
        n = rng.integers(2, 7)
        s = rng.normal(size=(n, n))
        s = (s + s.T) / 2
        tape = ad.Tape()
        lam, q = ad.sym_eig(tape.input(s))
        recon = q @ np.diag(lam.value.ravel()) @ q.T
        assert np.linalg.norm(recon - s) <= 1e-9 * max(np.linalg.norm(s), 1e-30)
        assert np.abs(q.T @ q - np.eye(n)).max() < 1e-10
        assert np.all(np.diff(lam.value.ravel()) >= -1e-12)  # ascending


def test_sym_eig_eigenvalue_gradient():
    # well-separated spectrum so the eigenvalue derivative is clean
    rng = make_rng(19)
    q0, _ = np.linalg.qr(rng.normal(size=(4, 4)))
    s0 = q0 @ np.diag([1.0, 2.5, 4.0, 7.0]) @ q0.T

    def forward(s):
        t = ad.Tape()
        lam, _ = ad.sym_eig(t.input(s))
        return float(ad.reduce_sum(ad.square(lam)).value[0, 0])

    t = ad.Tape()
    sv = t.input(s0)
    lam, _ = ad.sym_eig(sv)
    t.backward(ad.reduce_sum(ad.square(lam)))
    assert rel_err(t.grad(sv), central_diff(forward, s0)) < 1e-5


def test_reduce_examples():
    tape = ad.Tape()
    assert ad.frobenius_sq(tape.input(np.zeros((3, 2)))).value[0, 0] == 0.0
    assert ad.frobenius_sq(tape.input([[1.0, 2.0], [3.0, 4.0]])).value[0, 0] == 30.0
    x = tape.input(np.ones((2, 3)))
    tape.backward(ad.reduce_sum(x))
    np.testing.assert_array_equal(tape.grad(x), np.ones((2, 3)))


def test_backward_contracts():
    tape = ad.Tape()
    x = tape.input(np.ones((2, 2)))
    with pytest.raises(ContractError):
        tape.backward(ad.square(x))  # non-scalar
    tape2 = ad.Tape()
    y = tape2.input(np.ones((1, 1)))
    tape2.backward(ad.square(y))
    with pytest.raises(ContractError):
        tape2.backward(ad.square(y))  # repeated backward


def test_backward_unreached_nodes_get_zero_grad():
    tape = ad.Tape()
    x = tape.input(np.ones((2, 2)))
    y = tape.input(np.ones((2, 2)))
    _unused = ad.square(y)
    tape.backward(ad.reduce_sum(x))
    np.testing.assert_array_equal(tape.grad(y), np.zeros((2, 2)))


def test_cross_tape_mixing_rejected():
    t1, t2 = ad.Tape(), ad.Tape()
    with pytest.raises(ContractError):
        ad.add(t1.input(np.ones((2, 2))), t2.input(np.ones((2, 2))))


@pytest.mark.filterwarnings("ignore:overflow")
def test_nonfinite_forward_raises():
    tape = ad.Tape()
    with pytest.raises(NumericError):
        tape.input(np.array([[np.nan, 1.0]]))
    big = tape.input(np.full((2, 2), 1e308))
    with pytest.raises(NumericError):
        ad.square(big)


NON_FINITE_CASES = {  # op name: (op, input whose output is not finite)
    "frobenius_sq": (ad.frobenius_sq, [[1e200, 1.0]]),
    "reduce_sum": (ad.reduce_sum, [[1e308, 1e308]]),
    "smooth_abs": (lambda x: ad.smooth_abs(x, 1e-3), [[1e200, 1.0]]),
    # 1/sqrt of a finite positive entry is finite; a NaN entered by
    # input_view (which skips the scan) passes rsqrt's sign check
    "rsqrt": (ad.rsqrt, [[np.nan, 1.0]]),
    "dense product": (lambda x: ad.dense(x, x.tape.input([[1e200], [1.0]]),
                                         x.tape.input([[0.0]]), act=True), [[1e200, 1.0]]),
    # tanh maps a finite sum to a finite value, so the sum is checked
    "dense bias add": (lambda x: ad.dense(x, x.tape.input([[1.0], [0.0]]),
                                          x.tape.input([[1e308]]), act=True), [[1e308, 1.0]]),
}


@pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
@pytest.mark.parametrize("name", list(NON_FINITE_CASES))
def test_every_op_output_is_checked_finite(name):
    op, data = NON_FINITE_CASES[name]
    tape = ad.Tape()
    with pytest.raises(NumericError, match=name):
        op(tape.input_view(np.array(data)))


def test_tape_determinism_bitwise():
    def run():
        rng = make_rng(23)
        t = ad.Tape()
        a = t.input(rng.normal(size=(4, 6)))
        b = t.input(rng.normal(size=(6, 3)))
        h = ad.dense(a, b, t.input(rng.normal(size=(1, 3))), act=True)
        loss = ad.frobenius_sq(ad.matmul(ad.transpose(h), h))
        t.backward(loss)
        return loss.value.copy(), t.grad(a).copy(), t.grad(b).copy()

    first, second = run(), run()
    for x, y in zip(first, second):
        assert np.array_equal(x, y)


def test_values_are_read_only():
    tape = ad.Tape()
    x = tape.input(np.ones((2, 2)))
    with pytest.raises(ValueError):
        x.value[0, 0] = 5.0


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 5), st.integers(1, 5), st.integers(0, 10_000))
def test_hcat_vcat_roundtrip(rows, cols, seed):
    rng = make_rng(seed)
    a0 = rng.normal(size=(rows, cols))
    b0 = rng.normal(size=(rows, cols))
    tape = ad.Tape()
    a, b = tape.input(a0), tape.input(b0)
    wide = ad.hcat([a, b])
    tall = ad.vcat([a, b])
    np.testing.assert_array_equal(wide.value[:, :cols], a0)
    np.testing.assert_array_equal(wide.value[:, cols:], b0)
    np.testing.assert_array_equal(tall.value[:rows], a0)
    np.testing.assert_array_equal(tall.value[rows:], b0)
