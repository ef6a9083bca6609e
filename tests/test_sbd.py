import json
import math

import numpy as np
import pytest

from mspred import autodiff as ad
from mspred import datagen, sbd
from mspred.errors import ContractError, DimensionError, NumericError
from mspred.training import AdamState, adam_step

from oracles import connected_components


def rot2(theta):
    return np.array([[math.cos(theta), -math.sin(theta)],
                     [math.sin(theta), math.cos(theta)]])


def block_rotations(thetas):
    k = len(thetas)
    out = np.zeros((2 * k, 2 * k))
    for j, t in enumerate(thetas):
        out[2 * j : 2 * j + 2, 2 * j : 2 * j + 2] = rot2(t)
    return out


def skew(p, n):
    """The n x n skew matrix whose strict upper triangle holds p, row by row."""
    rows, cols = np.triu_indices(n, k=1)
    out = np.zeros((n, n))
    out[rows, cols] = np.ravel(p)
    out[cols, rows] = -np.ravel(p)
    return out


def planted_family(rng, k=4, count=32, angle_lo=0.3, angle_hi=1.4):
    """M_i = U0 (direct sum of rotations) U0^T with a fixed random basis."""
    a = 2 * k
    q, _ = np.linalg.qr(rng.normal(size=(a, a)))
    mats = []
    for _ in range(count):
        signs = rng.choice([-1.0, 1.0], size=k)
        thetas = signs * rng.uniform(angle_lo, angle_hi, size=k)
        mats.append(q @ block_rotations(thetas) @ q.T)
    return q, mats


def test_abs_adjacency_examples():
    tape = ad.Tape()
    perm = tape.input(np.eye(3)[[1, 2, 0]])
    adj = sbd.abs_adjacency(perm)
    assert np.abs(adj.value - np.eye(3)).max() < 1e-9
    ones = sbd.abs_adjacency(tape.input(np.ones((2, 2))))
    np.testing.assert_allclose(ones.value, [[2.0, 2.0], [2.0, 2.0]], atol=1e-9)


def test_abs_adjacency_preserves_block_structure():
    v = np.zeros((4, 4))
    v[:2, :2] = rot2(0.3)
    v[2:, 2:] = rot2(-0.9)
    tape = ad.Tape()
    adj = sbd.abs_adjacency(tape.input(v)).value
    assert np.abs(adj[:2, 2:]).max() < 1e-10
    assert np.abs(adj[:2, :2]).min() > 0.1


def test_normalized_laplacian_examples():
    tape = ad.Tape()
    lap_eye = sbd.normalized_laplacian(tape.input(np.eye(2)))
    assert np.abs(lap_eye.value).max() < 1e-9
    lap = sbd.normalized_laplacian(tape.input(np.full((2, 2), 2.0)))
    np.testing.assert_allclose(lap.value, [[0.5, -0.5], [-0.5, 0.5]], atol=1e-9)
    lam, _ = ad.sym_eig(lap)
    np.testing.assert_allclose(lam.value.ravel(), [0.0, 1.0], atol=1e-9)


def test_laplacian_kernel_counts_components():
    rng = np.random.default_rng(0)
    for _ in range(50):
        n = int(rng.integers(3, 9))
        # random planted block partition
        sizes = []
        left = n
        while left > 0:
            s = int(rng.integers(1, left + 1))
            sizes.append(s)
            left -= s
        adj = np.zeros((n, n))
        start = 0
        for s in sizes:
            block = rng.uniform(0.2, 1.0, size=(s, s))
            block = block @ block.T  # symmetric positive within-block weights
            adj[start : start + s, start : start + s] = block
            start += s
        tape = ad.Tape()
        lap = sbd.normalized_laplacian(tape.input(adj))
        lam, _ = ad.sym_eig(lap)
        kernel_dim = int((np.abs(lam.value.ravel()) < 1e-8).sum())
        assert kernel_dim == connected_components(adj, tol=0.0) == len(sizes)


def test_blockness_loss_examples():
    tape = ad.Tape()
    perm = tape.input(np.eye(4)[[2, 0, 3, 1]])
    assert sbd.blockness_loss(perm).value[0, 0] <= 1e-8
    ones = tape.input(np.ones((2, 2)))
    assert abs(sbd.blockness_loss(ones).value[0, 0] - 1.0) < 1e-8
    two_blocks = np.zeros((4, 4))
    two_blocks[:2, :2] = rot2(math.pi / 4)
    two_blocks[2:, 2:] = rot2(math.pi / 4)
    assert abs(sbd.blockness_loss(tape.input(two_blocks)).value[0, 0] - 2.0) < 1e-8


def test_blockness_invariant_under_block_permutation():
    rng = np.random.default_rng(1)
    v = np.zeros((6, 6))
    for j, t in enumerate((0.4, -0.8, 1.2)):
        v[2 * j : 2 * j + 2, 2 * j : 2 * j + 2] = rot2(t)
    v += 0.01 * rng.normal(size=(6, 6))
    perm = np.eye(6)[[2, 3, 0, 1, 4, 5]]  # swap the first two blocks
    tape = ad.Tape()
    base = sbd.blockness_loss(tape.input(v)).value[0, 0]
    conj = sbd.blockness_loss(tape.input(perm @ v @ perm.T)).value[0, 0]
    assert abs(base - conj) < 1e-10


def test_blockness_gradient_matches_fd():
    from oracles import central_diff, rel_err

    rng = np.random.default_rng(2)
    v0 = rng.normal(size=(3, 3))

    def forward(v):
        tape = ad.Tape()
        return float(sbd.blockness_loss(tape.input(v)).value[0, 0])

    tape = ad.Tape()
    vv = tape.input(v0)
    tape.backward(sbd.blockness_loss(vv))
    assert rel_err(tape.grad(vv), central_diff(forward, v0)) < 1e-4


def smoothed_trace_norm(v):
    """Spec: sum of sqrt(lambda^2 + eps^2) over the Laplacian's eigenvalues."""
    tape = ad.Tape()
    lam, _ = ad.sym_eig(sbd.normalized_laplacian(sbd.abs_adjacency(tape.input(v))))
    lam = lam.value.ravel()
    return float(np.sqrt(lam * lam + 1e-20).sum()), float(lam.min())


def c04_family():
    rng = np.random.default_rng(11004)
    basis, _ = np.linalg.qr(rng.normal(size=(8, 8)))
    return [basis @ datagen.latent_rotation(
        rng.choice([-1.0, 1.0], size=4) * rng.uniform(0.3, 1.4, size=4)) @ basis.T
        for _ in range(64)]


def test_blockness_is_laplacian_trace_norm_on_random_matrices():
    rng = np.random.default_rng(12)
    for _ in range(200):
        n = int(rng.integers(2, 10))
        v = rng.normal(size=(n, n))
        ref, lam_min = smoothed_trace_norm(v)
        got = float(sbd.blockness_loss(ad.Tape().input(v)).value[0, 0])
        assert abs(got - ref) <= 1e-9 * ref
        assert lam_min >= -1e-12


def test_batched_blockness_is_laplacian_trace_norm_on_c04_family():
    mats = c04_family()
    side = sbd._side_by_side(np.stack(mats))
    rng = np.random.default_rng(13)
    for _ in range(10):
        tape = ad.Tape()
        u = sbd.expm_skew(tape.input(skew(rng.normal(0.0, 0.6, size=28), 8)))
        got = float(sbd._mean_blockness_batched(u, tape.input(side), 8).value[0, 0])
        refs = [smoothed_trace_norm(u.value @ m @ u.value.T) for m in mats]
        ref = float(np.mean([r for r, _ in refs]))
        assert abs(got - ref) <= 1e-9 * ref
        assert min(lam for _, lam in refs) >= -1e-12


def test_batched_blockness_gradient_matches_fd():
    from oracles import central_diff, rel_err

    rng = np.random.default_rng(14)
    u0 = rng.normal(size=(3, 3))
    stack0 = rng.normal(size=(9, 3))

    def forward(u, stack):
        tape = ad.Tape()
        return float(sbd._mean_blockness_batched(
            tape.input(u), tape.input(stack), 3).value[0, 0])

    tape = ad.Tape()
    uv, sv = tape.input(u0), tape.input(stack0)
    tape.backward(sbd._mean_blockness_batched(uv, sv, 3))
    assert rel_err(tape.grad(uv), central_diff(lambda u: forward(u, stack0), u0)) < 1e-7
    assert rel_err(tape.grad(sv), central_diff(lambda s: forward(u0, s), stack0)) < 1e-7


@pytest.mark.parametrize("orthogonal", [True, False], ids=["expm", "general"])
def test_batched_blockness_gradient_matches_fd_at_c04_size(orthogonal):
    # the VJP may not lean on U^T U = I: check it at a general U too
    from oracles import central_diff, rel_err

    rng = np.random.default_rng(17)
    if orthogonal:
        tape = ad.Tape()
        u0 = sbd.expm_skew(tape.input(skew(rng.normal(0.0, 0.6, size=28), 8))).value
    else:
        u0 = rng.normal(size=(8, 8))
    stack0 = sbd._side_by_side(np.stack(c04_family()))

    def forward(u, stack):
        tape = ad.Tape()
        return float(sbd._mean_blockness_batched(
            tape.input(u), tape.input(stack), 8).value[0, 0])

    # one stack entry moves the mean over 64 members little: with a 1e-6
    # step its difference quotient carries ~1e-7 of rounding
    step = 1e-5
    tape = ad.Tape()
    uv, sv = tape.input(u0), tape.input(stack0)
    tape.backward(sbd._mean_blockness_batched(uv, sv, 8))
    fd_u = central_diff(lambda u: forward(u, stack0), u0, step)
    fd_stack = central_diff(lambda s: forward(u0, s), stack0, step)
    assert rel_err(tape.grad(uv), fd_u) < 1e-7
    assert rel_err(tape.grad(sv), fd_stack) < 1e-7


def test_blockness_loss_is_the_one_member_batched_loss():
    v0 = np.random.default_rng(15).normal(size=(5, 5))
    tape = ad.Tape()
    single = tape.input(v0)
    loss = sbd.blockness_loss(single)
    tape.backward(loss)
    batch_tape = ad.Tape()
    stack = batch_tape.input(v0)
    batched = sbd._mean_blockness_batched(batch_tape.input(np.eye(5)), stack, 5)
    batch_tape.backward(batched)
    assert loss.value[0, 0] == batched.value[0, 0]
    assert np.array_equal(tape.grad(single), batch_tape.grad(stack))


@pytest.mark.parametrize("orthogonal", [True, False], ids=["expm", "general"])
def test_batched_blockness_du_is_the_same_with_a_constant_family(orthogonal):
    rng = np.random.default_rng(18)
    u0 = (sbd.expm_skew(ad.Tape().input(skew(rng.normal(0.0, 0.6, size=28), 8))).value
          if orthogonal else rng.normal(size=(8, 8)))
    side = sbd._side_by_side(np.stack(c04_family()[:16]))

    def du(grad):
        tape = ad.Tape()
        uv, sv = tape.input(u0), tape.input(side, grad=grad)
        loss = sbd._mean_blockness_batched(uv, sv, 8)
        tape.backward(loss)
        assert (tape.grads[sv.index] is None) == (not grad)
        return loss.value, tape.grad(uv)

    (loss_var, du_var), (loss_const, du_const) = du(True), du(False)
    assert np.array_equal(loss_var, loss_const)
    assert np.array_equal(du_var, du_const)


def test_fit_sbd_constructs_no_tape(monkeypatch):
    tapes = []
    real = ad.Tape.__init__

    def recording(self):
        tapes.append(self)
        real(self)

    monkeypatch.setattr(ad.Tape, "__init__", recording)
    sbd.fit_sbd(c04_family()[:8], iters=5, seed=0, restarts=2)
    assert tapes == []


def test_fit_sbd_forms_no_family_gradient(monkeypatch):
    calls = []
    real = sbd.mean_blockness_grad

    def recording(*args, **kwargs):
        out = real(*args, **kwargs)
        calls.append(out)
        return out

    monkeypatch.setattr(sbd, "mean_blockness_grad", recording)
    sbd.fit_sbd(c04_family()[:8], iters=3, seed=0, restarts=2)
    assert len(calls) == 6
    for du, d_side in calls:
        assert du.shape == (8, 8) and d_side is None


def test_fit_sbd_lays_out_one_validated_family_per_start(monkeypatch):
    sides = []
    real_np, real_grad = sbd.mean_blockness_np, sbd.mean_blockness_grad

    def forward(u, side, buf):
        sides.append(side)
        return real_np(u, side, buf)

    def gradient(u, side, buf, scale, **kwargs):
        sides.append(side)
        return real_grad(u, side, buf, scale, **kwargs)

    monkeypatch.setattr(sbd, "mean_blockness_np", forward)
    monkeypatch.setattr(sbd, "mean_blockness_grad", gradient)
    sbd.fit_sbd(c04_family()[:8], iters=4, seed=0, restarts=2)
    # each start conjugates the family by its own basis and lays it out once
    assert len(sides) == 16 and all(s.shape == (64, 8) for s in sides)
    first, second = sides[:8], sides[8:]
    assert all(np.shares_memory(s, first[0]) for s in first)
    assert all(np.shares_memory(s, second[0]) for s in second)
    assert not np.shares_memory(first[0], second[0])


def test_fit_sbd_calls_adam_step_once_per_iteration(monkeypatch):
    calls = []
    real = sbd.adam_step

    def counting(state, params, grads):
        calls.append(state.step_count)
        return real(state, params, grads)

    monkeypatch.setattr(sbd, "adam_step", counting)
    sbd.fit_sbd(c04_family()[:8], iters=7, seed=0, restarts=3)
    # a fresh Adam state per start, stepped once per iteration
    assert calls == list(range(7)) * 3


def test_fit_sbd_names_the_iterate_whose_loss_is_non_finite():
    # finite entries whose squares overflow: the degrees and energies are inf
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(NumericError, match="at iterate 0 of restart 0"):
        sbd.fit_sbd([np.full((4, 4), 1e200)], iters=3, seed=0, restarts=1)


def test_blockness_buffers_carry_nothing_between_calls():
    # one set of buffers reused for several U gives the bits of fresh ones
    rng = np.random.default_rng(21)
    side = sbd._side_by_side(np.stack(c04_family()[:10]))
    buf = sbd.BlocknessBuffers(8, 10)
    for _ in range(3):
        u = sbd.expm_skew_np(skew(rng.normal(0.0, 0.6, size=28), 8))[0]
        fresh = sbd.BlocknessBuffers(8, 10)
        assert sbd.mean_blockness_np(u, side, buf) == sbd.mean_blockness_np(u, side, fresh)
        got = sbd.mean_blockness_grad(u, side, buf, 0.1, need_side=True)
        want = sbd.mean_blockness_grad(u, side, fresh, 0.1, need_side=True)
        assert all(np.array_equal(a, b) for a, b in zip(got, want))


@pytest.mark.parametrize("where, bad", [((2, 5), np.nan), (..., np.inf)],
                         ids=["nan-entry", "inf-member"])
def test_fit_sbd_names_the_non_finite_transition(where, bad):
    mats = c04_family()[:6]
    mats[3][where] = bad
    with pytest.raises(NumericError, match="transition 3 "):
        sbd.fit_sbd(mats, iters=5, seed=0, restarts=1)


def test_expm_skew_orthogonal_and_additive():
    rng = np.random.default_rng(3)
    tape = ad.Tape()
    s = tape.input(skew(rng.normal(size=6), 4))
    u = sbd.expm_skew(s)
    assert np.abs(u.value @ u.value.T - np.eye(4)).max() < 1e-12
    half = sbd.expm_skew(ad.scale(s, 0.5))
    np.testing.assert_allclose(half.value @ half.value, u.value, atol=1e-12)


def skew_fd_check(loss, p0, n):
    """Projected gradient of ``loss`` at skew(p0) against differences along p.

    Moving p_k moves S along E_rc - E_cr, so the difference quotient in p_k
    is (G - G^T)_rc for the gradient G in S.
    """
    from oracles import central_diff

    def forward(p):
        tape = ad.Tape()
        return float(loss(tape, tape.input(skew(p, n))).value[0, 0])

    tape = ad.Tape()
    sv = tape.input(skew(p0, n))
    tape.backward(loss(tape, sv))
    g = tape.grad(sv)
    rows, cols = np.triu_indices(n, k=1)
    return (g - g.T)[rows, cols], central_diff(forward, p0)


def test_expm_skew_gradient_matches_fd():
    from oracles import rel_err

    def loss(tape, s):
        return ad.frobenius_sq(ad.sub(sbd.expm_skew(s), tape.input(np.ones((3, 3)))))

    got, fd = skew_fd_check(loss, np.random.default_rng(4).normal(size=3), 3)
    assert rel_err(got, fd) < 1e-4


def test_expm_skew_orthogonal_at_large_norm():
    for n in (4, 8):
        for seed in range(8):
            p = np.random.default_rng(seed).normal(size=n * (n - 1) // 2)
            p *= 20.0 / np.linalg.norm(p)
            u = sbd.expm_skew(ad.Tape().input(skew(p, n))).value
            assert np.abs(u @ u.T - np.eye(n)).max() <= 1e-14
            assert np.linalg.det(u) > 0.0


def test_expm_skew_gradient_at_zero_matches_fd():
    # S = 0 has all eigenvalues equal: the coincident-eigenvalue limit
    from oracles import rel_err

    target = np.random.default_rng(7).normal(size=(4, 4))  # not symmetric

    def loss(tape, s):
        return ad.frobenius_sq(ad.sub(sbd.expm_skew(s), tape.input(target)))

    got, fd = skew_fd_check(loss, np.zeros(6), 4)
    assert np.abs(fd).max() > 1e-3
    assert rel_err(got, fd) < 1e-8


def test_expm_skew_is_one_tape_node():
    tape = ad.Tape()
    s = tape.input(skew(np.full(3, 0.4), 3))
    before = len(tape.values)
    sbd.expm_skew(s)
    assert len(tape.values) == before + 1


def test_detect_blocks_exact_and_dense():
    v = np.zeros((6, 6))
    v[:2, :2] = rot2(0.5)
    v[2:4, 2:4] = rot2(1.0)
    v[4:, 4:] = rot2(-0.7)
    structure = sbd.detect_blocks([v], threshold=0.01)
    assert structure.blocks == [(0, 1), (2, 3), (4, 5)]
    dense = sbd.detect_blocks([np.ones((4, 4))], threshold=0.01)
    assert dense.blocks == [(0, 1, 2, 3)]


def test_detect_blocks_with_noise():
    rng = np.random.default_rng(5)
    mats = []
    for _ in range(16):
        v = np.zeros((6, 6))
        for j in range(3):
            v[2 * j : 2 * j + 2, 2 * j : 2 * j + 2] = rot2(rng.uniform(0.3, 1.2))
        v += 0.001 * rng.normal(size=(6, 6)) * np.abs(v).max()
        mats.append(v)
    structure = sbd.detect_blocks(mats, threshold=0.01)
    assert structure.blocks == [(0, 1), (2, 3), (4, 5)]


def test_detect_blocks_are_the_components_of_random_thresholded_families():
    rng = np.random.default_rng(18)
    for trial in range(300):
        n = int(rng.integers(1, 10))
        count = int(rng.integers(1, 4))
        density = rng.uniform()
        mats = [np.eye(n) + rng.normal(size=(n, n)) * (rng.uniform(size=(n, n)) < density)
                for _ in range(count)]
        if trial % 50 == 0:
            mats = [np.eye(n)] * count  # no energy at all: every coordinate alone
        threshold = float(rng.choice([0.01, 0.1, 0.3, 0.6]))
        structure = sbd.detect_blocks(mats, threshold=threshold)
        energy = np.mean([np.abs(m - np.eye(n)) for m in mats], axis=0)
        edges = np.maximum(energy, energy.T) > threshold * energy.max()
        assert len(structure.blocks) == connected_components(edges.astype(float))
        members = [i for block in structure.blocks for i in block]
        assert sorted(members) == list(range(n))
        assert all(type(i) is int for i in members)
        assert all(list(b) == sorted(b) for b in structure.blocks)
        assert [b[0] for b in structure.blocks] == sorted(b[0] for b in structure.blocks)
        label = np.empty(n, dtype=int)
        for j, block in enumerate(structure.blocks):
            label[list(block)] = j
        # no edge joins two blocks, so with the count they are the components
        assert not (edges & (label[:, None] != label[None, :])).any()
        json.dumps(structure.to_dict())


def test_fit_sbd_recovers_planted_blocks():
    rng = np.random.default_rng(6)
    _, mats = planted_family(rng, k=3, count=24)
    result = sbd.fit_sbd(mats, iters=600, lr=0.05, seed=1)
    assert result.blocks.sizes() == [2, 2, 2]
    vs = result.conjugate(np.stack(mats))
    total = float((vs**2).sum())
    off = total
    for members in result.blocks.blocks:
        idx = np.array(members)
        off -= float((vs[:, idx[:, None], idx[None, :]] ** 2).sum())
    assert off / total < 0.01
    # orthogonality of the learned basis
    assert np.abs(result.u @ result.u.T - np.eye(6)).max() < 1e-8
    # loss history is the running best: non-increasing
    diffs = np.diff(result.loss_history)
    assert np.all(diffs <= 1e-15)


@pytest.mark.parametrize("seed", range(6))
def test_fit_sbd_keeps_already_block_diagonal_input(seed):
    # an axis-aligned family: the spectral start permutes the axes, block to block
    rng = np.random.default_rng(7)
    mats = [block_rotations(rng.uniform(0.3, 1.2, size=2)) for _ in range(8)]
    result = sbd.fit_sbd(mats, iters=150, lr=0.02, seed=seed)
    tape = ad.Tape()
    init_loss = np.mean([
        float(sbd.blockness_loss(tape.input(m)).value[0, 0]) for m in mats
    ])
    assert result.blocks.sizes() == [2, 2]
    assert result.loss_history[-1] <= init_loss + 1e-12


def test_fit_sbd_returns_the_best_loss_basis():
    # an unstructured family, so the basis moves far from every start
    rng = np.random.default_rng(9)
    mats = [rng.normal(size=(5, 5)) for _ in range(6)]
    result = sbd.fit_sbd(mats, iters=40, seed=0, restarts=2)
    tape = ad.Tape()
    got = np.mean([float(sbd.blockness_loss(tape.input(v)).value[0, 0])
                   for v in result.conjugate(np.stack(mats))])
    assert abs(got - result.loss_history[-1]) <= 1e-12 * got


def test_fit_sbd_deterministic():
    rng = np.random.default_rng(8)
    _, mats = planted_family(rng, k=2, count=8)
    r1 = sbd.fit_sbd(mats, iters=60, lr=0.05, seed=3)
    r2 = sbd.fit_sbd(mats, iters=60, lr=0.05, seed=3)
    assert np.array_equal(r1.u, r2.u)
    assert r1.loss_history == r2.loss_history
    assert r1.blocks.blocks == r2.blocks.blocks


def reference_fit_sbd(mats, iters, lr, seed, restarts, threshold=0.01):
    """The retraction loop on a tape, with Adam on the n(n-1)/2 free
    parameters of each skew step D, taken from zero and scattered into D by
    a (count, n^2) matrix of +-1 entries. The gradient is the tape's, in X
    of the loss at U = (I + X) R with X = 0 and the family a variable; then
    R <- (I - D/2)^{-1} (I + D/2) R. Also returns the loss of every start."""
    n = mats[0].shape[0]
    rows, cols = np.triu_indices(n, k=1)
    count = rows.size
    scatter = np.zeros((count, n * n))
    scatter[np.arange(count), rows * n + cols] = 1.0
    scatter[np.arange(count), cols * n + rows] = -1.0
    family, eye = np.stack(mats), np.eye(n)
    rng = np.random.default_rng(datagen.mix64(seed, 101))
    best_loss, best_u, history, start_losses = math.inf, None, [], []
    for restart in range(restarts):
        u0 = (sbd._spectral_basis(mats, rng) if restart == 0
              else np.linalg.qr(rng.normal(size=(n, n)))[0])
        conjugated = sbd._side_by_side(u0 @ family @ u0.T)
        rot = eye
        adam = AdamState(["p"], [(count, 1)], lr=lr)
        for it in range(iters):
            adam.lr = lr if it < int(0.6 * iters) else 0.3 * lr
            tape = ad.Tape()
            xv, fv = tape.input(np.zeros((n, n))), tape.input(conjugated)
            u = ad.matmul(ad.add(xv, tape.input(eye, grad=False)),
                          tape.input(rot, grad=False))
            loss = sbd._mean_blockness_batched(u, fv, n)
            value = float(loss.value[0, 0])
            if it == 0:
                start_losses.append(value)
            if value < best_loss:
                best_loss, best_u = value, u.value @ u0
            history.append(best_loss)
            tape.backward(loss)
            assert tape.grads[fv.index] is not None  # the family's gradient was formed
            g = tape.grad(xv)
            p = np.zeros((count, 1))
            adam_step(adam, {"p": p}, {"p": (g - g.T)[rows, cols].reshape(count, 1)})
            half = 0.5 * (p.T @ scatter).reshape(n, n)
            rot = np.linalg.solve(eye - half, (eye + half) @ rot)
    blocks = sbd.detect_blocks([best_u @ m @ best_u.T for m in mats], threshold=threshold)
    return best_u, history, blocks, start_losses


def noisy_c04_family():
    rng = np.random.default_rng(23)
    return [m + 0.05 * rng.normal(size=(8, 8)) for m in c04_family()[:24]]


def planted_224_family():
    rng = np.random.default_rng(24)
    q, _ = np.linalg.qr(rng.normal(size=(8, 8)))
    mats = []
    for _ in range(16):
        m = np.zeros((8, 8))
        m[:2, :2] = rot2(rng.uniform(0.3, 1.4))
        m[2:4, 2:4] = rot2(rng.uniform(0.3, 1.4))
        m[4:, 4:] = np.linalg.qr(rng.normal(size=(4, 4)))[0]
        mats.append(q @ m @ q.T)
    return mats


@pytest.mark.parametrize("family, seed, iters, restarts", [
    ("general", 0, 150, 2), ("noisy-c04", 1, 120, 2), ("planted-224", 2, 120, 3)])
def test_fit_sbd_matches_the_tape_retraction_reference_bitwise(family, seed, iters, restarts):
    # D from the skew gradient G - G^T moves its upper triangle exactly as the
    # free parameters with gradient G_rc - G_cr, and the fit's plain kernels,
    # which form no family gradient, give the tape's bits
    if family == "general":
        rng = np.random.default_rng(19)
        mats = [rng.normal(size=(6, 6)) for _ in range(8)]
    else:
        mats = noisy_c04_family() if family == "noisy-c04" else planted_224_family()
    result = sbd.fit_sbd(mats, iters=iters, seed=seed, restarts=restarts)
    u, history, blocks, start_losses = reference_fit_sbd(mats, iters, 0.05, seed, restarts)
    # the loop moves the best basis away from every start
    assert history[-1] < min(start_losses)
    assert np.array_equal(result.u, u)
    assert result.loss_history == history
    assert result.blocks == blocks


def test_fit_sbd_takes_one_eigensolver_call_per_fit_and_skew_steps(monkeypatch):
    eighs, steps = [], []
    real_eigh, real_adam = np.linalg.eigh, sbd.adam_step

    def eigh(*args, **kwargs):
        eighs.append(args)
        return real_eigh(*args, **kwargs)

    def refuse(*args, **kwargs):
        raise AssertionError("the fit takes no matrix exponential")

    def adam(state, params, grads):
        out = real_adam(state, params, grads)
        (delta,) = params.values()
        steps.append(delta.copy())
        return out

    monkeypatch.setattr(np.linalg, "eigh", eigh)
    monkeypatch.setattr(sbd, "expm_skew_np", refuse)
    monkeypatch.setattr(sbd, "expm_skew_grad", refuse)
    monkeypatch.setattr(sbd, "adam_step", adam)
    for iters, restarts in [(1, 1), (7, 3), (40, 2)]:
        eighs.clear()
        sbd.fit_sbd(c04_family()[:8], iters=iters, seed=0, restarts=restarts)
        assert len(eighs) == 1  # the spectral start
    assert len(steps) == 1 + 7 * 3 + 40 * 2
    assert any(delta.any() for delta in steps)
    for delta in steps:
        assert np.array_equal(delta + delta.T, np.zeros_like(delta))


@pytest.mark.parametrize("family", ["c04", "general"])
def test_fit_sbd_iterates_stay_orthogonal(family, monkeypatch):
    if family == "c04":
        mats = c04_family()
    else:
        rng = np.random.default_rng(19)
        mats = [rng.normal(size=(6, 6)) for _ in range(8)]
    n = mats[0].shape[0]
    worst = []
    real = sbd.mean_blockness_np

    def forward(u, side, buf):
        worst.append(np.abs(u @ u.T - np.eye(n)).max())
        return real(u, side, buf)

    monkeypatch.setattr(sbd, "mean_blockness_np", forward)
    result = sbd.fit_sbd(mats, iters=1000, seed=0, restarts=4)
    assert len(worst) == 4000 and max(worst) <= 1e-12
    assert np.abs(result.u @ result.u.T - np.eye(n)).max() <= 1e-12


def test_restrict_to_blocks():
    v = np.arange(16.0).reshape(4, 4)
    blocks = sbd.BlockStructure(blocks=[(0, 1), (2, 3)], threshold=0.01)
    kept = sbd.restrict_to_blocks(v, blocks, [0])
    np.testing.assert_array_equal(kept[:2, :2], v[:2, :2])
    np.testing.assert_array_equal(kept[2:, 2:], np.eye(2))
    assert np.all(kept[:2, 2:] == 0.0) and np.all(kept[2:, :2] == 0.0)
    none_kept = sbd.restrict_to_blocks(v, blocks, [])
    np.testing.assert_array_equal(none_kept, np.eye(4))
    both = sbd.restrict_to_blocks(v, blocks, [0, 1])
    block_diagonal = v.copy()
    block_diagonal[:2, 2:] = 0
    block_diagonal[2:, :2] = 0
    np.testing.assert_array_equal(both, block_diagonal)
    with pytest.raises(ContractError):
        sbd.restrict_to_blocks(v, blocks, [5])


def test_restricted_transition_moves_only_kept_coordinates():
    v = np.zeros((4, 4))
    v[:2, :2] = rot2(0.8)
    v[2:, 2:] = rot2(-0.3)
    blocks = sbd.BlockStructure(blocks=[(0, 1), (2, 3)], threshold=0.01)
    restricted = sbd.restrict_to_blocks(v, blocks, [0])
    z = np.array([1.0, 2.0, 3.0, 4.0])
    moved = restricted @ z
    assert np.array_equal(moved[2:], z[2:])
    assert np.abs(moved[:2] - rot2(0.8) @ z[:2]).max() < 1e-12


def test_assign_blocks_to_factors():
    blocks = sbd.BlockStructure(blocks=[(0, 1), (2, 3)], threshold=0.01)
    f0 = np.zeros((4, 4))
    f0[2:, 2:] = 1.0  # factor 0 activates the second block
    f1 = np.zeros((4, 4))
    f1[:2, :2] = 1.0
    assert sbd.assign_blocks_to_factors(blocks, [f0, f1]) == [1, 0]


def test_shape_errors():
    tape = ad.Tape()
    with pytest.raises(DimensionError):
        sbd.abs_adjacency(tape.input(np.ones((2, 3))))
    with pytest.raises(DimensionError):
        sbd.expm_skew(tape.input(np.ones((2, 3))))
    with pytest.raises(ContractError):
        sbd.fit_sbd([])


@pytest.mark.parametrize("op", [ad.sym_eig, sbd.expm_skew, sbd.abs_adjacency,
                                sbd.normalized_laplacian, sbd.blockness_loss],
                         ids=lambda op: op.__name__)
def test_two_dimensional_ops_reject_stacks(op):
    with pytest.raises(DimensionError, match="square matrix"):
        op(ad.Tape().input(np.ones((4, 4, 4))))


@pytest.mark.parametrize("iters, restarts", [(0, 1), (5, 0), (-1, -1)])
def test_fit_sbd_rejects_empty_budgets(iters, restarts):
    with pytest.raises(ContractError):
        sbd.fit_sbd(c04_family()[:8], iters=iters, seed=0, restarts=restarts)
