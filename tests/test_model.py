import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from mspred import autodiff as ad
from mspred import model as mm
from mspred.datagen import (GeneratorSpec, acceleration_spec, latent_rotation, make_dataset,
                            velocity_spec)
from mspred.errors import (ContractError, DimensionError, NumericError, SingularityError,
                           ValidationError)

from oracles import central_diff, lstsq_transition, rel_err


def rot2(theta):
    return np.array([[math.cos(theta), -math.sin(theta)],
                     [math.sin(theta), math.cos(theta)]])


def tiny_config(**kw):
    base = dict(a=2, m=3, enc_hidden=(4,), dec_hidden=(4,), mstar_hidden=(4,),
                batch_size=2, iterations=10, seed=3, T_c=2, T_p=1)
    base.update(kw)
    return mm.TrainConfig(**base)


def tiny_model(obs_dim=3, **kw):
    return mm.ModelParams.initialize(tiny_config(**kw), obs_dim)


def tape_latents(tape, arrays):
    return [tape.input(a) for a in arrays]


# ---------------------------------------------------------------------------
# transition estimation


def test_estimate_transition_identity_on_constant_latents():
    rng = np.random.default_rng(0)
    h = rng.normal(size=(3, 5))
    tape = ad.Tape()
    est = mm.estimate_transition(tape_latents(tape, [h, h, h]))
    assert np.abs(est.m_star.value - np.eye(3)).max() < 1e-10
    h01 = np.concatenate([h, h], axis=1)
    assert ((est.m_star.value @ h01 - h01) ** 2).sum() < 1e-18


def test_estimate_transition_exact_rotation():
    h0 = np.array([[1.0, 0.0, 2.0], [0.0, 1.0, -1.0]])
    h1 = rot2(math.pi / 3) @ h0
    tape = ad.Tape()
    est = mm.estimate_transition(tape_latents(tape, [h0, h1]))
    expected = np.array([[0.5, -math.sqrt(3) / 2], [math.sqrt(3) / 2, 0.5]])
    assert np.abs(est.m_star.value - expected).max() < 1e-10


def test_estimate_transition_matches_gaussian_elimination_oracle():
    rng = np.random.default_rng(1)
    for _ in range(20):
        lat = rng.normal(size=(3, 3, 5))
        h0 = np.concatenate([lat[0], lat[1]], axis=1)
        h1 = np.concatenate([lat[1], lat[2]], axis=1)
        tape = ad.Tape()
        est = mm.estimate_transition(tape_latents(tape, list(lat)))
        assert np.abs(est.m_star.value - lstsq_transition(h0, h1)).max() < 1e-10


def test_estimate_transition_requires_enough_columns():
    tape = ad.Tape()
    with pytest.raises(DimensionError):
        mm.estimate_transition(tape_latents(tape, [np.eye(3)[:, :2], np.eye(3)[:, :2]]))


def test_estimate_transition_flags_collapsed_encoder():
    tape = ad.Tape()
    flat = np.zeros((2, 4))
    with pytest.raises(SingularityError):
        mm.estimate_transition(tape_latents(tape, [flat, flat]))


def test_least_squares_optimality_under_perturbation():
    rng = np.random.default_rng(2)
    lat = rng.normal(size=(3, 3, 5))
    h0 = np.concatenate([lat[0], lat[1]], axis=1)
    h1 = np.concatenate([lat[1], lat[2]], axis=1)
    tape = ad.Tape()
    est = mm.estimate_transition(tape_latents(tape, list(lat)))
    base = ((est.m_star.value @ h0 - h1) ** 2).sum()
    for _ in range(100):
        direction = rng.normal(size=(3, 3))
        perturbed = est.m_star.value + 1e-3 * direction
        assert ((perturbed @ h0 - h1) ** 2).sum() >= base - 1e-15


def test_blockwise_identity_and_zero_offblocks():
    rng = np.random.default_rng(3)
    h = rng.normal(size=(4, 6))
    tape = ad.Tape()
    est = mm.estimate_transition_blockwise(tape_latents(tape, [h, h]))
    assert np.abs(est.m_star.value - np.eye(4)).max() < 1e-10
    off = est.m_star.value.copy()
    off[0:2, 0:2] = 0
    off[2:4, 2:4] = 0
    assert np.all(off == 0.0)  # exactly zero, by construction


def test_blockwise_matches_full_estimate_on_block_diagonal_truth():
    rng = np.random.default_rng(4)
    z = rng.normal(size=(4, 6))
    r = np.zeros((4, 4))
    r[0:2, 0:2] = rot2(0.4)
    r[2:4, 2:4] = rot2(-1.1)
    lats = [z, r @ z, r @ r @ z]
    tape = ad.Tape()
    full = mm.estimate_transition(tape_latents(tape, lats))
    blockwise = mm.estimate_transition_blockwise(tape_latents(tape, lats))
    assert np.abs(full.m_star.value - blockwise.m_star.value).max() < 1e-10


def test_blockwise_requires_even_split():
    tape = ad.Tape()
    h = np.random.default_rng(5).normal(size=(3, 5))
    with pytest.raises(ContractError):
        mm.estimate_transition_blockwise(tape_latents(tape, [h, h]))


def test_rollout_identity_rotation_and_recurrence():
    rng = np.random.default_rng(6)
    h = rng.normal(size=(2, 4))
    tape = ad.Tape()
    est = mm.estimate_transition(tape_latents(tape, [h, h]))
    outs = mm.rollout(est, tape.input(h), 3)
    for o in outs:
        assert np.abs(o.value - h).max() < 1e-9

    theta = 0.7
    h1 = rot2(theta) @ h
    tape2 = ad.Tape()
    est2 = mm.estimate_transition(tape_latents(tape2, [h, h1]))
    hv = tape2.input(h)
    outs2 = mm.rollout(est2, hv, 4)
    for j, o in enumerate(outs2, start=1):
        assert np.abs(o.value - rot2(j * theta) @ h).max() < 1e-9
    # recurrence: second step is one more multiplication of the first
    again = mm.rollout(est2, hv, 2)
    step = ad.matmul(est2.m_star, again[0])
    assert np.array_equal(again[1].value, step.value)


def test_rollout_contracts():
    tape = ad.Tape()
    h = tape.input(np.eye(2))
    est1 = mm.TransitionEstimate(order=1, m_star=h, m_last=None)
    with pytest.raises(ContractError):
        mm.rollout(est1, h, 0)


# ---------------------------------------------------------------------------
# second order


def exact_accel_latents(z0, theta0, v, alpha, count):
    lats = []
    for t in range(count):
        theta = theta0 + v * t + alpha * (t * (t - 1) / 2.0)
        lats.append(rot2(theta) @ z0)
    return lats


def test_second_order_identity_on_constant_velocity():
    rng = np.random.default_rng(7)
    z0 = rng.normal(size=(2, 4))
    lats = exact_accel_latents(z0, 0.3, 0.5, 0.0, 5)
    tape = ad.Tape()
    est = mm.estimate_second_order(tape_latents(tape, lats))
    assert np.abs(est.m_star.value - np.eye(2)).max() < 1e-10
    assert np.abs(est.m_last.value - rot2(0.5)).max() < 1e-10


def test_second_order_recovers_acceleration_rotation():
    rng = np.random.default_rng(8)
    z0 = rng.normal(size=(2, 4))
    v, alpha = 0.4, 0.07
    lats = exact_accel_latents(z0, 1.1, v, alpha, 5)
    tape = ad.Tape()
    est = mm.estimate_second_order(tape_latents(tape, lats))
    assert np.abs(est.m_star.value - rot2(alpha)).max() < 1e-8
    assert np.abs(est.m_last.value - rot2(v + alpha * 3)).max() < 1e-8


def test_second_order_matches_two_stage_gauss_oracle():
    rng = np.random.default_rng(9)
    for _ in range(10):
        lats = [rng.normal(size=(3, 6)) + 2 * np.eye(3, 6) for _ in range(5)]
        tape = ad.Tape()
        est = mm.estimate_second_order(tape_latents(tape, lats))
        vel = [lstsq_transition(lats[t - 1], lats[t]) for t in range(1, 5)]
        v0 = np.concatenate(vel[:-1], axis=1)
        v1 = np.concatenate(vel[1:], axis=1)
        acc = lstsq_transition(v0, v1)
        assert np.abs(est.m_star.value - acc).max() < 1e-9


def test_second_order_requires_three_frames_and_wide_latents():
    tape = ad.Tape()
    h = np.random.default_rng(10).normal(size=(2, 4))
    with pytest.raises(ContractError):
        mm.estimate_second_order(tape_latents(tape, [h, h]))
    tall = np.random.default_rng(10).normal(size=(4, 2))
    with pytest.raises(DimensionError):
        mm.estimate_second_order(tape_latents(tape, [tall, tall, tall]))


def test_second_order_rank_failure_names_frame():
    tape = ad.Tape()
    good = np.random.default_rng(11).normal(size=(2, 4))
    flat = np.zeros((2, 4))
    with pytest.raises(SingularityError, match="frame 1"):
        mm.estimate_second_order(tape_latents(tape, [good, flat, good]))


def test_batched_second_order_rank_failure_names_sequence_and_frame():
    lats = np.random.default_rng(11).normal(size=(4, 3, 2, 4))
    lats[2, 1] = 0.0  # frame 2 of sequence 1
    tape = ad.Tape()
    with pytest.raises(SingularityError, match=r"frame 2: matrix 1: ") as exc:
        mm.estimate_second_order(tape_latents(tape, lats))
    assert exc.value.matrix == 1 and exc.value.pivot == 0


def test_model_paths_use_only_the_fused_solve(monkeypatch):
    def banned(*args):
        raise AssertionError("a model path called a composite solve")

    monkeypatch.setattr(ad, "pinv_right", banned)
    monkeypatch.setattr(ad, "spd_inverse", banned)
    obs = np.random.default_rng(23).normal(size=(3, 8, 5))
    for variant, order, t_c in [("msp", 1, 3), ("msp", 2, 4), ("fixed_blocks", 1, 2),
                                ("rec_model", 1, 3)]:
        cfg = tiny_config(a=4, m=6, enc_hidden=(8,), dec_hidden=(8,), variant=variant,
                          order=order, T_c=t_c, T_p=2)
        params = mm.ModelParams.initialize(cfg, obs_dim=5)
        tape = ad.Tape()
        tape.backward(mm.variant_loss(mm.TapeModel(tape, params), obs, cfg))
        mm.horizon_errors_np(params, obs, t_c, 2, order=order, transition=cfg.transition)


def test_rollout_second_order_reduces_to_first_order_when_acc_identity():
    rng = np.random.default_rng(12)
    z0 = rng.normal(size=(2, 4))
    lats = exact_accel_latents(z0, 0.2, 0.6, 0.0, 5)
    tape = ad.Tape()
    est = mm.estimate_second_order(tape_latents(tape, lats))
    h = tape.input(lats[-1])
    preds = mm.rollout(est, h, 3)
    est1 = mm.TransitionEstimate(order=1, m_star=est.m_last, m_last=None)
    ref = mm.rollout(est1, h, 3)
    for p, r in zip(preds, ref):
        assert np.abs(p.value - r.value).max() < 1e-8


def test_rollout_second_order_one_step_definition():
    rng = np.random.default_rng(13)
    z0 = rng.normal(size=(2, 4))
    lats = exact_accel_latents(z0, 0.9, 0.3, 0.05, 4)
    tape = ad.Tape()
    est = mm.estimate_second_order(tape_latents(tape, lats))
    h = tape.input(lats[-1])
    one = mm.rollout(est, h, 1)[0]
    manual = ad.matmul(ad.matmul(est.m_star, est.m_last), h)
    assert np.array_equal(one.value, manual.value)


def test_rollout_second_order_angle_bookkeeping():
    rng = np.random.default_rng(14)
    z0 = rng.normal(size=(2, 4))
    theta0, v, alpha = 0.25, 0.31, 0.04
    t_c = 5
    lats = exact_accel_latents(z0, theta0, v, alpha, t_c)
    tape = ad.Tape()
    est = mm.estimate_second_order(tape_latents(tape, lats))
    preds = mm.rollout(est, tape.input(lats[-1]), 4)
    for j, p in enumerate(preds, start=1):
        t = t_c - 1 + j
        theta = theta0 + v * t + alpha * (t * (t - 1) / 2.0)
        assert np.abs(p.value - rot2(theta) @ z0).max() < 1e-7


# ---------------------------------------------------------------------------
# transition algebra on exact data (power / shift laws)


def test_stride_two_transition_is_square():
    rng = np.random.default_rng(15)
    z0 = rng.normal(size=(2, 5))
    lats = exact_accel_latents(z0, 0.5, 0.37, 0.0, 6)
    tape = ad.Tape()
    m1 = mm.estimate_transition(tape_latents(tape, lats)).m_star.value
    m2 = mm.estimate_transition(tape_latents(tape, lats[::2])).m_star.value
    assert np.abs(m2 - m1 @ m1).max() < 1e-8


def test_shifted_window_gives_same_transition():
    rng = np.random.default_rng(16)
    z0 = rng.normal(size=(2, 5))
    lats = exact_accel_latents(z0, 1.3, -0.41, 0.0, 6)
    tape = ad.Tape()
    m_a = mm.estimate_transition(tape_latents(tape, lats[0:4])).m_star.value
    m_b = mm.estimate_transition(tape_latents(tape, lats[1:5])).m_star.value
    assert np.abs(m_a - m_b).max() < 1e-8


# ---------------------------------------------------------------------------
# model + losses


def desk_model(variant="msp", **kw):
    return mm.ModelParams.initialize(mm.TrainConfig(a=8, m=16, variant=variant, **kw),
                                     obs_dim=24)


def test_params_live_in_one_flat_buffer_in_checkpoint_order():
    params = desk_model("neural_mstar")
    tensors = params.named_tensors()
    assert params.flat.size == sum(t.size for t in tensors.values())
    assert np.array_equal(params.flat, np.concatenate([t.ravel() for t in tensors.values()]))
    assert all(np.shares_memory(t, params.flat) for t in tensors.values())
    other = params.copy()
    assert not np.shares_memory(other.flat, params.flat)
    assert all(np.shares_memory(t, other.flat) for t in other.named_tensors().values())
    # apply_named writes through the views into the same buffer
    flat = params.flat
    params.apply_named({n: np.full(t.shape, 0.5) for n, t in tensors.items()})
    assert params.flat is flat and (flat == 0.5).all()
    assert (params.enc[0][0] == 0.5).all()


def test_tape_leaves_are_read_only_views_of_the_parameters():
    params = desk_model()
    mm.TapeModel(ad.Tape(), params)
    tracemalloc.start()
    try:
        bound = mm.TapeModel(ad.Tape(), params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 128 * 1024, f"building a TapeModel allocated {peak} bytes"
    for var in bound.leaf_vars.values():
        assert np.shares_memory(var.value, params.flat)
        assert not var.value.flags.writeable
    assert params.flat.flags.writeable


@pytest.mark.parametrize("name", list(desk_model().named_tensors()))
def test_non_finite_parameter_is_rejected_when_the_tape_model_is_built(name):
    params = desk_model()
    params.named_tensors()[name].flat[-1] = np.nan
    with pytest.raises(NumericError, match=name):
        mm.TapeModel(ad.Tape(), params)


def test_encode_decode_shapes_and_determinism():
    params = tiny_model()
    x = np.array([[0.1, -0.5, 0.8], [0.4, 0.2, -0.3]])
    tape = ad.Tape()
    bound = mm.TapeModel(tape, params)
    h = bound.encode_rows(tape.input(x))
    assert h.shape == (2, 6)  # one flattened (a, m) latent per row
    out = bound.decode_rows(h)
    assert out.shape == (2, 3)
    tape2 = ad.Tape()
    bound2 = mm.TapeModel(tape2, params)
    assert np.array_equal(h.value, bound2.encode_rows(tape2.input(x)).value)
    # rows are encoded independently of the rest of the batch
    one = bound2.encode_rows(tape2.input(x[1:])).value
    np.testing.assert_allclose(one, h.value[1:], rtol=1e-14, atol=1e-15)


def test_encode_gradient_matches_fd():
    params = tiny_model()
    x0 = np.array([[0.3, -0.2, 0.9]])

    def forward(x):
        tape = ad.Tape()
        bound = mm.TapeModel(tape, params)
        return float(ad.frobenius_sq(bound.encode_rows(tape.input(x))).value[0, 0])

    tape = ad.Tape()
    bound = mm.TapeModel(tape, params)
    xv = tape.input(x0)
    tape.backward(ad.frobenius_sq(bound.encode_rows(xv)))
    assert rel_err(tape.grad(xv), central_diff(forward, x0)) < 1e-4


def flatten_params(params):
    tensors = params.named_tensors()
    names = sorted(tensors)
    vec = np.concatenate([tensors[n].ravel() for n in names])
    shapes = [(n, tensors[n].shape) for n in names]
    return vec, shapes


def unflatten_params(params, vec, shapes):
    out = params.copy()
    tensors = {}
    off = 0
    for name, shape in shapes:
        size = int(np.prod(shape))
        tensors[name] = vec[off : off + size].reshape(shape).copy()
        off += size
    out.apply_named(tensors)
    return out


def test_loss_pred_gradient_matches_fd_tiny_shapes():
    params = tiny_model()
    spec = GeneratorSpec(k=1, obs_dim=3, T=3, num_sequences=2, mixing_seed=2)
    obs = make_dataset(spec, master_seed=5).observations
    vec0, shapes = flatten_params(params)

    def forward(vec):
        p = unflatten_params(params, vec, shapes)
        tape = ad.Tape()
        return float(mm.loss_pred(mm.TapeModel(tape, p), obs, 2, 1).value[0, 0])

    tape = ad.Tape()
    bound = mm.TapeModel(tape, params)
    tape.backward(mm.loss_pred(bound, obs, 2, 1))
    grads = bound.gradients()
    analytic = np.concatenate([grads[n].ravel() for n, _ in shapes])
    numeric = central_diff(forward, vec0)
    assert rel_err(analytic, numeric) < 1e-4


def test_loss_pred_compositional_equality_single_sequence():
    params = tiny_model()
    spec = GeneratorSpec(k=1, obs_dim=3, T=4, num_sequences=1, mixing_seed=2)
    obs = make_dataset(spec, master_seed=6).observations
    t_c, t_p = 2, 2

    tape = ad.Tape()
    bound = mm.TapeModel(tape, params)
    loss = mm.loss_pred(bound, obs, t_c, t_p)

    tape2 = ad.Tape()
    bound2 = mm.TapeModel(tape2, params)
    enc = bound2.encode_rows(tape2.input(obs[0, :t_c]))
    lat = [ad.reshape(ad.slice_rows(enc, t, t + 1), 2, 3) for t in range(t_c)]
    est = mm.estimate_transition(lat)
    preds = mm.rollout(est, lat[-1], t_p)
    rows = ad.vcat([ad.reshape(p, 1, 6) for p in preds])
    decoded = bound2.decode_rows(rows)
    diff = ad.sub(decoded, tape2.input(obs[0, t_c : t_c + t_p]))
    manual = ad.scale(ad.frobenius_sq(diff), 1.0 / t_p)
    assert np.array_equal(loss.value, manual.value)


def _blockwise_2d(tape, lat, block=2):
    """The direct sum of per-block 2-D solves, assembled with zero blocks."""
    n_blocks = lat[0].shape[0] // block
    zero = tape.input(np.zeros((block, block)))
    bands = []
    for r in range(n_blocks):
        est = mm.estimate_transition([ad.slice_rows(h, r * block, (r + 1) * block) for h in lat])
        band = [zero] * n_blocks
        band[r] = est.m_star
        bands.append(ad.hcat(band))
    return mm.TransitionEstimate(order=1, m_star=ad.vcat(bands), m_last=None)


def per_sequence_loss(bound, obs, T_c, T_p, kind):
    """Reference loss: one 2-D estimate and rollout per sequence, in a loop."""
    tape = bound.tape
    n_seq, _, n_dim = obs.shape
    a, m = bound.a, bound.m
    enc = bound.encode_rows(tape.input(obs[:, :T_c].reshape(n_seq * T_c, n_dim)))
    if kind == "neural":
        head = bound.transition_rows(tape.input(obs[:, :T_c].reshape(n_seq, T_c * n_dim)))
    rows = []
    for i in range(n_seq):
        lat = [ad.reshape(ad.slice_rows(enc, i * T_c + t, i * T_c + t + 1), a, m)
               for t in range(T_c)]
        start = lat[-1]
        if kind == "lstsq2":
            preds = mm.rollout(mm.estimate_second_order(lat), start, T_p)
        else:
            if kind == "blockwise":
                est = _blockwise_2d(tape, lat)
            elif kind == "neural":
                mat = ad.reshape(ad.slice_rows(head, i, i + 1), a, a)
                est = mm.TransitionEstimate(order=1, m_star=mat, m_last=None)
            else:
                est = mm.estimate_transition(lat)
            if kind == "rec":
                start = lat[0]
            preds = mm.rollout(est, start, T_p)
        rows.extend(ad.reshape(p, 1, a * m) for p in preds)
    first = 1 if kind == "rec" else T_c
    targets = obs[:, first : first + T_p].reshape(n_seq * T_p, n_dim)
    diff = ad.sub(bound.decode_rows(ad.vcat(rows)), tape.input(targets))
    return ad.scale(ad.frobenius_sq(diff), 1.0 / (n_seq * T_p))


BATCHED_CASES = {  # kind: (variant, order, T_c, T_p)
    "lstsq1": ("msp", 1, 3, 2),
    "lstsq2": ("msp", 2, 4, 2),
    "blockwise": ("fixed_blocks", 1, 2, 2),
    "neural": ("neural_mstar", 1, 2, 2),
    "rec": ("rec_model", 1, 3, 2),
}


@pytest.mark.parametrize("kind", list(BATCHED_CASES))
def test_batched_loss_and_gradients_equal_per_sequence_loop_bitwise(kind):
    variant, order, t_c, t_p = BATCHED_CASES[kind]
    cfg = tiny_config(a=4, m=6, enc_hidden=(8,), dec_hidden=(8,), mstar_hidden=(8,),
                      variant=variant, order=order, T_c=t_c, T_p=t_p,
                      invertibility_weight=0.0)
    params = mm.ModelParams.initialize(cfg, obs_dim=5)
    obs = np.random.default_rng(21).normal(size=(3, t_c + t_p, 5))

    tape = ad.Tape()
    bound = mm.TapeModel(tape, params)
    if kind == "rec":
        loss = mm.loss_rec(bound, obs, t_c)
    else:
        loss = mm.loss_pred(bound, obs, t_c, t_p, order=order,
                            transition=cfg.transition)
    tape.backward(loss)

    ref_tape = ad.Tape()
    ref_bound = mm.TapeModel(ref_tape, params)
    ref = per_sequence_loss(ref_bound, obs, t_c, t_c - 1 if kind == "rec" else t_p, kind)
    ref_tape.backward(ref)

    assert np.array_equal(loss.value, ref.value)
    ref_grads = ref_bound.gradients()
    for name, grad in bound.gradients().items():
        assert np.array_equal(grad, ref_grads[name]), name


def test_loss_pred_tape_size_is_independent_of_batch_size():
    params = tiny_model(obs_dim=5, a=4, m=6)
    obs = np.random.default_rng(22).normal(size=(16, 3, 5))
    sizes = []
    for n_seq in (2, 16):
        tape = ad.Tape()
        mm.loss_pred(mm.TapeModel(tape, params), obs[:n_seq], 2, 1)
        sizes.append(len(tape.values))
    assert sizes[0] == sizes[1]


def test_loss_rec_equals_a_manual_rollout():
    spec = GeneratorSpec(k=1, obs_dim=4, T=3, num_sequences=4, mixing_seed=3)
    batch = make_dataset(spec, master_seed=8)
    obs = batch.observations[:1, :, :4]
    params2 = mm.ModelParams.initialize(tiny_config(), obs_dim=4)
    tape3 = ad.Tape()
    loss3 = mm.loss_rec(mm.TapeModel(tape3, params2), obs, 3)
    tape4 = ad.Tape()
    bound4 = mm.TapeModel(tape4, params2)
    enc = bound4.encode_rows(tape4.input(obs[0, :3]))
    lat = [ad.reshape(ad.slice_rows(enc, t, t + 1), 2, 3) for t in range(3)]
    est = mm.estimate_transition(lat)
    preds = mm.rollout(est, lat[0], 2)
    decoded = bound4.decode_rows(ad.vcat([ad.reshape(p, 1, 6) for p in preds]))
    manual = ad.scale(ad.frobenius_sq(ad.sub(decoded, tape4.input(obs[0, 1:3]))), 1.0 / 2)
    assert np.array_equal(loss3.value, manual.value)


def test_invertibility_loss_equals_a_manual_value():
    spec = GeneratorSpec(k=1, obs_dim=4, T=3, num_sequences=3, mixing_seed=5)
    batch = make_dataset(spec, master_seed=9)
    params = mm.ModelParams.initialize(tiny_config(), obs_dim=4)
    one = batch.observations[:1]
    tape2 = ad.Tape()
    loss2 = mm.invertibility_loss(mm.TapeModel(tape2, params), one, 1)
    frame = one[0, 0:1]
    rec = params.decode_rows_np(params.encode_rows_np(frame))
    manual = ((rec - frame) ** 2).sum()
    assert abs(loss2.value[0, 0] - manual) < 1e-12


def test_variant_loss_neural_weight_zero_equals_plain_pred():
    cfg = tiny_config(variant="neural_mstar", invertibility_weight=0.0)
    params = mm.ModelParams.initialize(cfg, obs_dim=3)
    spec = GeneratorSpec(k=1, obs_dim=3, T=3, num_sequences=2, mixing_seed=2)
    obs = make_dataset(spec, master_seed=10).observations
    tape = ad.Tape()
    full = mm.variant_loss(mm.TapeModel(tape, params), obs, cfg)
    tape2 = ad.Tape()
    plain = mm.loss_pred(mm.TapeModel(tape2, params), obs, 2, 1, transition="neural")
    assert np.array_equal(full.value, plain.value)


def neural_objective_case():
    cfg = tiny_config(variant="neural_mstar", invertibility_weight=0.5)
    params = mm.ModelParams.initialize(cfg, obs_dim=3)
    spec = GeneratorSpec(k=1, obs_dim=3, T=3, num_sequences=3, mixing_seed=2)
    return cfg, params, make_dataset(spec, master_seed=13).observations


def test_neural_objective_encodes_each_frame_once():
    cfg, params, obs = neural_objective_case()
    tape = ad.Tape()
    bound = mm.TapeModel(tape, params)
    mm.variant_loss(bound, obs, cfg)
    w = bound.leaf_vars["enc0.w"].index
    assert sum(w in parents for parents in tape.parents) == 1


def test_variant_loss_neural_is_pred_plus_weighted_invertibility():
    cfg, params, obs = neural_objective_case()
    tape = ad.Tape()
    full = mm.variant_loss(mm.TapeModel(tape, params), obs, cfg)
    pred = mm.loss_pred(mm.TapeModel(ad.Tape(), params), obs, 2, 1, transition="neural")
    inv = mm.invertibility_loss(mm.TapeModel(ad.Tape(), params), obs, 2)
    assert np.array_equal(full.value, pred.value + inv.value * 0.5)


def test_variant_loss_neural_gradient_matches_fd_tiny_shapes():
    cfg, params, obs = neural_objective_case()
    vec0, shapes = flatten_params(params)

    def forward(vec):
        tape = ad.Tape()
        p = unflatten_params(params, vec, shapes)
        return float(mm.variant_loss(mm.TapeModel(tape, p), obs, cfg).value[0, 0])

    tape = ad.Tape()
    bound = mm.TapeModel(tape, params)
    tape.backward(mm.variant_loss(bound, obs, cfg))
    grads = bound.gradients()
    analytic = np.concatenate([grads[n].ravel() for n, _ in shapes])
    assert rel_err(analytic, central_diff(forward, vec0)) < 1e-6


def test_neural_fit_equals_the_all_frames_encoding():
    _, params, obs = neural_objective_case()
    n_seq, _, n_dim = obs.shape
    fit = mm.fit_np(params, obs, 2, order=1, transition="neural")
    enc = params.encode_rows_np(obs[:, :2].reshape(n_seq * 2, n_dim)).reshape(n_seq, 2, 2, 3)
    head = params.transition_rows_np(obs[:, :2].reshape(n_seq, 2 * n_dim))
    assert fit.vel is None
    assert np.array_equal(fit.last, enc[:, -1])
    assert np.array_equal(fit.op, head.reshape(n_seq, 2, 2))


def test_neural_mstar_shape_and_gradient():
    cfg = tiny_config(variant="neural_mstar")
    params = mm.ModelParams.initialize(cfg, obs_dim=3)
    # two sequences' T_c = 2 conditioning frames, one flattened row each
    cond = np.random.default_rng(20).normal(size=(2, 2, 3)).reshape(2, 6)
    tape = ad.Tape()
    bound = mm.TapeModel(tape, params)
    assert bound.transition_rows(tape.input(cond)).shape == (2, 4)  # one (a, a) per row

    vec0, shapes = flatten_params(params)

    def forward(vec):
        t = ad.Tape()
        head = mm.TapeModel(t, unflatten_params(params, vec, shapes)).transition_rows(t.input(cond))
        return float(ad.frobenius_sq(head).value[0, 0])

    tape2 = ad.Tape()
    bound2 = mm.TapeModel(tape2, params)
    tape2.backward(ad.frobenius_sq(bound2.transition_rows(tape2.input(cond))))
    grads = bound2.gradients()
    analytic = np.concatenate([grads[n].ravel() for n, _ in shapes])
    assert rel_err(analytic, central_diff(forward, vec0)) < 1e-4


def test_neural_head_initial_bias_is_identity():
    cfg = tiny_config(variant="neural_mstar")
    params = mm.ModelParams.initialize(cfg, obs_dim=3)
    _, bias = params.mstar[-1]
    np.testing.assert_array_equal(bias.reshape(2, 2), np.eye(2))


def test_loss_pred_batch_equals_mean_of_singles():
    params = tiny_model()
    spec = GeneratorSpec(k=1, obs_dim=3, T=3, num_sequences=3, mixing_seed=2)
    obs = make_dataset(spec, master_seed=11).observations
    tape = ad.Tape()
    batch_loss = mm.loss_pred(mm.TapeModel(tape, params), obs, 2, 1).value[0, 0]
    singles = []
    for i in range(3):
        t = ad.Tape()
        singles.append(mm.loss_pred(mm.TapeModel(t, params), obs[i], 2, 1).value[0, 0])
    assert abs(batch_loss - np.mean(singles)) < 1e-12


def test_numpy_mirror_agrees_with_tape_path():
    params = tiny_model()
    spec = GeneratorSpec(k=1, obs_dim=3, T=5, num_sequences=4, mixing_seed=2)
    obs = make_dataset(spec, master_seed=12).observations
    errs = mm.horizon_errors_np(params, obs, 2, 3, order=1, transition="lstsq")
    # horizon h error equals tape loss_pred with T_p = h restricted to step h
    for h in (1, 2, 3):
        per_frame = []
        for i in range(4):
            tape = ad.Tape()
            bound = mm.TapeModel(tape, params)
            enc = bound.encode_rows(tape.input(obs[i, :2]))
            lat = [ad.reshape(ad.slice_rows(enc, t, t + 1), 2, 3) for t in range(2)]
            est = mm.estimate_transition(lat)
            pred = mm.rollout(est, lat[-1], h)[-1]
            dec = bound.decode_rows(ad.reshape(pred, 1, 6))
            per_frame.append(((dec.value[0] - obs[i, 2 + h - 1]) ** 2).sum())
        assert abs(errs[h - 1] - np.mean(per_frame)) < 1e-10


def unblocked_mlp(layers, x):
    """The forward-only MLP as one pass over all rows."""
    h = x
    for i, (w, b) in enumerate(layers):
        h = h @ w + b
        if i < len(layers) - 1:
            h = np.tanh(h)
    return h


@pytest.mark.parametrize("rows", [1, 2, mm.ROW_BLOCK // 2 - 1, mm.ROW_BLOCK // 2,
                                  mm.ROW_BLOCK - 1, mm.ROW_BLOCK, mm.ROW_BLOCK + 1,
                                  2 * mm.ROW_BLOCK + 1, 9216])
def test_row_blocked_forward_equals_one_pass_bitwise(rows):
    params = desk_model("neural_mstar")
    rng = np.random.default_rng(rows)
    frames = rng.normal(size=(rows, params.obs_dim))
    latents = rng.normal(size=(rows, params.a * params.m))
    assert np.array_equal(params.encode_rows_np(frames), unblocked_mlp(params.enc, frames))
    assert np.array_equal(params.decode_rows_np(latents), unblocked_mlp(params.dec, latents))
    # a strided view of rows, as a neural fit passes the last conditioning frames
    cond = rng.normal(size=(rows, 2 * params.obs_dim))
    assert np.array_equal(params.encode_rows_np(cond[:, params.obs_dim:]),
                          unblocked_mlp(params.enc, cond[:, params.obs_dim:]))
    assert np.array_equal(params.transition_rows_np(cond),
                          unblocked_mlp(params.mstar, cond))


def three_node_mlp(layers, x):
    """``TapeModel._mlp`` as a matmul node, a broadcast bias-add node and a
    tanh node per layer, each with its own VJP expression."""
    tape = x.tape
    h = x
    for i, (w, b) in enumerate(layers):
        h = ad.matmul(h, w)
        h = tape._push(h.value + b.value, (h.index, b.index),
                       lambda g: (g, g.sum(axis=0, keepdims=True)))
        if i < len(layers) - 1:
            y = np.tanh(h.value)
            h = tape._push(y, (h.index,), lambda g, y=y: (g * (1.0 - y * y),))
    return h


def perturbed_desk_model(variant, seed):
    """Desk-sized parameters with nonzero biases (a fresh init has zero biases)."""
    params = desk_model(variant)
    params.flat += 0.1 * np.random.default_rng(seed).normal(size=params.flat.shape)
    return params


def mlp_values_and_grads(params, group, x, weight, mlp):
    tape = ad.Tape()
    bound = mm.TapeModel(tape, params)
    xv = tape.input(x)
    out = mlp(getattr(bound, f"_{group}"), xv)
    tape.backward(ad.reduce_sum(ad.hadamard(out, tape.input(weight))))
    return out.value.copy(), tape.grad(xv).copy(), bound.gradients()


@pytest.mark.parametrize("rows", [32, 64, 160])
@pytest.mark.parametrize("group", ["enc", "dec", "mstar"])
def test_dense_mlp_equals_three_node_layers_bitwise(rows, group):
    params = perturbed_desk_model("neural_mstar", rows)
    width = {"enc": params.obs_dim, "dec": params.a * params.m,
             "mstar": params.T_c * params.obs_dim}[group]
    out_width = {"enc": params.a * params.m, "dec": params.obs_dim,
                 "mstar": params.a * params.a}[group]
    rng = np.random.default_rng(rows + 1)
    x = rng.normal(size=(rows, width))
    weight = rng.normal(size=(rows, out_width))
    got = mlp_values_and_grads(params, group, x, weight, mm.TapeModel._mlp)
    want = mlp_values_and_grads(params, group, x, weight, three_node_mlp)
    assert np.array_equal(got[0], want[0])
    assert np.array_equal(got[1], want[1])
    assert got[2].keys() == want[2].keys()
    for name in got[2]:
        assert np.array_equal(got[2][name], want[2][name]), name


@pytest.mark.parametrize("variant, order", [("msp", 1), ("neural_mstar", 1), ("msp", 2)],
                         ids=["msp", "neural", "accel"])
def test_training_step_through_dense_equals_three_node_layers_bitwise(monkeypatch, variant,
                                                                      order):
    # the neural objective decodes twice (prediction and invertibility), so
    # each decoder weight sums two gradients
    params = perturbed_desk_model(variant, 5)
    cfg = mm.TrainConfig(a=8, m=16, variant=variant, order=order).resolved()
    spec = acceleration_spec() if order == 2 else velocity_spec()
    obs = make_dataset(replace(spec, num_sequences=32), master_seed=4,
                       mode="acceleration" if order == 2 else "velocity").observations

    def step():
        tape = ad.Tape()
        bound = mm.TapeModel(tape, params)
        loss = mm.variant_loss(bound, obs[:, : cfg.T_c + cfg.T_p], cfg)
        tape.backward(loss)
        return loss.value.copy(), bound.gradients(), len(tape.values)

    loss, grads, nodes = step()
    monkeypatch.setattr(mm.TapeModel, "_mlp", staticmethod(three_node_mlp))
    ref_loss, ref_grads, ref_nodes = step()
    assert ref_nodes > nodes  # the reference layers really ran
    assert np.array_equal(loss, ref_loss)
    assert grads.keys() == ref_grads.keys()
    for name in grads:
        assert np.array_equal(grads[name], ref_grads[name]), name


@pytest.mark.parametrize("variant, count", [("msp", 2), ("neural_mstar", 3), ("fixed_blocks", 3)])
def test_constant_rows_and_targets_keep_desk_gradients_bitwise(monkeypatch, variant, count):
    # the objective enters its observation rows, condition rows, targets and
    # mask as constants; a tape that enters them as variables forms their
    # gradients too, and every parameter gradient must come out the same
    params = perturbed_desk_model(variant, 6)
    cfg = mm.TrainConfig(a=8, m=16, variant=variant).resolved()
    obs = make_dataset(replace(velocity_spec(), num_sequences=32),
                       master_seed=4).observations[:, : cfg.T_c + cfg.T_p]

    def step():
        tape = ad.Tape()
        bound = mm.TapeModel(tape, params)
        loss = mm.variant_loss(bound, obs, cfg)
        tape.backward(loss)
        return loss.value.copy(), bound.gradients(), len(tape.constants)

    loss, grads, constants = step()
    real_input = ad.Tape.input
    monkeypatch.setattr(ad.Tape, "input", lambda self, data, grad=True: real_input(self, data))
    ref_loss, ref_grads, ref_constants = step()
    assert constants == count and ref_constants == 0
    assert np.array_equal(loss, ref_loss)
    assert grads.keys() == ref_grads.keys()
    for name in grads:
        assert np.array_equal(grads[name], ref_grads[name]), name


@pytest.mark.parametrize("rows", [3, 2 * mm.ROW_BLOCK + 1])
def test_forward_results_are_never_overwritten_by_a_later_call(rows):
    params = desk_model("neural_mstar")
    rng = np.random.default_rng(rows)
    for forward, width in ((params.encode_rows_np, params.obs_dim),
                           (params.decode_rows_np, params.a * params.m),
                           (params.transition_rows_np, params.T_c * params.obs_dim)):
        first = forward(rng.normal(size=(rows, width)))
        kept = first.copy()
        forward(rng.normal(size=(rows, width)))
        assert np.array_equal(first, kept)


def test_streamed_curve_groups_are_never_overwritten_by_later_groups():
    params, obs = curve_case(512, 18, "lstsq", 1, 3)
    fit = mm.fit_np(params, obs, 3, order=1, transition="lstsq")
    groups = mm._predicted_groups(params, fit, 18)
    _, _, first = next(groups)
    kept = first.copy()
    later = [frames for _, _, frames in groups]
    assert len(later) == 17
    assert np.array_equal(first, kept)
    assert not any(np.shares_memory(first, frames) for frames in later)


def traced_peak(fn, *args, **kwargs):
    """Largest traced allocation total while ``fn`` runs, in bytes."""
    tracemalloc.start()
    try:
        fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_horizon_curve_temporaries_stay_small():
    # the CLI's held-out curve: 512 sequences, T_c = 2, horizons 1..18, desk sizes
    params = desk_model()
    rng = np.random.default_rng(5)
    latents = rng.normal(size=(512 * 18, params.a * params.m))
    peak = traced_peak(params.decode_rows_np, latents)
    assert peak <= 6 * 2**20, f"the 9,216-row decode peaked at {peak / 2**20:.1f} MB"
    obs = rng.normal(size=(512, 20, params.obs_dim))
    # one group of horizons is rolled out, decoded and scored at a time
    peak = traced_peak(mm.horizon_errors_np, params, obs, 2, 18, order=1, transition="lstsq")
    assert peak <= 6 * 2**20, f"horizon_errors_np peaked at {peak / 2**20:.1f} MB"


# (estimator, order, T_c): T_c = 2 is the neural head's input width, and a
# second-order fit on 3 frames is too ill-conditioned to roll out 18 steps
CURVE_ESTIMATORS = [("lstsq", 1, 3), ("lstsq", 2, 5), ("neural", 1, 2)]
CURVE_SHAPES = [(1, 1), (1, 18), (2, 18), (3, 7), (40, 13), (128, 1), (512, 18), (700, 4)]


def curve_case(n_seq, horizons, transition, order, t_c):
    params = desk_model("neural_mstar" if transition == "neural" else "msp", T_c=t_c)
    spec = (velocity_spec if order == 1 else acceleration_spec)(T=t_c + horizons,
                                                                num_sequences=n_seq)
    obs = make_dataset(spec, n_seq, "velocity" if order == 1 else "acceleration").observations
    return params, obs


def one_pass_curve(params, fit, obs, t_c, horizons):
    """Predictions and horizon curve in one pass: the tape rollout of the
    fit, one unblocked decode of every latent, one error reduction."""
    n_seq = fit.last.shape[0]
    tape = ad.Tape()
    second = fit.vel is not None
    est = mm.TransitionEstimate(order=2 if second else 1, m_star=tape.input(fit.op),
                                m_last=tape.input(fit.vel) if second else None)
    latents = np.stack([p.value for p in mm.rollout(est, tape.input(fit.last), horizons)],
                       axis=1)
    rows = latents.reshape(n_seq * horizons, -1)
    pred = unblocked_mlp(params.dec, rows).reshape(n_seq, horizons, -1)
    err = ((pred - obs[:, t_c : t_c + horizons]) ** 2).sum(axis=2).mean(axis=0)
    return pred, err


@pytest.mark.parametrize("transition, order, t_c", CURVE_ESTIMATORS)
@pytest.mark.parametrize("n_seq, horizons", CURVE_SHAPES)
def test_streamed_horizon_curve_equals_one_pass_bitwise(n_seq, horizons, transition, order, t_c):
    params, obs = curve_case(n_seq, horizons, transition, order, t_c)
    fit = mm.fit_np(params, obs, t_c, order=order, transition=transition)
    pred, err = one_pass_curve(params, fit, obs, t_c, horizons)
    assert np.array_equal(mm.predict_np(params, fit, horizons), pred)
    assert np.array_equal(mm.horizon_errors_np(params, obs, t_c, horizons, order=order,
                                               transition=transition), err)


@pytest.mark.parametrize("n_seq, horizons, decodes", [
    (1, 1, [1]), (1, 18, [18]), (3, 7, [21]), (40, 13, [240, 280]),
    (512, 18, [512] * 18), (700, 4, [700] * 4), (1, 513, [256, 257])])
def test_streamed_curve_decodes_near_equal_groups_of_horizons(monkeypatch, n_seq, horizons,
                                                              decodes):
    # at most max(N, ROW_BLOCK) rows per decode, and no single-row decode
    # that one pass would not have made
    params, obs = curve_case(n_seq, horizons, "lstsq", 1, 3)
    fit = mm.fit_np(params, obs, 3, order=1, transition="lstsq")
    seen = []
    decode = mm.ModelParams.decode_rows_np

    def counting_decode(model, rows):
        seen.append(rows.shape[0])
        return decode(model, rows)

    monkeypatch.setattr(mm.ModelParams, "decode_rows_np", counting_decode)
    mm.predict_np(params, fit, horizons)
    assert seen == decodes


@pytest.mark.parametrize("field", ["op", "vel", "last"])
def test_non_finite_rollout_is_a_numeric_error(field):
    params, obs = curve_case(40, 13, "lstsq", 2, 5)
    fit = mm.fit_np(params, obs, 5, order=2, transition="lstsq")
    bad = getattr(fit, field).copy()
    bad[7, 0, 0] = np.nan
    with pytest.raises(NumericError, match="non-finite"):
        mm.predict_np(params, replace(fit, **{field: bad}), 13)


@pytest.mark.parametrize("field", ["op", "vel", "last"])
def test_rollout_with_mismatched_batch_is_a_dimension_error(field):
    params, obs = curve_case(40, 13, "lstsq", 2, 5)
    fit = mm.fit_np(params, obs, 5, order=2, transition="lstsq")
    with pytest.raises(DimensionError, match="does not fit latent"):
        mm.predict_np(params, replace(fit, **{field: getattr(fit, field)[:1]}), 13)


def test_rollout_overflow_in_a_later_group_is_a_numeric_error():
    params, obs = curve_case(40, 13, "lstsq", 1, 3)
    fit = mm.fit_np(params, obs, 3, order=1, transition="lstsq")
    # horizons 1..6 form the first group; the product overflows at horizon 7
    exploding = mm.TransitionFit(last=fit.last / np.abs(fit.last).max(),
                                 op=np.broadcast_to(1e50 * np.eye(8), fit.op.shape))
    with np.errstate(all="ignore"), pytest.raises(NumericError, match="non-finite"):
        mm.predict_np(params, exploding, 13)


# (transition, order) of every estimator; order 2 needs T_c >= 3 frames
FIT_ESTIMATORS = [("lstsq", 1), ("lstsq", 2), ("blockwise", 1), ("neural", 1)]


def chunk_size(t_c):
    """Sequences per ``fit_np`` chunk: one chunk's encode is one MLP block."""
    return mm.ROW_BLOCK // t_c


def one_shot_fit(model, obs, t_c, order, transition):
    """(last, op, vel) of one scratch tape and one ``estimate`` over the whole batch."""
    n_seq, _, n_dim = obs.shape
    a, m = model.a, model.m
    tape = ad.Tape()
    cond = obs[:, :t_c]
    head = None
    if transition == "neural":
        lat = [tape.input(model.encode_rows_np(cond[:, -1]).reshape(n_seq, a, m))]
        rows = model.transition_rows_np(cond.reshape(n_seq, t_c * n_dim))
        head = tape.input(rows.reshape(n_seq, a, a))
    else:
        enc = model.encode_rows_np(cond.reshape(n_seq * t_c, n_dim))
        lat = mm._frames(tape.input(enc), n_seq, a, m)
    est = mm.estimate(lat, order=order, transition=transition, head=head)
    return lat[-1].value, est.m_star.value, None if est.m_last is None else est.m_last.value


@pytest.mark.parametrize("t_c, transition, order", [
    (t_c, transition, order) for t_c in (2, 3, 5) for transition, order in FIT_ESTIMATORS
    if order == 1 or t_c >= 3])
@pytest.mark.parametrize("n_chunks, extra", [(0, 1), (0, 2), (1, -1), (1, 0), (1, 1), (3, 1)],
                         ids=["1", "2", "c-1", "c", "c+1", "3c+1"])
def test_chunked_fit_equals_one_pass_bitwise(n_chunks, extra, t_c, transition, order):
    n_seq = n_chunks * chunk_size(t_c) + extra
    params, obs = curve_case(n_seq, 1, transition, order, t_c)
    fit = mm.fit_np(params, obs, t_c, order=order, transition=transition)
    last, op, vel = one_shot_fit(params, obs, t_c, order, transition)
    assert np.array_equal(fit.last, last)
    assert np.array_equal(fit.op, op)
    assert (fit.vel is None) == (vel is None)
    assert vel is None or np.array_equal(fit.vel, vel)


@pytest.mark.parametrize("transition, order, prefix", [
    ("lstsq", 1, ""), ("lstsq", 2, "frame 0: "), ("blockwise", 1, "")],
    ids=["lstsq-1", "lstsq-2", "blockwise"])
def test_singular_sequence_in_a_later_chunk_is_named_by_its_batch_index(transition, order,
                                                                         prefix):
    # four near-equal chunks of about 3c/4: the zero sequence is not the
    # first of its chunk, nor in the first chunk
    c = chunk_size(5)
    batch = make_dataset(acceleration_spec(T=5, num_sequences=3 * c + 1), 4, "acceleration")
    obs = batch.observations.copy()
    obs[c + 3] = 0.0
    with pytest.raises(SingularityError, match=rf"^{prefix}matrix {c + 3}: ") as exc:
        mm.fit_np(mm.OracleModel(batch.spec), obs, 5, order=order, transition=transition)
    assert exc.value.matrix == c + 3


def fit_transient(params, obs, t_c, order):
    """tracemalloc peak of ``fit_np`` less the bytes of the arrays it returns."""
    tracemalloc.start()
    try:
        fit = mm.fit_np(params, obs, t_c, order=order, transition="lstsq")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak - sum(x.nbytes for x in (fit.last, fit.op, fit.vel) if x is not None)


@pytest.mark.parametrize("t_c, order", [(2, 1), (5, 1), (5, 2)])
def test_fit_temporaries_do_not_grow_with_the_batch(t_c, order):
    c = chunk_size(t_c)
    params, obs = curve_case(8 * c, 1, "lstsq", order, t_c)
    small = fit_transient(params, obs[:c], t_c, order)
    large = fit_transient(params, obs, t_c, order)
    assert large < 2 * small, f"{large / 2**20:.2f} MB at N = 8c, {small / 2**20:.2f} MB at N = c"


def test_empty_batch_is_a_dimension_error():
    params = tiny_model(variant="neural_mstar")
    empty = np.empty((0, 4, 3))
    assert params.encode_rows_np(np.empty((0, 3))).shape == (0, 6)
    assert params.decode_rows_np(np.empty((0, 6))).shape == (0, 3)
    for call in (lambda: mm.fit_np(params, empty, 2, order=1, transition="neural"),
                 lambda: mm.horizon_errors_np(params, empty, 2, 1, order=1,
                                              transition="neural"),
                 lambda: mm.loss_pred(mm.TapeModel(ad.Tape(), params), empty, 2, 1),
                 lambda: mm.loss_rec(mm.TapeModel(ad.Tape(), params), empty, 2),
                 lambda: mm.invertibility_loss(mm.TapeModel(ad.Tape(), params), empty, 2),
                 lambda: mm.variant_loss(mm.TapeModel(ad.Tape(), params), empty,
                                         tiny_config(variant="neural_mstar"))):
        with pytest.raises(DimensionError, match="empty batch"):
            call()


def test_config_validation():
    with pytest.raises(ValidationError):
        tiny_config(m=2).validate()  # m must exceed a
    with pytest.raises(ValidationError):
        tiny_config(variant="nope").validate()
    with pytest.raises(ValidationError):
        tiny_config(order=2, T_c=2).validate()
    # at T_c = 3 the second-order velocity stage is exactly determined
    with pytest.raises(ValidationError) as exc:
        tiny_config(order=2, T_c=3).validate()
    assert exc.value.field == "T_c"
    tiny_config(order=2, T_c=4).validate()
    with pytest.raises(ValidationError):
        tiny_config(batch_size=0).validate()
    cfg = mm.TrainConfig(order=2).resolved()
    assert (cfg.T_c, cfg.T_p) == (5, 5)
    cfg1 = mm.TrainConfig(order=1).resolved()
    assert (cfg1.T_c, cfg1.T_p) == (2, 1)
    assert mm.TrainConfig(iterations=1000).resolved().decay_at == 800
