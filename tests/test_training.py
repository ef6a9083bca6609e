import json
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from mspred import analysis as an
from mspred import autodiff as ad
from mspred import model as mm
from mspred import training as tr
from mspred.datagen import GeneratorSpec, SequenceBatch, make_dataset
from mspred.errors import (ContractError, FormatError, NumericError, SingularityError,
                           TrainingAbort, ValidationError)


def small_dataset(n=16, T=3, seed=1):
    spec = GeneratorSpec(k=1, obs_dim=4, T=T, num_sequences=n, mixing_seed=9)
    return make_dataset(spec, master_seed=seed)


def small_config(**kw):
    base = dict(a=2, m=3, enc_hidden=(8,), dec_hidden=(8,), batch_size=4,
                iterations=6, seed=5, log_interval=2, T_c=2, T_p=1)
    base.update(kw)
    return mm.TrainConfig(**base)


def test_adam_hand_example():
    state = tr.AdamState(["w"], [(1, 1)], lr=0.1)
    params = {"w": np.array([[1.0]])}
    tr.adam_step(state, params, {"w": np.array([[1.0]])})
    update = params["w"][0, 0] - 1.0
    assert abs(update - (-0.1 / (1.0 + 1e-8))) < 1e-12


def test_adam_zero_gradient_keeps_parameters():
    state = tr.AdamState(["w"], [(2, 2)], lr=0.1)
    params = {"w": np.ones((2, 2))}
    tr.adam_step(state, params, {"w": np.zeros((2, 2))})
    np.testing.assert_array_equal(params["w"], np.ones((2, 2)))


def test_adam_rejects_nonfinite_gradient():
    state = tr.AdamState(["w"], [(1, 1)], lr=0.1)
    with pytest.raises(NumericError, match="step 1"):
        tr.adam_step(state, {"w": np.zeros((1, 1))}, {"w": np.array([[np.inf]])})


def _nan_in_c(grads):
    grads["c"][2, 0] = np.nan


@pytest.mark.parametrize("edit, error, match", [
    (_nan_in_c, NumericError, "for c at step 2"),
    (lambda grads: grads.pop("b"), ContractError, "got gradients"),
    (lambda grads: grads.update(d=np.zeros((1, 1))), ContractError, "got gradients"),
    (lambda grads: grads.update(b=np.zeros((3, 1))), ContractError, "shape mismatch for b"),
], ids=["non-finite", "missing-name", "extra-name", "wrong-shape"])
def test_adam_rejected_step_changes_nothing(edit, error, match):
    # a bad gradient, or a gradient set whose names differ from the state's,
    # must leave every tensor, its moments and the step count as they were
    names = ["a", "b", "c"]
    shapes = [(2, 3), (1, 3), (4, 1)]
    rng = np.random.default_rng(3)
    state = tr.AdamState(names, shapes, lr=0.1)
    params = {n: rng.normal(size=s) for n, s in zip(names, shapes)}
    tr.adam_step(state, params, {n: rng.normal(size=s) for n, s in zip(names, shapes)})
    before = {n: p.copy() for n, p in params.items()}, state.m.copy(), state.v.copy()
    grads = {n: rng.normal(size=s) for n, s in zip(names, shapes)}
    edit(grads)
    with pytest.raises(error, match=match):
        tr.adam_step(state, params, grads)
    for n in names:
        assert np.array_equal(params[n], before[0][n])
    assert np.array_equal(state.m, before[1]) and np.array_equal(state.v, before[2])
    assert state.step_count == 1


def reference_adam_step(state, params, grads):
    """The tensor-by-tensor Adam update the flat one must match bit for bit."""
    t = state.step_count + 1
    state.step_count = t
    bc1 = 1.0 - state.beta1**t
    bc2 = 1.0 - state.beta2**t
    for name, g in grads.items():
        m = state.m[name]
        v = state.v[name]
        m *= state.beta1
        m += (1.0 - state.beta1) * g
        v *= state.beta2
        v += (1.0 - state.beta2) * (g * g)
        params[name] -= state.lr * (m / bc1) / (np.sqrt(v / bc2) + state.eps)


def _desk_shapes():
    params = mm.ModelParams.initialize(mm.TrainConfig(a=8, m=16, variant="neural_mstar"), 24)
    return {n: t.shape for n, t in params.named_tensors().items()}


@pytest.mark.parametrize("shapes, beta1", [(_desk_shapes(), 0.9), ({"s": (8, 8)}, 0.9),
                                           (_desk_shapes(), 0.0)],
                         ids=["desk", "sbd", "desk-beta1-0"])
def test_flat_adam_matches_per_tensor_reference_bitwise(shapes, beta1):
    # 420 steps pass t = 356, from which 1 - 0.9**t is exactly 1.0 and the
    # flat update skips its division by it; at beta1 = 0 that holds from t = 1
    steps = 420
    assert 1.0 - beta1**steps == 1.0
    rng = np.random.default_rng(11)
    start = {n: rng.normal(size=s) for n, s in shapes.items()}
    got, want = ({n: x.copy() for n, x in start.items()} for _ in range(2))
    state = tr.AdamState(list(shapes), list(shapes.values()), lr=1e-3, beta1=beta1)
    ref = SimpleNamespace(step_count=0, lr=1e-3, beta1=beta1, beta2=0.999, eps=1e-8,
                          m={n: np.zeros(s) for n, s in shapes.items()},
                          v={n: np.zeros(s) for n, s in shapes.items()})
    for it in range(steps):
        # the step schedule of lr_at, with widely ranging gradient scales
        state.lr = ref.lr = 1e-3 if it < 120 else 1e-4
        grads = {n: rng.normal(size=s) * 10.0 ** rng.integers(-6, 2) for n, s in shapes.items()}
        tr.adam_step(state, got, grads)
        reference_adam_step(ref, want, grads)
    assert state.step_count == ref.step_count == steps
    for n in shapes:
        assert np.array_equal(got[n], want[n])
    # the flat moments hold the tensors back to back in name order
    assert np.array_equal(state.m, np.concatenate([ref.m[n].ravel() for n in shapes]))
    assert np.array_equal(state.v, np.concatenate([ref.v[n].ravel() for n in shapes]))


def test_adam_step_allocates_no_parameter_sized_arrays():
    params = mm.ModelParams.initialize(mm.TrainConfig(a=8, m=16), obs_dim=24)
    tensors = params.named_tensors()
    state = tr.AdamState(list(tensors), [t.shape for t in tensors.values()], lr=1e-3)
    rng = np.random.default_rng(0)
    grads = {n: rng.normal(size=t.shape) for n, t in tensors.items()}
    tr.adam_step(state, tensors, grads)
    tracemalloc.start()
    try:
        tr.adam_step(state, tensors, grads)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 128 * 1024, f"adam_step allocated {peak} bytes"


def test_train_abort_in_adam_carries_previous_step_parameters(monkeypatch):
    expected, _ = tr.train(small_config(iterations=3, decay_at=6), small_dataset())
    calls = []
    real = mm.TapeModel.gradients

    def poisoned(self):
        grads = real(self)
        calls.append(1)
        if len(calls) == 4:
            last = list(grads)[-1]
            grads[last] = np.full_like(grads[last], np.nan)
        return grads

    monkeypatch.setattr(mm.TapeModel, "gradients", poisoned)
    with pytest.raises(TrainingAbort) as exc:
        tr.train(small_config(iterations=6, decay_at=6), small_dataset())
    assert exc.value.iteration == 3
    got = exc.value.params.named_tensors()
    for name, arr in expected.named_tensors().items():
        assert np.array_equal(got[name], arr)


def test_adam_trajectory_is_deterministic():
    def run():
        state = tr.AdamState(["w"], [(3,)], lr=0.05)
        params = {"w": np.array([1.0, -2.0, 0.5])}
        rng = np.random.default_rng(0)
        for _ in range(50):
            tr.adam_step(state, params, {"w": rng.normal(size=3)})
        return params["w"].copy()

    assert np.array_equal(run(), run())


def test_lr_schedule_monotone():
    cfg = small_config(iterations=10, decay_at=6).resolved()
    rates = [tr.lr_at(cfg, it) for it in range(10)]
    assert all(a >= b for a, b in zip(rates, rates[1:]))
    assert rates[0] == cfg.lr and rates[-1] == cfg.lr_final
    assert rates[5] == cfg.lr and rates[6] == cfg.lr_final


def test_train_zero_iterations_returns_init():
    ds = small_dataset()
    cfg = small_config(iterations=0)
    params, metrics = tr.train(cfg, ds)
    ref = mm.ModelParams.initialize(cfg, obs_dim=4)
    for name, arr in params.named_tensors().items():
        np.testing.assert_array_equal(arr, ref.named_tensors()[name])
    assert metrics == []


def test_train_deterministic_bitwise():
    ds = small_dataset()
    cfg = small_config()
    p1, m1 = tr.train(cfg, ds)
    p2, m2 = tr.train(cfg, ds)
    for name, arr in p1.named_tensors().items():
        assert np.array_equal(arr, p2.named_tensors()[name])
    assert [r.loss for r in m1] == [r.loss for r in m2]
    assert [r.ortho_defect for r in m1] == [r.ortho_defect for r in m2]


def test_train_metrics_count_and_fields():
    ds = small_dataset()
    cfg = small_config(iterations=10, log_interval=3)
    _, metrics = tr.train(cfg, ds)
    assert len(metrics) == 4  # ceil(10 / 3)
    assert [m.iter for m in metrics] == [3, 6, 9, 10]
    iters = [m.iter for m in metrics]
    assert iters == sorted(iters) and len(set(iters)) == len(iters)
    for m in metrics:
        assert m.loss_eval is None  # no holdout configured
        assert m.ortho_defect >= 0.0
        assert m.wall_ms >= 0.0


def test_train_holdout_reports_eval_loss():
    ds = small_dataset(n=20)
    cfg = small_config(holdout=4, iterations=4, log_interval=2)
    _, metrics = tr.train(cfg, ds)
    assert all(m.loss_eval is not None and m.loss_eval >= 0 for m in metrics)


def test_fixed_blocks_holdout_uses_blockwise_solve():
    ds = small_dataset(n=20)
    cfg = small_config(a=4, m=5, variant="fixed_blocks", holdout=6, iterations=4,
                       log_interval=2)
    params, metrics = tr.train(cfg, ds)
    holdout = ds.observations[-6:]
    tape = ad.Tape()
    ref = mm.loss_pred(mm.TapeModel(tape, params), holdout, 2, 1,
                       transition="blockwise").value[0, 0]
    assert abs(metrics[-1].loss_eval - ref) <= 1e-12 * ref


@pytest.mark.parametrize("holdout, fits", [(0, 0), (4, 1)])
def test_logging_step_fits_only_the_holdout(monkeypatch, holdout, fits):
    calls = []
    real = mm.fit_np

    def counted(*args, **kwargs):
        calls.append(args[1].shape[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(mm, "fit_np", counted)
    tr.train(small_config(iterations=1, log_interval=1, holdout=holdout), small_dataset(n=20))
    assert len(calls) == fits
    assert calls == [holdout] * fits


# (config fields, dataset length, frames the objective fits on)
STEP_FIT_CASES = {
    "msp": (dict(), 3, 2),
    "fixed_blocks": (dict(a=4, m=5, variant="fixed_blocks"), 3, 2),
    "neural_mstar": (dict(variant="neural_mstar"), 3, 2),
    "order_2": (dict(order=2, T_c=4, T_p=1), 5, 4),
    "rec_model": (dict(variant="rec_model"), 3, 3),
}


@pytest.mark.parametrize("case", list(STEP_FIT_CASES))
def test_logged_ortho_defect_is_the_steps_own_fit(monkeypatch, case):
    fields, length, frames = STEP_FIT_CASES[case]
    cfg = small_config(iterations=1, log_interval=1, **fields)
    batches = []
    real = mm.variant_loss

    def recorded(tape_model, obs, config):
        batches.append(obs.copy())
        return real(tape_model, obs, config)

    monkeypatch.setattr(mm, "variant_loss", recorded)
    ds = small_dataset(T=length)
    _, metrics = tr.train(cfg, ds)
    # the parameters before the step's update, on the step's minibatch
    init = mm.ModelParams.initialize(cfg, obs_dim=4)
    order = 1 if cfg.variant == "rec_model" else cfg.order
    fit = mm.fit_np(init, batches[0], frames, order=order, transition=cfg.transition)
    assert metrics[0].ortho_defect == float(an.orthogonality_defect(fit.transitions).mean())


@pytest.mark.parametrize("field, value", [
    ("log_interval", 0), ("beta1", 1.0), ("beta2", 1.0), ("beta1", 1.5), ("beta1", -0.1),
    ("enc_hidden", (0,)), ("dec_hidden", (-3,)), ("mstar_hidden", (0, 8)), ("a", 0),
    ("eps", 0.0), ("holdout", -3), ("decay_at", -1), ("invertibility_weight", -1.0),
    ("batch_size", 100), ("lr_final", 0.0), ("lr", float("nan")),
])
def test_out_of_range_train_fields_are_rejected_by_name(tmp_path, field, value):
    # unchecked, each of these crashes mid-run (ZeroDivisionError, numpy's
    # ValueError), writes NaN parameters, or trains on what it was not asked
    cfg = small_config(**{field: value})
    with pytest.raises(ValidationError) as exc:
        tr.train(cfg, small_dataset(n=16))
    assert exc.value.field == field
    if field == "batch_size":  # 100 is in range; the 16-sequence dataset is too small
        cfg.validate()
        return
    with pytest.raises(ValidationError) as exc:
        cfg.validate()
    assert exc.value.field == field
    stored = list(value) if isinstance(value, tuple) else value
    with pytest.raises(FormatError, match=f"config field {field}"):
        tr.load_checkpoint(_tampered_manifest(tmp_path, small_config(),
                                              lambda d: d["config"].update({field: stored})))


def test_train_validates_dataset_length():
    ds = small_dataset(T=3)
    cfg = small_config(T_c=3, T_p=2)
    with pytest.raises(ValidationError):
        tr.train(cfg, ds)


def _no_step(*args):
    raise AssertionError("training took a step")


@pytest.mark.parametrize("T_c, T_p, field", [(2, 0, "T_p"), (3, 1, "T"), (2, 2, "T")])
def test_rec_model_holdout_needs_a_prediction_window(monkeypatch, T_c, T_p, field):
    # the held-out curve predicts T_p frames after T_c, so a rec_model run
    # with a holdout needs T_c + T_p frames although its objective reads 3
    monkeypatch.setattr(mm, "variant_loss", _no_step)
    cfg = small_config(variant="rec_model", T_c=T_c, T_p=T_p, holdout=4)
    with pytest.raises(ValidationError) as exc:
        tr.train(cfg, small_dataset(n=16, T=3))
    assert exc.value.field == field


def test_rec_model_without_holdout_trains_on_three_frames():
    cfg = small_config(variant="rec_model", T_p=2, iterations=2)
    _, metrics = tr.train(cfg, small_dataset(n=16, T=3))
    assert [m.loss_eval for m in metrics] == [None]


@pytest.mark.parametrize("variant", ["rec_model", "fixed_blocks", "neural_mstar"])
def test_order_2_is_msp_only(monkeypatch, tmp_path, variant):
    # these objectives fit first-order operators: order 2 would only move
    # T_c/T_p to 5/5 and the scoring to a second-order fit
    monkeypatch.setattr(mm, "variant_loss", _no_step)
    cfg = small_config(a=4, m=5, variant=variant, order=2, T_c=None, T_p=None)
    with pytest.raises(ValidationError) as exc:
        cfg.validate()
    assert exc.value.field == "order"
    with pytest.raises(ValidationError) as exc:
        tr.train(cfg, small_dataset(n=16, T=10))
    assert exc.value.field == "order"
    first = small_config(a=4, m=5, variant=variant)
    with pytest.raises(FormatError, match="config field order"):
        tr.load_checkpoint(_tampered_manifest(tmp_path, first,
                                              lambda d: d["config"].update({"order": 2})))
    small_config(order=2, T_c=None, T_p=None).validate()


@pytest.mark.filterwarnings("ignore:overflow")
def test_train_aborts_on_nonfinite_loss_and_keeps_last_good():
    ds = small_dataset()
    huge = SequenceBatch(
        observations=np.full_like(ds.observations, 1e200),
        theta0=ds.theta0, velocity=ds.velocity, acceleration=ds.acceleration,
        spec=ds.spec, master_seed=ds.master_seed, mode=ds.mode,
    )
    cfg = small_config()
    with pytest.raises(TrainingAbort) as exc:
        tr.train(cfg, huge)
    abort = exc.value
    assert abort.iteration == 0
    assert abort.params is not None
    for arr in abort.params.named_tensors().values():
        assert np.all(np.isfinite(arr))


def test_rank_collapse_in_a_logging_fit_aborts(monkeypatch):
    def collapse(params, obs, cfg):
        raise SingularityError("Cholesky pivot 0 is not positive", pivot=0)

    monkeypatch.setattr(tr, "_holdout_lp", collapse)
    cfg = small_config(holdout=4, iterations=6, log_interval=2)
    with pytest.raises(TrainingAbort) as exc:
        tr.train(cfg, small_dataset(n=20))
    abort = exc.value
    assert abort.iteration == 1
    assert abort.metrics == []
    assert isinstance(abort.__cause__, SingularityError)


def test_smoke_run_beats_variance_fraction():
    # prediction error well under the target-frame variance on a small run
    spec = GeneratorSpec(k=2, obs_dim=8, T=3, num_sequences=400, mixing_seed=3)
    ds = make_dataset(spec, master_seed=11)
    cfg = mm.TrainConfig(a=5, m=8, enc_hidden=(48,), dec_hidden=(48,),
                         iterations=600, seed=1, log_interval=600, T_c=2, T_p=1)
    params, metrics = tr.train(cfg, ds)
    var = ds.observations[:, 2].var(axis=0).sum()
    errs = mm.horizon_errors_np(params, ds.observations, 2, 1, order=1, transition="lstsq")
    assert errs[0] < 0.10 * var


# ---------------------------------------------------------------------------
# checkpoints and metrics files


def test_checkpoint_roundtrip_bit_exact(tmp_path):
    ds = small_dataset()
    cfg = small_config(iterations=3)
    params, _ = tr.train(cfg, ds)
    p1 = tmp_path / "a.mspckp"
    p2 = tmp_path / "b.mspckp"
    tr.save_checkpoint(params, p1, config=cfg)
    loaded, loaded_cfg = tr.load_checkpoint(p1)
    for name, arr in params.named_tensors().items():
        assert np.array_equal(arr, loaded.named_tensors()[name])
    assert loaded_cfg == cfg
    tr.save_checkpoint(loaded, p2, config=loaded_cfg)
    assert p1.read_bytes() == p2.read_bytes()


def test_checkpoint_neural_variant_roundtrip(tmp_path):
    cfg = small_config(variant="neural_mstar")
    params = mm.ModelParams.initialize(cfg, obs_dim=4)
    path = tmp_path / "n.mspckp"
    tr.save_checkpoint(params, path, config=cfg)
    loaded, _ = tr.load_checkpoint(path)
    assert loaded.mstar is not None
    for name, arr in params.named_tensors().items():
        assert np.array_equal(arr, loaded.named_tensors()[name])


def test_checkpoint_rejects_corruption(tmp_path):
    cfg = small_config()
    params = mm.ModelParams.initialize(cfg, obs_dim=4)
    path = tmp_path / "c.mspckp"
    tr.save_checkpoint(params, path, config=cfg)
    raw = path.read_bytes()

    bad = tmp_path / "bad.mspckp"
    bad.write_bytes(b"XXXXXXXX" + raw[8:])
    with pytest.raises(FormatError):
        tr.load_checkpoint(bad)

    trunc = tmp_path / "trunc.mspckp"
    trunc.write_bytes(raw[: len(raw) - 16])
    with pytest.raises(FormatError):
        tr.load_checkpoint(trunc)

    tiny = tmp_path / "tiny.mspckp"
    tiny.write_bytes(raw[:5])
    with pytest.raises(FormatError):
        tr.load_checkpoint(tiny)


def test_checkpoint_manifest_shape_mismatch_names_tensor(tmp_path):
    cfg = small_config()
    params = mm.ModelParams.initialize(cfg, obs_dim=4)
    path = tmp_path / "m.mspckp"
    tr.save_checkpoint(params, path, config=cfg)
    raw = path.read_bytes()
    hlen = int.from_bytes(raw[8:12], "little")
    manifest = json.loads(raw[12 : 12 + hlen].decode())
    # grow the last tensor so its payload extends past end of file
    manifest["tensors"][-1][1][0] += 1
    blob = json.dumps(manifest, sort_keys=True, separators=(",", ":")).encode()
    tampered = tmp_path / "t.mspckp"
    tampered.write_bytes(raw[:8] + len(blob).to_bytes(4, "little") + blob + raw[12 + hlen :])
    last_name = manifest["tensors"][-1][0]
    with pytest.raises(FormatError, match=last_name.replace(".", r"\.")):
        tr.load_checkpoint(tampered)


def _tampered_manifest(tmp_path, cfg, edit):
    """Save a checkpoint and rewrite its manifest with ``edit``.

    An edit that returns bytes has them appended to the payload.
    """
    params = mm.ModelParams.initialize(cfg, obs_dim=4)
    path = tmp_path / "c.mspckp"
    tr.save_checkpoint(params, path, config=cfg)
    raw = path.read_bytes()
    hlen = int.from_bytes(raw[8:12], "little")
    manifest = json.loads(raw[12 : 12 + hlen].decode())
    extra = edit(manifest)
    blob = json.dumps(manifest, sort_keys=True, separators=(",", ":")).encode()
    out = tmp_path / "t.mspckp"
    out.write_bytes(raw[:8] + len(blob).to_bytes(4, "little") + blob + raw[12 + hlen :]
                    + (extra if isinstance(extra, bytes) else b""))
    return out


def test_checkpoint_manifest_missing_or_unknown_fields_are_format_errors(tmp_path):
    edits = [lambda d: d["model"].pop("a"),
             lambda d: d["model"]["layers"].pop("enc"),
             lambda d: d["config"].update(not_a_field=1)]
    for edit in edits:
        with pytest.raises(FormatError):
            tr.load_checkpoint(_tampered_manifest(tmp_path, small_config(), edit))


def _set_entry(name, slot, value):
    def edit(manifest):
        for entry in manifest["tensors"]:
            if entry[0] == name:
                entry[slot] = value
    return edit


def _append_entry(name, shape):
    # a well-placed extra entry whose payload (all 7.0) is appended
    def edit(manifest):
        end = sum(int(np.prod(s)) * 8 for _, s, _ in manifest["tensors"])
        manifest["tensors"].append([name, shape, end])
        return np.full(shape, 7.0).tobytes()
    return edit


@pytest.mark.parametrize("edit", [
    _set_entry("enc0.w", 2, -8),
    _set_entry("dec0.w", 2, 8),
    lambda d: d["model"].update(a=d["model"]["a"] + 1),
    lambda d: d["model"].update(obs_dim=5),
    lambda d: d["model"]["layers"].update(enc=1),
    _set_entry("dec1.b", 1, [2**32, 2**32]),
    _append_entry("enc0.w", [4, 8]),
    _append_entry("junk", [1, 2]),
    lambda d: d.update(tensors=5),
    lambda d: d.update(tensors=None),
    lambda d: d["config"].update(order=3),
    lambda d: d["config"].update(variant="bogus"),
    lambda d: d["config"].update(T_c=2.5),
    lambda d: d["config"].update(lr="x"),
    lambda d: d["config"].pop("beta2"),
    lambda d: d["config"].update(dropout=0.5),
    lambda d: d["config"].update(a=1),
    lambda d: d["config"].update(m=4),
    lambda d: d.pop("config"),
], ids=["negative-offset", "shifted-offset", "a-disagrees", "obs-dim-disagrees",
        "enc-layers-cut", "overflowing-shape", "duplicate-tensor", "unused-tensor",
        "tensors-not-a-list", "tensors-null", "config-order-3", "config-variant-bogus",
        "config-fractional-T_c", "config-string-lr", "config-missing-key",
        "config-unknown-key", "config-a-disagrees", "config-m-disagrees", "config-absent"])
def test_checkpoint_rejects_inconsistent_manifest(tmp_path, edit):
    with pytest.raises(FormatError):
        tr.load_checkpoint(_tampered_manifest(tmp_path, small_config(), edit))


@pytest.mark.parametrize("edit", [
    lambda d: d["model"].update(T_c=d["model"]["T_c"] + 1),
    lambda d: d["model"].update(a=d["model"]["m"], m=d["model"]["a"]),
    lambda d: d["config"].update(T_c=d["config"]["T_c"] + 1),
], ids=["T_c-disagrees", "a-and-m-swapped", "config-T_c-disagrees"])
def test_checkpoint_rejects_mstar_widths_off_manifest(tmp_path, edit):
    # the neural head reads T_c frames and emits an (a, a) matrix; the stored
    # config must agree with the model that it trained
    cfg = small_config(variant="neural_mstar")
    with pytest.raises(FormatError):
        tr.load_checkpoint(_tampered_manifest(tmp_path, cfg, edit))


@pytest.mark.parametrize("field, value", [
    ("a", 2.5), ("m", 3.5), ("obs_dim", 4.5), ("T_c", 2.9),
    ("a", "2"), ("m", "3"), ("obs_dim", "4"), ("T_c", "2"), ("T_c", True),
])
def test_checkpoint_model_block_reads_exact_integers(tmp_path, field, value):
    # int() would read 2.5 as 2, "2" as 2 and true as 1, so a manifest that
    # does not describe its tensors would load; without a stored config
    # nothing else compares T_c with the model
    def edit(manifest):
        manifest["model"][field] = value
        manifest["config"] = None

    with pytest.raises(FormatError, match=rf"model\.{field}"):
        tr.load_checkpoint(_tampered_manifest(tmp_path, small_config(), edit))


def test_metrics_jsonl_format(tmp_path):
    records = [
        tr.MetricsRecord(iter=2, loss=0.5, loss_eval=None, ortho_defect=1.25, wall_ms=10.0),
        tr.MetricsRecord(iter=4, loss=0.25, loss_eval=0.3, ortho_defect=None, wall_ms=20.5),
    ]
    path = tmp_path / "metrics.jsonl"
    tr.write_metrics(records, path)
    lines = path.read_text().strip().split("\n")
    assert len(lines) == 2
    for line in lines:
        obj = json.loads(line)
        assert set(obj) == {"iter", "loss", "loss_eval", "ortho_defect", "wall_ms"}
    assert json.loads(lines[0])["loss_eval"] is None
    assert json.loads(lines[1])["ortho_defect"] is None
    assert tr.read_metrics(path) == [json.loads(line) for line in lines]


def test_config_dict_roundtrip():
    cfg = small_config(variant="neural_mstar", invertibility_weight=0.5)
    again = mm.TrainConfig.from_dict(cfg.to_dict())
    assert again == cfg
