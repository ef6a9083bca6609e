import json

import numpy as np
import pytest

from mspred import autodiff as ad
from mspred import model as mm
from mspred import training as tr
from mspred.datagen import GeneratorSpec, SequenceBatch, make_dataset
from mspred.errors import (FormatError, NumericError, SingularityError, TrainingAbort,
                           ValidationError)


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


def test_train_validates_dataset_length():
    ds = small_dataset(T=3)
    cfg = small_config(T_c=3, T_p=2)
    with pytest.raises(ValidationError):
        tr.train(cfg, ds)


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
    errs = mm.horizon_errors_np(params, ds.observations, 2, 1)
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


def test_checkpoint_manifest_missing_or_unknown_fields_are_format_errors(tmp_path):
    cfg = small_config()
    params = mm.ModelParams.initialize(cfg, obs_dim=4)
    path = tmp_path / "f.mspckp"
    tr.save_checkpoint(params, path, config=cfg)
    raw = path.read_bytes()
    hlen = int.from_bytes(raw[8:12], "little")

    def tampered(edit):
        manifest = json.loads(raw[12 : 12 + hlen].decode())
        edit(manifest)
        blob = json.dumps(manifest, sort_keys=True, separators=(",", ":")).encode()
        out = tmp_path / "t.mspckp"
        out.write_bytes(raw[:8] + len(blob).to_bytes(4, "little") + blob + raw[12 + hlen :])
        return out

    edits = [lambda d: d["model"].pop("a"),
             lambda d: d["model"]["layers"].pop("enc"),
             lambda d: d["config"].update(not_a_field=1)]
    for edit in edits:
        with pytest.raises(FormatError):
            tr.load_checkpoint(tampered(edit))


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
    again = tr.config_from_dict(tr._config_to_dict(cfg))
    assert again == cfg
