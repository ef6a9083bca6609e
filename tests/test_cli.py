import dataclasses
import hashlib
import json
import xml.etree.ElementTree as ET

import jsonschema
import numpy as np
import pytest

from mspred import analysis as an, cli, config as cfgmod, datagen, model as mm, training as tr
from mspred.errors import ValidationError


def write_config(tmp_path, name="exp.json", **overrides):
    doc = {
        "master_seed": 77,
        "out_dir": str(tmp_path / "run"),
        "generator": {"k": 1, "obs_dim": 4, "T": 3, "num_sequences": 24,
                      "mixing_seed": 5},
        "train": {"a": 2, "m": 3, "enc_hidden": [8], "dec_hidden": [8],
                  "batch_size": 4, "iterations": 6, "log_interval": 2,
                  "T_c": 2, "T_p": 1, "seed": 1},
        "eval": {"horizons": 2, "eval_sequences": 8, "pair_count": 6,
                 "probe_offsets": 3, "spectrum_pairs": 5},
        "sbd": {"iters": 30, "lr": 0.05, "num_transitions": 6, "restarts": 1},
    }
    for key, val in overrides.items():
        if isinstance(val, dict):
            doc.setdefault(key, {}).update(val)
        else:
            doc[key] = val
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


EVAL_REPORT_SCHEMA = {
    "type": "object",
    "required": ["kind", "config_hash", "version", "horizons", "equivariance",
                 "homogeneity", "spectrum", "regression", "artifacts",
                 "target_variance", "oracle_model"],
    "properties": {
        "kind": {"const": "eval_report"},
        "config_hash": {"type": "string", "pattern": "^[0-9a-f]{64}$"},
        "version": {"type": "string"},
        "oracle_model": {"type": "boolean"},
        "target_variance": {"type": "number"},
        "horizons": {
            "type": "object",
            "required": ["t_p", "lp"],
            "properties": {"t_p": {"type": "array", "items": {"type": "integer"}},
                           "lp": {"type": "array", "items": {"type": "number"}}},
        },
        "equivariance": {
            "type": "object",
            "required": ["kind", "lp", "lp_equiv", "ratio", "sample_count"],
            "properties": {"ratio": {"type": ["number", "null"]}},
        },
        "homogeneity": {"type": "object", "required": ["kind", "distances", "mean"]},
        "spectrum": {"type": "object", "required": ["kind", "distances", "mean"]},
        "regression": {
            "type": "object",
            "required": ["kind", "targets", "one_minus_r2"],
            "properties": {"one_minus_r2": {"type": "array",
                                            "items": {"type": ["number", "null"]}}},
        },
        "artifacts": {"type": "object"},
    },
}


def test_config_defaults_and_hash(tmp_path):
    path = write_config(tmp_path)
    cfg = cfgmod.load(path)
    assert cfg.config_hash == cfgmod.load(path).config_hash
    assert cfg.canonical["train"]["variant"] == "msp"
    assert cfg.canonical["eval"]["horizons"] == 2
    other = cfgmod.with_overrides(cfg, seed=123)
    assert other.config_hash != cfg.config_hash
    # the hash names what a run computes, not where it writes
    moved = cfgmod.with_overrides(cfg, out_dir=str(tmp_path / "elsewhere"))
    assert moved.out_dir != cfg.out_dir
    assert moved.config_hash == cfg.config_hash
    # omitted train fields take TrainConfig's defaults
    bare = cfgmod.from_dict({"master_seed": 1, "out_dir": "x"})
    assert bare.train == mm.TrainConfig().resolved()


def test_order_override_keeps_windows_of_the_same_order(tmp_path):
    path = write_config(tmp_path, generator={"T": 10, "mode": "acceleration",
                                             "accel_range": [-0.08, 0.08]},
                        train={"order": 2, "T_c": 4, "T_p": 2})
    cfg = cfgmod.load(path)
    # no override: the same config object, so the same hash
    assert cfgmod.with_overrides(cfg) is cfg
    assert cfgmod.with_overrides(cfg, order=None, seed=None).config_hash == cfg.config_hash
    assert cfgmod.with_overrides(cfg, order=2).config_hash == cfg.config_hash
    first = cfgmod.with_overrides(cfg, order=1).train
    assert (first.order, first.T_c, first.T_p) == (1, 2, 1)
    assert cli.main(["generate", "--config", str(path)]) == 0
    assert cli.main(["train", "--config", str(path), "--order", "2", "--iters", "2"]) == 0
    _, stored = tr.load_checkpoint(tmp_path / "run" / cli.CHECKPOINT_FILE)
    assert (stored.order, stored.T_c, stored.T_p) == (2, 4, 2)


def test_iters_override_keeps_an_explicit_decay_at():
    explicit = cfgmod.from_dict({"master_seed": 1, "out_dir": "x",
                                 "train": {"iterations": 1000, "decay_at": 500}})
    derived = cfgmod.from_dict({"master_seed": 1, "out_dir": "x",
                                "train": {"iterations": 1000}})
    # the unresolved train section is kept outside the hashed form
    assert explicit.config_hash == (
        "dd2f36aeffe8228be19f2dbe1c24a579774fb2e1e7b1511de43df94f2e3a3bad")
    assert derived.config_hash == (
        "a0cd1dd0cf772bcb7a18894e4e21b2b31babcb06d5401ab8ee40eecd200b1b1b")
    assert cfgmod.with_overrides(explicit, iters=1000).config_hash == explicit.config_hash
    for iters in (1000, 2000):
        assert cfgmod.with_overrides(explicit, iters=iters).train.decay_at == 500
        again = cfgmod.with_overrides(derived, iters=iters)
        assert again.train.decay_at == int(0.8 * iters)
        # a derived decay_at stays derived through an earlier override
        seeded = cfgmod.with_overrides(derived, seed=5)
        assert cfgmod.with_overrides(seeded, iters=iters).train.decay_at == int(0.8 * iters)


def test_order_2_below_four_conditioning_frames_exits_2(tmp_path, capsys):
    path = write_config(tmp_path, generator={"T": 10, "mode": "acceleration",
                                             "accel_range": [-0.08, 0.08]},
                        train={"order": 2, "T_c": 3, "T_p": 2})
    assert cli.main(["train", "--config", str(path), "--order", "2"]) == 2
    assert "(field train.T_c)" in capsys.readouterr().err


def test_config_hash_includes_numerics_version(tmp_path, monkeypatch):
    path = write_config(tmp_path)
    cfg = cfgmod.load(path)
    monkeypatch.setattr(cfgmod, "NUMERICS_VERSION", cfgmod.NUMERICS_VERSION + 1)
    bumped = cfgmod.load(path)
    assert bumped.canonical == cfg.canonical
    assert bumped.config_hash != cfg.config_hash


def test_config_rejects_unknown_and_missing_fields(tmp_path):
    with pytest.raises(ValidationError) as exc:
        cfgmod.from_dict({"master_seed": 1})
    assert exc.value.field == "out_dir"
    with pytest.raises(ValidationError):
        cfgmod.from_dict({"master_seed": 1, "out_dir": "x", "nope": {}})
    with pytest.raises(ValidationError) as exc2:
        cfgmod.from_dict({"master_seed": 1, "out_dir": "x",
                          "generator": {"bogus_knob": 3}})
    assert "generator" in str(exc2.value)


@pytest.mark.parametrize("section", ["generator", "train", "eval", "sbd"])
@pytest.mark.parametrize("value", [None, [], 3])
def test_config_section_that_is_not_an_object_is_rejected(section, value):
    with pytest.raises(ValidationError) as exc:
        cfgmod.from_dict({"master_seed": 1, "out_dir": "x", section: value})
    assert exc.value.field == section


@pytest.mark.parametrize("section, key, value", [
    ("sbd", "iters", "5"),
    ("sbd", "iters", 0),
    ("sbd", "num_transitions", 2.0),
    ("sbd", "restarts", 0),
    ("sbd", "seed", 1.5),
    ("sbd", "lr", -1),
    ("sbd", "lr", "0.05"),
    ("sbd", "threshold", "a"),
    ("generator", "velocity_range", 3),
    ("generator", "velocity_range", ["a", 1]),
    ("generator", "accel_range", [0.0, 1.0, 2.0]),
    ("train", "lr", "x"),
    ("train", "enc_hidden", 5),
    ("train", "dec_hidden", [8, 2.5]),
    ("train", "iterations", "10"),
    ("train", "batch_size", 2.5),
    ("train", "T_c", 2.0),
    ("train", "variant", 3),
    # range errors raised by the section's own validate()
    ("train", "batch_size", 0),
    ("train", "iterations", -1),
    ("train", "T_p", 0),
    ("train", "m", 1),
    ("train", "lr", -0.1),
    ("train", "variant", "nope"),
    ("generator", "k", 0),
    ("generator", "obs_dim", 0),
    ("generator", "num_sequences", 0),
    ("generator", "velocity_range", [1.0, 0.0]),
    ("generator", "mode", "sideways"),
    ("generator", "k", 3.5),
    ("train", "order", 3),
    # the regression probe's 80/20 split needs five eval sequences
    ("eval", "eval_sequences", 4),
])
def test_config_rejects_malformed_values(section, key, value):
    doc = {"master_seed": 1, "out_dir": "x", section: {key: value}}
    with pytest.raises(ValidationError) as exc:
        cfgmod.from_dict(doc)
    assert exc.value.field == f"{section}.{key}"


def test_range_error_exits_2_naming_its_section(tmp_path, capsys):
    bad = write_config(tmp_path, train={"batch_size": 0})
    assert cli.main(["generate", "--config", str(bad)]) == 2
    assert "(field train.batch_size)" in capsys.readouterr().err


def test_eval_and_sbd_on_a_checkpoint_with_a_bad_config_exit_2(tmp_path, capsys):
    # with T_c 3 a second-order fit runs, so only the reader can refuse order 3
    path = write_config(tmp_path, generator={"T": 4}, train={"T_c": 3})
    assert cli.main(["generate", "--config", str(path)]) == 0
    assert cli.main(["train", "--config", str(path)]) == 0
    ckpt = tmp_path / "run" / cli.CHECKPOINT_FILE
    raw = ckpt.read_bytes()
    hlen = int.from_bytes(raw[8:12], "little")
    manifest = json.loads(raw[12 : 12 + hlen].decode())
    manifest["config"]["order"] = 3
    blob = json.dumps(manifest, sort_keys=True, separators=(",", ":")).encode()
    ckpt.write_bytes(raw[:8] + len(blob).to_bytes(4, "little") + blob + raw[12 + hlen :])
    for command in ("eval", "sbd"):
        assert cli.main([command, "--config", str(path)]) == 2
        assert "order" in capsys.readouterr().err


def test_sbd_with_malformed_seed_exits_2(tmp_path, capsys):
    path = write_config(tmp_path)
    assert cli.main(["generate", "--config", str(path)]) == 0
    assert cli.main(["train", "--config", str(path)]) == 0
    bad = write_config(tmp_path, name="bad.json", sbd={"seed": 1.5})
    assert cli.main(["sbd", "--config", str(bad)]) == 2
    assert "sbd.seed" in capsys.readouterr().err


def test_generate_is_deterministic_and_readable(tmp_path, capsys):
    path = write_config(tmp_path)
    assert cli.main(["generate", "--config", str(path)]) == 0
    first = capsys.readouterr().out.strip()
    data_file = tmp_path / "run" / cli.DATASET_FILE
    blob1 = data_file.read_bytes()
    assert cli.main(["generate", "--config", str(path)]) == 0
    second = capsys.readouterr().out.strip()
    assert first == second and len(first) == 64
    assert data_file.read_bytes() == blob1
    batch = datagen.load_dataset(data_file)
    assert batch.num_sequences == 24


def test_generate_prints_the_sha256_of_the_file_it_wrote(tmp_path, capsys):
    path = write_config(tmp_path, generator={"num_sequences": 300})
    assert cli.main(["generate", "--config", str(path)]) == 0
    printed = capsys.readouterr().out.strip()
    written = (tmp_path / "run" / cli.DATASET_FILE).read_bytes()
    assert printed == hashlib.sha256(written).hexdigest()
    cfg = cfgmod.load(path)
    other = tmp_path / "direct.mspdat"
    batch = datagen.make_dataset(cfg.generator, cfg.master_seed, cfg.mode)
    assert datagen.save_dataset(batch, other) == printed
    assert other.read_bytes() == written


def test_generate_missing_field_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"master_seed": 3}))
    assert cli.main(["generate", "--config", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "out_dir" in err


def test_train_checkpoint_deterministic(tmp_path):
    path = write_config(tmp_path)
    assert cli.main(["generate", "--config", str(path)]) == 0
    assert cli.main(["train", "--config", str(path)]) == 0
    ckpt = tmp_path / "run" / cli.CHECKPOINT_FILE
    metrics = tmp_path / "run" / cli.METRICS_FILE
    blob = ckpt.read_bytes()
    rows = tr.read_metrics(metrics)
    assert len(rows) == 3  # ceil(6 / 2)
    assert cli.main(["train", "--config", str(path)]) == 0
    assert ckpt.read_bytes() == blob


def test_train_without_dataset_exits_5(tmp_path):
    path = write_config(tmp_path)
    assert cli.main(["train", "--config", str(path)]) == 5


def test_train_rank_collapse_exits_3_with_checkpoint(tmp_path):
    path = write_config(tmp_path)
    assert cli.main(["generate", "--config", str(path)]) == 0
    data_file = tmp_path / "run" / cli.DATASET_FILE
    batch = datagen.load_dataset(data_file)
    # all-zero frames encode to one latent, so the Gram matrix is singular
    zeros = dataclasses.replace(batch, observations=np.zeros_like(batch.observations))
    datagen.save_dataset(zeros, data_file)
    assert cli.main(["train", "--config", str(path)]) == 3
    params, cfg = tr.load_checkpoint(tmp_path / "run" / cli.CHECKPOINT_FILE)
    ref = mm.ModelParams.initialize(cfg, obs_dim=4)
    for name, arr in params.named_tensors().items():
        np.testing.assert_array_equal(arr, ref.named_tensors()[name])


def test_train_iters_zero_returns_initialization(tmp_path):
    path = write_config(tmp_path)
    assert cli.main(["generate", "--config", str(path)]) == 0
    assert cli.main(["train", "--config", str(path), "--iters", "0"]) == 0
    params, cfg = tr.load_checkpoint(tmp_path / "run" / cli.CHECKPOINT_FILE)
    ref = mm.ModelParams.initialize(cfg, obs_dim=4)
    for name, arr in params.named_tensors().items():
        np.testing.assert_array_equal(arr, ref.named_tensors()[name])


def test_eval_report_schema_and_api_equality(tmp_path):
    path = write_config(tmp_path)
    cli.main(["generate", "--config", str(path)])
    cli.main(["train", "--config", str(path)])
    assert cli.main(["eval", "--config", str(path)]) == 0
    report = json.loads((tmp_path / "run" / cli.EVAL_REPORT_FILE).read_text())
    jsonschema.validate(report, EVAL_REPORT_SCHEMA)

    cfg = cfgmod.load(path)
    params, train_cfg = tr.load_checkpoint(tmp_path / "run" / cli.CHECKPOINT_FILE)
    train_cfg = train_cfg.resolved()
    eval_spec = datagen.with_length(
        datagen.with_num_sequences(cfg.generator, cfg.eval_spec["eval_sequences"]),
        train_cfg.T_c + cfg.eval_spec["horizons"])
    eval_batch = datagen.make_dataset(
        eval_spec, datagen.mix64(cfg.master_seed, 1001), cfg.mode)
    direct = mm.horizon_errors_np(params, eval_batch.observations,
                                  train_cfg.T_c, cfg.eval_spec["horizons"],
                                  order=train_cfg.order, transition=train_cfg.transition)
    assert report["horizons"]["lp"] == [float(x) for x in direct]


def test_eval_oracle_flag_is_exact(tmp_path):
    path = write_config(tmp_path)
    cli.main(["generate", "--config", str(path)])
    assert cli.main(["eval", "--config", str(path), "--oracle"]) == 0
    report = json.loads((tmp_path / "run" / cli.EVAL_REPORT_FILE).read_text())
    assert report["oracle_model"] is True
    assert max(report["horizons"]["lp"]) < 1e-10
    jsonschema.validate(report, EVAL_REPORT_SCHEMA)


def test_eval_shape_mismatch_exits_4(tmp_path):
    path_a = write_config(tmp_path, name="a.json")
    cli.main(["generate", "--config", str(path_a)])
    cli.main(["train", "--config", str(path_a)])
    # replace the dataset with an incompatible observation dimension
    other = write_config(tmp_path, name="b.json",
                         generator={"k": 2, "obs_dim": 6})
    cfg_b = cfgmod.load(other)
    batch = datagen.make_dataset(cfg_b.generator, 5, "velocity")
    datagen.save_dataset(batch, tmp_path / "run" / cli.DATASET_FILE)
    assert cli.main(["eval", "--config", str(path_a)]) == 4


def test_eval_and_sbd_on_a_head_built_for_another_T_c_exit_4(tmp_path, capsys):
    # a checkpoint saved without its config is read with the run config's T_c
    path = write_config(tmp_path, generator={"T": 4},
                        train={"variant": "neural_mstar", "T_c": 3})
    assert cli.main(["generate", "--config", str(path)]) == 0
    head_cfg = dataclasses.replace(cfgmod.load(path).train, T_c=2)
    tr.save_checkpoint(mm.ModelParams.initialize(head_cfg, obs_dim=4),
                       tmp_path / "run" / cli.CHECKPOINT_FILE)
    for command in ("eval", "sbd"):
        assert cli.main([command, "--config", str(path)]) == 4
        assert "T_c=2" in capsys.readouterr().err


def test_sbd_outputs_and_determinism(tmp_path):
    path = write_config(tmp_path)
    cli.main(["generate", "--config", str(path)])
    cli.main(["train", "--config", str(path)])
    assert cli.main(["sbd", "--config", str(path)]) == 0
    result_path = tmp_path / "run" / cli.SBD_RESULT_FILE
    result = json.loads(result_path.read_text())
    assert result["kind"] == "sbd"
    assert result["num_transitions"] == 6
    assert result["estimator"] == {"transition": "lstsq", "order": 1}
    assert len(result["factor_block_assignment"]) == 1
    # pinned: a change to the SBD loss must not move the recovered blocks
    assert result["blocks"]["blocks"] == [[0, 1]]
    assert result["factor_block_assignment"] == [0]
    for name in ["sbd_mean.svg", "sbd_factor_0.svg"]:
        ET.fromstring((tmp_path / "run" / name).read_text())  # well-formed XML
    blob = result_path.read_bytes()
    heat = (tmp_path / "run" / "sbd_mean.svg").read_bytes()
    assert cli.main(["sbd", "--config", str(path)]) == 0
    assert result_path.read_bytes() == blob
    assert (tmp_path / "run" / "sbd_mean.svg").read_bytes() == heat


def test_sbd_fits_an_order_2_model_with_its_own_estimator(tmp_path):
    path = write_config(tmp_path, generator={"T": 10, "mode": "acceleration",
                                             "accel_range": [-0.08, 0.08]})
    cli.main(["generate", "--config", str(path)])
    assert cli.main(["train", "--config", str(path), "--order", "2"]) == 0
    assert cli.main(["sbd", "--config", str(path), "--order", "2"]) == 0
    result = json.loads((tmp_path / "run" / cli.SBD_RESULT_FILE).read_text())
    assert result["estimator"] == {"transition": "lstsq", "order": 2}
    # the family is the last velocity operators of the second-order fit
    params, train_cfg = tr.load_checkpoint(tmp_path / "run" / cli.CHECKPOINT_FILE)
    obs = datagen.load_dataset(tmp_path / "run" / cli.DATASET_FILE).observations
    vel = mm.batch_transitions_np(params, obs[:6], train_cfg.T_c, order=2, transition="lstsq")
    u = np.array(result["u"])
    energy = np.abs(u @ vel @ u.T - np.eye(2)).mean(axis=0)
    np.testing.assert_allclose(result["mean_abs_v_minus_i"], energy, rtol=1e-12)


def test_eval_and_report_run_on_an_order_2_acceleration_model(tmp_path):
    path = write_config(tmp_path, generator={"T": 10, "mode": "acceleration",
                                             "accel_range": [-0.08, 0.08]})
    assert cli.main(["generate", "--config", str(path)]) == 0
    assert cli.main(["train", "--config", str(path), "--order", "2"]) == 0
    assert cli.main(["eval", "--config", str(path), "--order", "2"]) == 0
    assert cli.main(["report", "--config", str(path), "--order", "2"]) == 0
    report = json.loads((tmp_path / "run" / cli.EVAL_REPORT_FILE).read_text())
    jsonschema.validate(report, EVAL_REPORT_SCHEMA)
    # the horizon curve is the second-order fit's, on the eval batch
    cfg = cfgmod.load(path)
    params, train_cfg = tr.load_checkpoint(tmp_path / "run" / cli.CHECKPOINT_FILE)
    train_cfg = train_cfg.resolved()
    assert train_cfg.order == 2
    eval_spec = datagen.with_length(
        datagen.with_num_sequences(cfg.generator, cfg.eval_spec["eval_sequences"]),
        train_cfg.T_c + cfg.eval_spec["horizons"])
    eval_batch = datagen.make_dataset(eval_spec, datagen.mix64(cfg.master_seed, 1001), cfg.mode)
    direct = mm.horizon_errors_np(params, eval_batch.observations, train_cfg.T_c,
                                  cfg.eval_spec["horizons"], order=2, transition="lstsq")
    assert report["horizons"]["lp"] == [float(x) for x in direct]


@pytest.mark.parametrize("order, names", [(1, ["cos_v0", "cos_v1", "sin_v0", "sin_v1"]),
                                          (2, ["cos_d0", "cos_d1", "sin_d0", "sin_d1"])])
def test_eval_names_the_regression_targets_by_their_step(tmp_path, order, names):
    # at order 2 the probe regresses the last step v + alpha (T_c - 2), not v
    path = write_config(tmp_path, generator={"k": 2, "obs_dim": 6, "T": 10, "mode": "acceleration",
                                             "accel_range": [-0.08, 0.08]},
                        train={"a": 4, "m": 5})
    assert cli.main(["generate", "--config", str(path)]) == 0
    assert cli.main(["train", "--config", str(path), "--order", str(order),
                     "--iters", "2"]) == 0
    assert cli.main(["eval", "--config", str(path), "--order", str(order)]) == 0
    report = json.loads((tmp_path / "run" / cli.EVAL_REPORT_FILE).read_text())
    jsonschema.validate(report, EVAL_REPORT_SCHEMA)
    assert report["regression"]["targets"] == names
    assert len(report["regression"]["one_minus_r2"]) == len(names)


@pytest.mark.parametrize("horizons", [1, 2])
def test_eval_runs_an_order_1_model_on_acceleration_data(tmp_path, horizons):
    # T_c + T_p = 3 and T_c + horizons frames are below acceleration's floor
    # of 4: the batches are generated at the floor and read for their first frames
    path = write_config(tmp_path, generator={"T": 10, "mode": "acceleration",
                                             "accel_range": [-0.08, 0.08]},
                        eval={"horizons": horizons})
    assert cli.main(["generate", "--config", str(path)]) == 0
    assert cli.main(["train", "--config", str(path), "--order", "1"]) == 0
    assert cli.main(["eval", "--config", str(path), "--order", "1"]) == 0
    report = json.loads((tmp_path / "run" / cli.EVAL_REPORT_FILE).read_text())
    jsonschema.validate(report, EVAL_REPORT_SCHEMA)
    cfg = cfgmod.load(path)
    params, _ = tr.load_checkpoint(tmp_path / "run" / cli.CHECKPOINT_FILE)
    ev = cfg.eval_spec
    floor = datagen.MIN_FRAMES["acceleration"]
    eval_batch = datagen.make_dataset(datagen.with_length(
        datagen.with_num_sequences(cfg.generator, ev["eval_sequences"]), floor),
        datagen.mix64(cfg.master_seed, 1001), cfg.mode)
    direct = mm.horizon_errors_np(params, eval_batch.observations, 2, horizons, order=1,
                                  transition="lstsq")
    assert report["horizons"]["lp"] == [float(x) for x in direct]
    paired = datagen.make_paired(datagen.with_length(
        datagen.with_num_sequences(cfg.generator, ev["pair_count"]), floor),
        datagen.mix64(cfg.master_seed, cli._PAIR_SEED_LANE), cfg.mode)
    equi = an.equivariance_error(params, paired.head(ev["pair_count"]), 2, 1, order=1,
                                 transition="lstsq")
    assert report["equivariance"] == json.loads(json.dumps(equi.to_dict()))


def test_report_charts_and_missing_inputs(tmp_path):
    path = write_config(tmp_path)
    assert cli.main(["report", "--config", str(path)]) == 5
    cli.main(["generate", "--config", str(path)])
    cli.main(["train", "--config", str(path)])
    cli.main(["eval", "--config", str(path)])
    assert cli.main(["report", "--config", str(path)]) == 0
    for name in ("loss_curve.svg", "horizon_curve.svg", "ortho_curve.svg"):
        text = (tmp_path / "run" / name).read_text()
        ET.fromstring(text)
    loss_curve = (tmp_path / "run" / "loss_curve.svg").read_bytes()
    assert cli.main(["report", "--config", str(path)]) == 0
    assert (tmp_path / "run" / "loss_curve.svg").read_bytes() == loss_curve


def test_report_empty_metrics_no_partial_files(tmp_path):
    path = write_config(tmp_path)
    cli.main(["generate", "--config", str(path)])
    cli.main(["train", "--config", str(path)])
    cli.main(["eval", "--config", str(path)])
    (tmp_path / "run" / cli.METRICS_FILE).write_text("")
    (tmp_path / "run" / "loss_curve.svg").unlink(missing_ok=True)
    assert cli.main(["report", "--config", str(path)]) == 5
    assert not (tmp_path / "run" / "loss_curve.svg").exists()


def _truncate_last_line(path):
    # keep 7 characters of the last row, '{"iter"', as an interrupted write would
    text = path.read_text()
    path.write_text(text[: text.rstrip("\n").rindex("\n") + 8])


def _drop_loss_of_last_row(path):
    *head, last = path.read_text().splitlines()
    row = json.loads(last)
    del row["loss"]
    path.write_text("\n".join([*head, json.dumps(row)]) + "\n")


def _text_loss_in_last_row(path):
    *head, last = path.read_text().splitlines()
    path.write_text("\n".join([*head, json.dumps({**json.loads(last), "loss": "x"})]) + "\n")


@pytest.mark.parametrize("name, corrupt, named", [
    (cli.METRICS_FILE, _truncate_last_line, ("line 3: Expecting",)),
    (cli.METRICS_FILE, _drop_loss_of_last_row, ("line 3: ", "argument: 'loss'")),
    (cli.METRICS_FILE, _text_loss_in_last_row, ("line 3: loss must be a finite number",)),
    (cli.EVAL_REPORT_FILE, lambda p: p.write_text('{"horizons": '), ("JSONDecodeError",)),
], ids=["truncated-metrics", "metrics-row-without-loss", "metrics-row-with-text-loss",
        "report-not-json"])
def test_report_on_a_corrupt_input_exits_2_naming_it(tmp_path, capsys, name, corrupt, named):
    path = write_config(tmp_path)
    for command in ("generate", "train", "eval"):
        assert cli.main([command, "--config", str(path)]) == 0
    corrupt(tmp_path / "run" / name)
    capsys.readouterr()
    assert cli.main(["report", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert all(part in err for part in (name, *named))
    assert "Traceback" not in err


def test_eval_on_a_truncated_dataset_exits_2_as_malformed_input(tmp_path, capsys):
    path = write_config(tmp_path)
    for command in ("generate", "train"):
        assert cli.main([command, "--config", str(path)]) == 0
    data_file = tmp_path / "run" / cli.DATASET_FILE
    data_file.write_bytes(data_file.read_bytes()[:5])
    capsys.readouterr()
    assert cli.main(["eval", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert "error: dataset truncated before header" in err
    assert "config error" not in err and "Traceback" not in err


def test_variant_and_seed_overrides(tmp_path):
    path = write_config(tmp_path)
    cli.main(["generate", "--config", str(path)])
    assert cli.main(["train", "--config", str(path), "--variant", "rec_model",
                     "--iters", "4"]) == 0
    _, cfg = tr.load_checkpoint(tmp_path / "run" / cli.CHECKPOINT_FILE)
    assert cfg.variant == "rec_model"
    assert cfg.iterations == 4


def separate_sections_report(path):
    """The eval sections of a trained run, each generated and fitted on its
    own with the run's estimator: the curve, the regression's separate fit,
    a pair batch for equivariance and another for the spectra, each side
    fitted again."""
    cfg = cfgmod.load(path)
    params, train_cfg = tr.load_checkpoint(cfg.out_dir + "/" + cli.CHECKPOINT_FILE)
    train_cfg = train_cfg.resolved()
    ev, spec, t_c, t_p = cfg.eval_spec, cfg.generator, train_cfg.T_c, train_cfg.T_p
    estimator = {"order": train_cfg.order, "transition": train_cfg.transition}

    def batch(count, length):
        return datagen.with_length(datagen.with_num_sequences(spec, count), length)

    eval_batch = datagen.make_dataset(batch(ev["eval_sequences"], t_c + ev["horizons"]),
                                      datagen.mix64(cfg.master_seed, 1001), cfg.mode)
    lp = mm.horizon_errors_np(params, eval_batch.observations, t_c, ev["horizons"],
                              **estimator)
    step = t_c - 2 if train_cfg.order == 2 else 0
    regression = an.regress_transition_params(
        an.fitted_transitions(params, eval_batch.observations, t_c, **estimator),
        an.velocity_targets(eval_batch, step), seed=cfg.master_seed)
    paired = datagen.make_paired(batch(ev["pair_count"], t_c + t_p),
                                 datagen.mix64(cfg.master_seed, 1002), cfg.mode)
    spec_paired = datagen.make_paired(batch(ev["spectrum_pairs"], t_c + 1),
                                      datagen.mix64(cfg.master_seed, 1002), cfg.mode)
    probe = datagen.make_orbit_probe(batch(1, t_c + 1), datagen.mix64(cfg.master_seed, 1003),
                                     ev["probe_offsets"])
    return {
        "target_variance": float(eval_batch.observations[:, t_c].var(axis=0).sum()),
        "lp": [float(x) for x in lp],
        "equivariance": an.equivariance_error(params, paired, t_c, t_p, **estimator).to_dict(),
        "homogeneity": an.homogeneity_check(params, probe, t_c, **estimator).to_dict(),
        "spectrum": an.paired_spectrum_distances(params, spec_paired, t_c, **estimator),
        "regression": regression,
    }


def assert_report_equals_separate_sections(path, report):
    ref = separate_sections_report(path)
    assert report["target_variance"] == ref["target_variance"]
    assert report["horizons"]["lp"] == ref["lp"]
    assert report["equivariance"] == ref["equivariance"]
    assert report["homogeneity"] == ref["homogeneity"]
    assert report["spectrum"]["distances"] == ref["spectrum"]
    assert report["spectrum"]["mean"] == float(np.mean(ref["spectrum"]))
    assert report["spectrum"]["max"] == float(np.max(ref["spectrum"]))
    assert report["regression"]["one_minus_r2"] == ref["regression"]


def eval_run(tmp_path, train_flags=(), **overrides):
    path = write_config(tmp_path, **overrides)
    assert cli.main(["generate", "--config", str(path)]) == 0
    assert cli.main(["train", "--config", str(path), *train_flags]) == 0
    assert cli.main(["eval", "--config", str(path)]) == 0
    return path, json.loads((tmp_path / "run" / cli.EVAL_REPORT_FILE).read_text())


ACCELERATION = {"generator": {"T": 10, "mode": "acceleration", "accel_range": [-0.08, 0.08]},
                "train": {"order": 2, "T_c": 5, "T_p": 5}}
# at a = 2 the blockwise fit is the lstsq fit; a = 4 tells them apart
BLOCKWISE = {"train": {"variant": "fixed_blocks", "a": 4, "m": 5}}


@pytest.mark.parametrize("overrides", [
    {},
    {"eval": {"pair_count": 5, "spectrum_pairs": 9}},
    {"train": {"variant": "neural_mstar", "mstar_hidden": [8]}},
    BLOCKWISE,
    {"generator": {"T": 4}, "train": {"T_p": 2}},
    ACCELERATION,
], ids=["velocity-msp", "more-spectrum-pairs", "neural", "blockwise", "T_p-2",
        "acceleration-order-2"])
def test_eval_report_equals_each_section_made_on_its_own(tmp_path, overrides):
    # sharing the eval-batch fit and one paired batch moves no bit of the report
    path, report = eval_run(tmp_path, **overrides)
    assert_report_equals_separate_sections(path, report)


@pytest.mark.parametrize("overrides", [
    # desk dimensions and eval sizes
    {"generator": {"k": 3, "obs_dim": 24, "num_sequences": 64},
     "train": {"a": 8, "m": 16, "enc_hidden": [128, 128], "dec_hidden": [128, 128]},
     "eval": {"horizons": 18, "eval_sequences": 512, "pair_count": 256,
              "probe_offsets": 5, "spectrum_pairs": 50}},
    BLOCKWISE,
    ACCELERATION,
], ids=["desk-msp", "blockwise", "acceleration-order-2"])
def test_eval_generates_and_fits_each_batch_once(tmp_path, monkeypatch, overrides):
    # the checkpoint is the initialization
    path = write_config(tmp_path, **overrides)
    assert cli.main(["generate", "--config", str(path)]) == 0
    assert cli.main(["train", "--config", str(path), "--iters", "0"]) == 0
    train_cfg = tr.load_checkpoint(tmp_path / "run" / cli.CHECKPOINT_FILE)[1].resolved()
    cfg = cfgmod.load(path)
    ev = cfg.eval_spec
    fits, pairs, maps = [], [], []
    fit_np, make_paired, mixing_init = mm.fit_np, datagen.make_paired, datagen.MixingMap.__init__

    def counting_fit(model, obs, *args, **kwargs):
        fits.append((obs, kwargs))
        return fit_np(model, obs, *args, **kwargs)

    def counting_paired(*args, **kwargs):
        pairs.append(make_paired(*args, **kwargs))
        return pairs[-1]

    def counting_init(self, *args, **kwargs):
        maps.append(self)
        mixing_init(self, *args, **kwargs)

    monkeypatch.setattr(mm, "fit_np", counting_fit)
    monkeypatch.setattr(datagen, "make_paired", counting_paired)
    monkeypatch.setattr(datagen.MixingMap, "__init__", counting_init)
    datagen._shared_mixing_map.cache_clear()
    assert cli.main(["eval", "--config", str(path)]) == 0
    assert len(pairs) == 1 and len(maps) == 1
    # the eval batch, the two sides of the paired batch and the homogeneity probe
    assert len(fits) == 4
    estimator = {"order": train_cfg.order, "transition": train_cfg.transition}
    assert all(kwargs == estimator for _, kwargs in fits)
    eval_fits = [obs for obs, _ in fits if obs.shape[0] == ev["eval_sequences"]]
    assert len(eval_fits) == 1
    frames = max(train_cfg.T_c + ev["horizons"], datagen.MIN_FRAMES[cfg.mode])
    assert eval_fits[0].shape == (ev["eval_sequences"], frames, cfg.generator.obs_dim)
    sides = [obs for obs, _ in fits if obs.shape[0] == max(ev["pair_count"], ev["spectrum_pairs"])]
    assert len(sides) == 2
    assert sides[0] is pairs[0].first.observations
    assert sides[1] is pairs[0].second.observations
