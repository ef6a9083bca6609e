import dataclasses
import json
import xml.etree.ElementTree as ET

import jsonschema
import numpy as np
import pytest

from mspred import cli, config as cfgmod, datagen, model as mm, training as tr
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
                                  train_cfg.T_c, cfg.eval_spec["horizons"])
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
    vel = mm.batch_transitions_np(params, obs[:6], train_cfg.T_c, order=2)
    u = np.array(result["u"])
    energy = np.abs(u @ vel @ u.T - np.eye(2)).mean(axis=0)
    np.testing.assert_allclose(result["mean_abs_v_minus_i"], energy, rtol=1e-12)


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


def test_variant_and_seed_overrides(tmp_path):
    path = write_config(tmp_path)
    cli.main(["generate", "--config", str(path)])
    assert cli.main(["train", "--config", str(path), "--variant", "rec_model",
                     "--iters", "4"]) == 0
    _, cfg = tr.load_checkpoint(tmp_path / "run" / cli.CHECKPOINT_FILE)
    assert cfg.variant == "rec_model"
    assert cfg.iterations == 4
