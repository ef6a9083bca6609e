"""The shared MSPDAT01/MSPCKP01 container and the atomic write.

File bytes are pinned by SHA-256 digests taken before the two containers
shared one module, so any change to the layout shows up here first.
"""

import hashlib
import json
import pathlib

import numpy as np
import pytest

from mspred import cli, container, svg
from mspred import model as mm
from mspred import training as tr
from mspred.datagen import GeneratorSpec, make_dataset, save_dataset
from mspred.errors import FormatError

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "mspred"


def _config(**kw):
    base = dict(a=2, m=3, enc_hidden=(8,), dec_hidden=(8,), mstar_hidden=(5,),
                batch_size=4, iterations=6, seed=5, log_interval=2, T_c=2, T_p=1)
    base.update(kw)
    return mm.TrainConfig(**base)


def _dataset(mode):
    spec = GeneratorSpec(k=2, obs_dim=6, T=4, num_sequences=8, mixing_seed=5,
                         accel_range=(-0.1, 0.1) if mode == "acceleration" else (0.0, 0.0))
    return lambda path: save_dataset(make_dataset(spec, 17, mode), path)


def _checkpoint(variant, with_config):
    cfg = _config(variant=variant)

    def write(path):
        params = mm.ModelParams.initialize(cfg, obs_dim=4)
        tr.save_checkpoint(params, path, config=cfg if with_config else None)
    return write


def _metrics(path):
    tr.write_metrics([
        tr.MetricsRecord(iter=100, loss=0.5, loss_eval=None, ortho_defect=1.25, wall_ms=10.0),
        tr.MetricsRecord(iter=200, loss=0.25, loss_eval=0.3, ortho_defect=None, wall_ms=20.5),
    ], path)


def _chart(path):
    svg.line_chart({"a": ([1, 2, 3], [0.5, 0.25, 0.125]), "b": ([1, 2], [1.0, 2.0])}, path,
                   title="t", x_label="x", y_label="y", y_log=True)


def _report(path):
    cli._write_json({"b": [1, 2.5, None], "a": {"name": "msp", "ok": True}}, path)


WRITERS = {
    "dataset-velocity": _dataset("velocity"),
    "dataset-acceleration": _dataset("acceleration"),
    "checkpoint-msp": _checkpoint("msp", False),
    "checkpoint-msp-config": _checkpoint("msp", True),
    "checkpoint-neural": _checkpoint("neural_mstar", False),
    "checkpoint-neural-config": _checkpoint("neural_mstar", True),
    "metrics": _metrics,
    "svg-line-chart": _chart,
    "cli-json": _report,
}

# digests of the files these writers produced before the shared container
PINS = {
    "checkpoint-msp": "19c0a3caab5f1703b91e9462966050145a7ef19a4a09d7cea904e2ebed84eba9",
    "checkpoint-msp-config": "d3608b90a6aa2f64f89db4f0eae8fb4ce6dd06153d6f78b49193e7486210dd33",
    "checkpoint-neural": "af832ff8f638a2aa28ec68ea72a4165388c6a1ac0410b6fe5d14d7a63e7afe00",
    "checkpoint-neural-config": "03892d5b0b8817981af5c9cabb9654f99ba6baa79df2985455e0feb3498dc430",
    "cli-json": "7895acd99b09b37d7d23e9251f2e289530700699a95f357ba5a12a8a3a615415",
    "dataset-acceleration": "14fa294c111c8a69d16b1f8c11c5758a31ae11af3e910e25205b25df16a0641e",
    "dataset-velocity": "f94b2d77599ce8661565e3d5165c17a362915d312e59f0b0bf6bf80b731fda4f",
    "metrics": "6c94929c784dcb73e0b094ba77512a68987c32eae582de34bd83bded6223d52e",
    "svg-line-chart": "e5c25782caf002af84aba6cab34c6a2fa61e3fb43ea8414dc21ab5bc1c10e427",
}


@pytest.mark.parametrize("kind", sorted(WRITERS))
def test_file_bytes_match_pins(tmp_path, kind):
    path = tmp_path / "out"
    WRITERS[kind](path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == PINS[kind]
    assert [p.name for p in tmp_path.iterdir()] == ["out"]


def test_container_is_the_only_owner_of_framing_and_atomic_writes():
    # a hand-rolled writer or reader elsewhere would duplicate the layout
    owners = {needle: sorted(p.name for p in SRC.glob("*.py") if needle in p.read_text())
              for needle in ("os.replace(", ".to_bytes(4", "json.loads(raw")}
    assert owners == dict.fromkeys(owners, ["container.py"])


MAGIC = b"TESTCT01"


def _listed(header):
    return header["arrays"]


def _raw(header, payload=b""):
    blob = json.dumps(header).encode()
    return MAGIC + len(blob).to_bytes(4, "little") + blob + payload


def test_read_returns_what_write_wrote(tmp_path):
    a = np.arange(6.0).reshape(2, 3)
    path = tmp_path / "c"
    # a Fortran-ordered and an integer array are written as C-order float64
    container.write(path, MAGIC, {"arrays": [["a", [2, 3]], ["b", [1, 1]], ["e", [0]]]},
                    [np.asfortranarray(a), np.array([[3]]), np.zeros(0)])
    header, arrays = container.read(path, MAGIC, "test", _listed)
    assert header["arrays"][0] == ["a", [2, 3]]
    assert list(arrays) == ["a", "b", "e"]
    np.testing.assert_array_equal(arrays["a"], a)
    assert arrays["b"].dtype == np.float64 and arrays["b"][0, 0] == 3.0
    assert arrays["e"].shape == (0,)
    assert all(arr.flags.writeable and arr.flags.c_contiguous for arr in arrays.values())


# the dataset and checkpoint tests cover magic, truncation, trailing bytes
# and bad, overflowing or duplicate shapes through the two loaders
@pytest.mark.parametrize("raw, message", [
    (MAGIC + (99).to_bytes(4, "little") + b"{}", "past end of file"),
    (MAGIC + (2).to_bytes(4, "little") + b"\xff\xfe", "not valid JSON"),
    (_raw({}), "valid shapes"),
    (_raw({"arrays": [[7, [1]]]}, bytes(8)), "not a string"),
    (MAGIC + (25).to_bytes(4, "little") + b'{"arrays":[],"arrays":[]}', "key repeats"),
    (_raw({"arrays": [["a", "12"]]}, bytes(16)), "non-negative integers"),
    (_raw({"arrays": [["a", [2.5]]]}, bytes(16)), "non-negative integers"),
    (_raw({"arrays": [["a", ""]]}, bytes(8)), "non-negative integers"),
], ids=["header-past-eof", "header-not-utf8", "no-layout", "name-not-a-string",
        "repeated-key", "shape-a-digit-string", "shape-a-float", "shape-empty-string"])
def test_read_rejects_malformed_files(tmp_path, raw, message):
    path = tmp_path / "c"
    path.write_bytes(raw)
    with pytest.raises(FormatError, match=message):
        container.read(path, MAGIC, "test", _listed)


def test_write_hashes_the_bytes_it_writes(tmp_path):
    path = tmp_path / "c"
    digest = hashlib.sha256()
    container.write(path, MAGIC, {"arrays": [["a", [2, 3]]]},
                    [np.asfortranarray(np.arange(6.0).reshape(2, 3))], digest=digest)
    assert digest.hexdigest() == hashlib.sha256(path.read_bytes()).hexdigest()


def test_atomic_write_replaces_whole_files(tmp_path):
    path = tmp_path / "f"
    path.write_bytes(b"old contents, longer than the new ones")
    container.atomic_write(path, b"ab", bytearray(b"c"), np.array([1.0]))
    assert path.read_bytes() == b"abc" + np.array([1.0]).tobytes()
    assert [p.name for p in tmp_path.iterdir()] == ["f"]
