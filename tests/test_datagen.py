import hashlib
import json
import math
import tracemalloc

import numpy as np
import pytest

from mspred import config, datagen
from mspred.datagen import (
    GeneratorSpec,
    MixingMap,
    latent_rotation,
    load_dataset,
    make_dataset,
    make_orbit_probe,
    make_paired,
    make_single_factor,
    mix64,
    save_dataset,
    velocity_spec,
)
from mspred.errors import FormatError, ValidationError
from mspred.model import OracleModel


def small_spec(**kw):
    base = dict(k=2, obs_dim=6, T=4, num_sequences=8, mixing_seed=5)
    base.update(kw)
    return GeneratorSpec(**base)


def test_latent_rotation_identity_and_quarter_turn():
    np.testing.assert_array_equal(latent_rotation(np.zeros(3)), np.eye(6))
    quarter = latent_rotation([math.pi / 2])
    np.testing.assert_allclose(quarter, [[0.0, -1.0], [1.0, 0.0]], atol=1e-15)


def test_latent_rotation_angle_addition():
    rng = np.random.default_rng(0)
    for _ in range(20):
        a, b = rng.normal(size=(2, 3))
        lhs = latent_rotation(a) @ latent_rotation(b)
        rhs = latent_rotation(a + b)
        assert np.abs(lhs - rhs).max() < 1e-12


def test_latent_rotation_batched_matches_stacked_single_calls():
    angles = np.random.default_rng(5).uniform(-7.0, 7.0, size=(4, 5, 3))
    stacked = np.array([[latent_rotation(row) for row in seq] for seq in angles])
    batched = latent_rotation(angles)
    assert batched.shape == (4, 5, 6, 6)
    assert np.array_equal(batched, stacked)


def test_latent_rotation_single_angle_forms():
    c, s = np.cos(0.4), np.sin(0.4)
    expected = np.array([[c, -s], [s, c]])
    assert np.array_equal(latent_rotation(0.4), expected)
    assert np.array_equal(latent_rotation([0.4]), expected)
    pair = latent_rotation([0.4, -1.1])
    assert np.array_equal(pair[:2, :2], expected)
    assert np.array_equal(pair[:2, 2:], np.zeros((2, 2)))
    assert np.array_equal(pair[2:, 2:], latent_rotation(-1.1))


def test_latent_rotation_orthogonal():
    r = latent_rotation([0.3, -1.2, 2.9])
    assert np.abs(r @ r.T - np.eye(6)).max() < 1e-14


def test_mixing_determinism_and_zero():
    spec = small_spec()
    m1, m2 = MixingMap(spec), MixingMap(spec)
    z = np.random.default_rng(1).normal(size=(5, 4))
    assert np.array_equal(m1.apply(z), m2.apply(z))
    np.testing.assert_array_equal(m1.apply(np.zeros((1, 4))), np.zeros((1, 6)))


def test_mixing_empirical_injectivity():
    spec = small_spec()
    mixing = MixingMap(spec)
    rng = np.random.default_rng(2)
    z = rng.normal(size=(10_000, 4))
    z2 = rng.normal(size=(10_000, 4))
    far = np.linalg.norm(z - z2, axis=1) > 1e-3
    dx = np.linalg.norm(mixing.apply(z) - mixing.apply(z2), axis=1)
    assert np.all(dx[far] > 0.0)


def test_mixing_demix_recovers_latents():
    spec = small_spec()
    mixing = MixingMap(spec)
    z = np.random.default_rng(3).normal(size=(64, 4))
    z_hat = mixing.demix(mixing.apply(z))
    assert np.abs(z_hat - z).max() < 1e-12


@pytest.mark.parametrize("k, obs_dim", [(1, 3), (2, 5), (3, 7)])
def test_mixing_demix_exact_at_tight_obs_dim(k, obs_dim):
    # the nonlinear rank is clamped to obs_dim - 2k so demixing stays exact
    for mixing_seed in (3, 7):
        spec = GeneratorSpec(k=k, obs_dim=obs_dim, T=3, num_sequences=1,
                             mixing_seed=mixing_seed)
        mixing = MixingMap(spec)
        z = np.random.default_rng(4).normal(size=(64, 2 * k))
        assert np.abs(mixing.demix(mixing.apply(z)) - z).max() < 1e-12


@pytest.mark.parametrize("k, obs_dim", [(1, 2), (3, 6)])
def test_spec_rejects_obs_dim_without_nonlinear_room(k, obs_dim):
    spec = GeneratorSpec(k=k, obs_dim=obs_dim, T=3, num_sequences=1, mixing_seed=3)
    with pytest.raises(ValidationError) as exc:
        make_dataset(spec, master_seed=0)
    assert exc.value.field == "obs_dim"


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("build", [MixingMap, OracleModel], ids=["mixing", "oracle"])
def test_direct_construction_rejects_obs_dim_without_nonlinear_room(build):
    spec = GeneratorSpec(k=1, obs_dim=2, T=3, num_sequences=1, mixing_seed=3)
    with pytest.raises(ValidationError) as exc:
        build(spec)
    assert exc.value.field == "obs_dim"


def test_make_dataset_deterministic():
    spec = small_spec()
    a = make_dataset(spec, master_seed=7)
    b = make_dataset(spec, master_seed=7)
    for name in ("observations", "theta0", "velocity", "acceleration"):
        assert np.array_equal(getattr(a, name), getattr(b, name))
    c = make_dataset(spec, master_seed=8)
    assert not np.array_equal(a.observations, c.observations)


def test_velocity_mode_has_zero_acceleration():
    batch = make_dataset(small_spec(), master_seed=1)
    np.testing.assert_array_equal(batch.acceleration, np.zeros_like(batch.acceleration))


def test_regeneration_from_hidden_metadata():
    # rebuild z0 from the documented per-sequence stream, then re-derive
    # every observation as mix(rotation(theta_t) @ z0), exactly
    spec = small_spec()
    seed = 99
    batch = make_dataset(spec, master_seed=seed, mode="velocity")
    mixing = MixingMap(spec)
    for i in range(spec.num_sequences):
        x_rng = np.random.default_rng(mix64(mix64(seed, i), 1))
        _theta0 = x_rng.random(spec.k) * datagen.TWO_PI
        phase = x_rng.random(spec.k) * datagen.TWO_PI
        radius = 0.7 + (1.3 - 0.7) * x_rng.random(spec.k)
        z0 = np.empty(2 * spec.k)
        z0[0::2] = radius * np.cos(phase)
        z0[1::2] = radius * np.sin(phase)
        z = np.empty((spec.T, 2 * spec.k))
        for t in range(spec.T):
            theta_t = (batch.theta0[i] + batch.velocity[i] * t
                       + batch.acceleration[i] * (t * (t - 1) / 2.0))
            z[t] = latent_rotation(theta_t) @ z0
        assert np.array_equal(mixing.apply(z), batch.observations[i])


def test_stationarity_exact_in_velocity_mode():
    batch = make_dataset(small_spec(), master_seed=4)
    steps = [batch.step_angles(t) for t in range(batch.spec.T - 1)]
    for s in steps[1:]:
        assert np.array_equal(s, steps[0])
    # recomputed angle differences agree with the hidden velocity
    for t in range(batch.spec.T - 1):
        diff = batch.angles_at(t + 1) - batch.angles_at(t)
        assert np.abs(diff - batch.velocity).max() < 1e-12


def test_hidden_transition_matrix_constant_within_sequence():
    batch = make_dataset(small_spec(), master_seed=4)
    for i in range(batch.num_sequences):
        mats = [latent_rotation(batch.step_angles(t)[i]) for t in range(batch.spec.T - 1)]
        for m in mats[1:]:
            assert np.array_equal(m, mats[0])


def test_acceleration_mode_step_drifts():
    spec = datagen.acceleration_spec(k=2, obs_dim=6, T=6, num_sequences=4, mixing_seed=5)
    batch = make_dataset(spec, master_seed=11, mode="acceleration")
    assert np.any(batch.acceleration != 0.0)
    d0 = batch.step_angles(0)
    d1 = batch.step_angles(1)
    np.testing.assert_allclose(d1 - d0, batch.acceleration, atol=1e-15)


def test_make_paired_shares_transitions():
    pair = make_paired(small_spec(num_sequences=100), master_seed=21)
    assert np.array_equal(pair.first.velocity, pair.second.velocity)
    assert np.array_equal(pair.first.acceleration, pair.second.acceleration)
    # initial angles all differ (probability-one event, checked en masse)
    assert np.all(np.any(pair.first.theta0 != pair.second.theta0, axis=1))
    np.testing.assert_array_equal(pair.first.acceleration, 0.0 * pair.first.acceleration)


def test_make_paired_first_batch_matches_make_dataset():
    spec = small_spec()
    pair = make_paired(spec, master_seed=13)
    solo = make_dataset(spec, master_seed=13)
    assert np.array_equal(pair.first.observations, solo.observations)


def test_orbit_probe_shifts_starts_along_orbit():
    spec = small_spec()
    probe = make_orbit_probe(spec, master_seed=3, offsets=5)
    assert probe.num_sequences == 6
    for ell in range(6):
        np.testing.assert_array_equal(probe.velocity[ell], probe.velocity[0])
        np.testing.assert_array_equal(
            probe.theta0[ell], probe.theta0[0] + ell * probe.velocity[0]
        )
    # shifted start l equals the base orbit advanced l steps
    np.testing.assert_allclose(
        probe.theta0[2], probe.angles_at(2)[0], atol=1e-12
    )


def test_spec_validation_names_field():
    with pytest.raises(ValidationError) as exc:
        make_dataset(small_spec(obs_dim=3), master_seed=0)
    assert exc.value.field == "obs_dim"
    with pytest.raises(ValidationError) as exc:
        make_dataset(small_spec(T=2), master_seed=0)
    assert exc.value.field == "T"
    with pytest.raises(ValidationError) as exc:
        make_dataset(small_spec(), master_seed=0, mode="acceleration")
    assert exc.value.field in ("T", "accel_range")
    with pytest.raises(ValidationError) as exc:
        small_spec(accel_range=(-0.1, 0.1)).validate("velocity")
    assert exc.value.field == "accel_range"


def test_dataset_file_roundtrip(tmp_path):
    batch = make_dataset(small_spec(), master_seed=17)
    path = tmp_path / "d.mspdat"
    save_dataset(batch, path)
    again = load_dataset(path)
    for name in ("observations", "theta0", "velocity", "acceleration"):
        assert np.array_equal(getattr(batch, name), getattr(again, name))
    assert again.spec == batch.spec
    assert again.master_seed == batch.master_seed
    assert again.mode == batch.mode
    # save -> load -> save is byte-identical
    path2 = tmp_path / "d2.mspdat"
    save_dataset(again, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_dataset_file_rejects_corruption(tmp_path):
    batch = make_dataset(small_spec(), master_seed=17)
    path = tmp_path / "d.mspdat"
    save_dataset(batch, path)
    raw = path.read_bytes()

    bad_magic = tmp_path / "bad_magic.mspdat"
    bad_magic.write_bytes(b"NOTMAGIC" + raw[8:])
    with pytest.raises(FormatError):
        load_dataset(bad_magic)

    truncated = tmp_path / "trunc.mspdat"
    truncated.write_bytes(raw[: len(raw) // 2])
    with pytest.raises(FormatError):
        load_dataset(truncated)

    tiny = tmp_path / "tiny.mspdat"
    tiny.write_bytes(raw[:6])
    with pytest.raises(FormatError):
        load_dataset(tiny)

    trailing = tmp_path / "trailing.mspdat"
    trailing.write_bytes(raw + b"\x00" * 8)
    with pytest.raises(FormatError):
        load_dataset(trailing)


def _tampered_header(tmp_path, edit):
    path = tmp_path / "d.mspdat"
    save_dataset(make_dataset(small_spec(), master_seed=17), path)
    raw = path.read_bytes()
    hlen = int.from_bytes(raw[8:12], "little")
    header = json.loads(raw[12 : 12 + hlen].decode())
    edit(header)
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    out = tmp_path / "tampered.mspdat"
    out.write_bytes(raw[:8] + len(blob).to_bytes(4, "little") + blob + raw[12 + hlen :])
    return out


@pytest.mark.parametrize("edit", [
    lambda h: h["shapes"].update(observations=[-8, 4, 6]),
    lambda h: h["shapes"].update(theta0="abc"),
    lambda h: h.update(mode="bogus"),
    lambda h: h["spec"].update(velocity_range=[0.5]),
    lambda h: h["shapes"].update(acceleration=[2**32, 2**32]),
    lambda h: h["shapes"].update(extra=[0]),
], ids=["negative-shape", "non-integer-shape", "bogus-mode", "one-element-range",
        "overflowing-shape", "unknown-array"])
def test_dataset_file_rejects_bad_header(tmp_path, edit):
    with pytest.raises(FormatError):
        load_dataset(_tampered_header(tmp_path, edit))


def test_splitmix_known_values():
    # reference values of the splitmix64 finalizer-based stream seeded at 0:
    # first outputs of state += golden then finalize
    assert datagen.splitmix64(0x9E3779B97F4A7C15) == 0xE220A8397B1DCDAF
    assert mix64(0, 0) == 0xE220A8397B1DCDAF


_EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1]


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_uniforms_match_default_rng_streams():
    # the per-stream loop the kernel replaced is the reference
    drawn = np.random.default_rng(8).integers(0, 2**64, size=1000, dtype=np.uint64)
    seeds = np.array(_EDGE_SEEDS + [int(s) for s in drawn], dtype=np.uint64)
    for width in range(1, 10):
        expected = np.array([np.random.default_rng(int(s)).random(width) for s in seeds])
        assert np.array_equal(datagen._uniforms(seeds, width), expected), width


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("master_seed", [0, -3, 2**64 - 1, 2**64 + 11])
def test_stream_seeds_match_scalar_mix64(master_seed):
    for lane in (0, 1, 2):
        seeds = datagen._stream_seeds(master_seed, 40, lane)
        assert seeds.dtype == np.uint64
        assert [int(s) for s in seeds] == [mix64(mix64(master_seed, i), lane)
                                           for i in range(40)]


@pytest.mark.parametrize("master_seed", [-3, 2**64 + 11])
def test_config_accepts_any_int_master_seed(master_seed):
    cfg = config.from_dict({"master_seed": master_seed, "out_dir": "x"})
    assert cfg.master_seed == master_seed


@pytest.mark.parametrize("master_seed, digest", [
    (-3, "fc838accd00ab7c8d799cc176c5ab2c502aa467dc10b02f611a95685085cb09a"),
    (2**64 + 11, "59853870fe319baca34d540977a23e4a1bb9836169dc556692739c45724403bb"),
])
def test_out_of_range_master_seed_bytes_are_pinned(tmp_path, master_seed, digest):
    # negative and >= 2**64 seeds reduce mod 2**64 exactly as scalar mix64 does
    path = tmp_path / "acc.mspdat"
    save_dataset(make_dataset(datagen.acceleration_spec(), master_seed, "acceleration"), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_make_dataset_seeds_streams_without_default_rng(monkeypatch):
    # the streams come from the array kernels; only MixingMap builds a Generator
    calls = []
    real = np.random.default_rng

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(np.random, "default_rng", counting)
    make_dataset(_pin_spec("acceleration"), master_seed=23, mode="acceleration")
    assert len(calls) == 1


def test_default_spec_matches_documented_desk_scale():
    spec = velocity_spec()
    assert (spec.k, spec.obs_dim, spec.T, spec.num_sequences) == (3, 24, 3, 5000)
    assert spec.velocity_range == (-math.pi / 2, math.pi / 2)


@pytest.mark.parametrize("mode, digest", [
    ("velocity", "7cdebcc89866560a95cf5669b72eb09be7a945818801f0939ac9fb7f7ccf292b"),
    ("acceleration", "fe1574bbcd9d529eafa293e8a894953e5266ea133d632b1397feedba1142218b"),
])
def test_desk_dataset_bytes_are_pinned(tmp_path, mode, digest):
    # the acceptance suite's desk datasets (master seed 42); a mixing-map
    # change that moves them would silently change every trained model
    spec = velocity_spec() if mode == "velocity" else datagen.acceleration_spec()
    path = tmp_path / "desk.mspdat"
    save_dataset(make_dataset(spec, master_seed=42, mode=mode), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


def _digest(batch):
    h = hashlib.sha256()
    for name in ("observations", "theta0", "velocity", "acceleration"):
        h.update(np.ascontiguousarray(getattr(batch, name), dtype="<f8").tobytes())
    return h.hexdigest()


def _pin_spec(mode):
    # desk dimensions; 300 sequences, so batched generation crosses a chunk
    if mode == "velocity":
        return velocity_spec(T=5, num_sequences=300, mixing_seed=5)
    return datagen.acceleration_spec(T=6, num_sequences=300, mixing_seed=5)


@pytest.mark.parametrize("mode, first, second", [
    ("velocity", "ef99afbbd28d0ca014aae6b756b5558e5882e489896cb6809fe472b96632a9f0",
     "fa91b45ea0d52f1364983327f7a0faaa79b43c5112dcec69a36710d2a2f00b01"),
    ("acceleration", "925a2eed1a67dac18b314bf768e266af5eb8e2af5a9ec73402b66d402a6f919d",
     "c289abac32ac1fd98f1dd664cc2bf64b74702e26941b432325f7e47542c4b4e1"),
])
def test_paired_bytes_are_pinned(mode, first, second):
    pair = make_paired(_pin_spec(mode), master_seed=23, mode=mode)
    assert (_digest(pair.first), _digest(pair.second)) == (first, second)


def test_orbit_probe_bytes_are_pinned():
    probe = make_orbit_probe(_pin_spec("velocity"), master_seed=23, offsets=300)
    assert _digest(probe) == "153cd5b030043b789067c35620bb4b038c59c86282083e51203bfb1e098d3f72"


@pytest.mark.parametrize("factor, digest", [
    (0, "021daac3b178d31c0f57519dcc943e4825ae321a5e8ddda45e13f6c651147b30"),
    (1, "14eed8b931bb1ed10d905baf74ff6fffe722bf6102ae0d5e982f22c24c7e2a4f"),
    (2, "dbd77b9520f7d3a09f936214c78831e10d15bfcb1583f93ac77e9efa5dd0c65f"),
])
def test_single_factor_bytes_are_pinned(factor, digest):
    batch = make_single_factor(_pin_spec("velocity"), master_seed=23, factor=factor)
    assert _digest(batch) == digest


def test_single_factor_of_an_acceleration_spec_is_its_velocity_batch():
    accel = make_single_factor(small_spec(accel_range=(-0.1, 0.1)), master_seed=23, factor=1)
    vel = make_single_factor(small_spec(), master_seed=23, factor=1)
    assert np.array_equal(accel.observations, vel.observations)
    assert accel.mode == "velocity" and accel.spec == vel.spec


@pytest.mark.parametrize("mode", ["velocity", "acceleration"])
def test_make_dataset_peak_memory_is_bounded(mode):
    # chunked generation keeps its temporaries small next to the output
    spec = velocity_spec() if mode == "velocity" else datagen.acceleration_spec()
    tracemalloc.start()
    try:
        batch = make_dataset(spec, master_seed=42, mode=mode)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    out_bytes = sum(getattr(batch, name).nbytes
                    for name in ("observations", "theta0", "velocity", "acceleration"))
    assert peak <= 2 * out_bytes
