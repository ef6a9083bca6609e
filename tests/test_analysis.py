import math

import numpy as np
import pytest

from mspred import analysis as an
from mspred import autodiff as ad
from mspred import model as mm
from mspred.datagen import GeneratorSpec, PairedBatch, make_dataset, make_orbit_probe, make_paired
from mspred.errors import ContractError, DimensionError, NumericError


def rot2(theta):
    return np.array([[math.cos(theta), -math.sin(theta)],
                     [math.sin(theta), math.cos(theta)]])


def tiny_params(obs_dim=4, seed=3):
    cfg = mm.TrainConfig(a=2, m=3, enc_hidden=(8,), dec_hidden=(8,), seed=seed,
                         T_c=2, T_p=1, iterations=1)
    return mm.ModelParams.initialize(cfg, obs_dim)


def small_spec(**kw):
    base = dict(k=1, obs_dim=4, T=4, num_sequences=12, mixing_seed=5)
    base.update(kw)
    return GeneratorSpec(**base)


def test_equivariance_self_pair_equals_loss_pred_exactly():
    params = tiny_params()
    batch = make_dataset(small_spec(), master_seed=3)
    paired = PairedBatch(first=batch, second=batch)
    report = an.equivariance_error(params, paired, 2, 1)
    assert report.lp == report.lp_equiv
    tape = ad.Tape()
    loss = mm.loss_pred(mm.TapeModel(tape, params), batch.observations, 2, 1)
    assert report.lp_equiv == loss.value[0, 0]
    assert report.ratio == 1.0
    assert report.sample_count == 12


def test_equivariance_scores_a_neural_model_with_its_head():
    cfg = mm.TrainConfig(a=2, m=3, enc_hidden=(8,), dec_hidden=(8,), mstar_hidden=(8,),
                         seed=4, T_c=2, T_p=1, iterations=1, variant="neural_mstar")
    params = mm.ModelParams.initialize(cfg, 4)
    paired = make_paired(small_spec(), master_seed=5)
    report = an.equivariance_error(params, paired, 2, 1)
    tape = ad.Tape()
    ref = mm.loss_pred(mm.TapeModel(tape, params), paired.second.observations, 2, 1,
                       transition="neural").value[0, 0]
    assert abs(report.lp - ref) <= 1e-12 * ref
    np.testing.assert_array_equal(
        an.fitted_transitions(params, paired.first.observations, 2),
        mm.batch_transitions_np(params, paired.first.observations, 2, transition="neural"))


def test_equivariance_oracle_reports_null_ratio():
    spec = small_spec(k=2, obs_dim=6)
    paired = make_paired(spec, master_seed=8)
    oracle = mm.OracleModel(spec)
    report = an.equivariance_error(oracle, paired, 2, 2)
    assert report.lp < 1e-12 and report.lp_equiv < 1e-12
    assert report.ratio is None  # baseline below the floating-point floor
    d = report.to_dict()
    assert d["kind"] == "equivariance" and d["ratio"] is None


def test_equivariance_random_model_shows_cross_error():
    params = tiny_params()
    paired = make_paired(small_spec(), master_seed=9)
    report = an.equivariance_error(params, paired, 2, 1)
    assert report.lp > 0 and report.lp_equiv > 0
    assert report.ratio == report.lp_equiv / report.lp


def test_orthogonality_defect_examples():
    assert an.orthogonality_defect(rot2(0.7)) < 1e-28
    assert an.orthogonality_defect(np.zeros((3, 3))) == 3.0
    assert an.orthogonality_defect(2 * np.eye(2)) == 18.0
    with pytest.raises(DimensionError):
        an.orthogonality_defect(np.ones((2, 3)))
    with pytest.raises(DimensionError):
        an.orthogonality_defect(np.ones((4, 2, 3)))


@pytest.mark.parametrize("shape", [(1, 2, 2), (32, 8, 8), (3, 5, 4, 4)])
def test_orthogonality_defect_of_a_stack_is_per_matrix_bitwise(shape):
    mats = np.random.default_rng(5).normal(size=shape)
    defects = an.orthogonality_defect(mats)
    assert isinstance(defects, np.ndarray) and defects.shape == shape[:-2]
    flat = mats.reshape(-1, *shape[-2:])
    want = [an.orthogonality_defect(m) for m in flat]
    assert all(isinstance(x, float) for x in want)
    assert defects.ravel().tolist() == want


def test_homogeneity_oracle_is_exact_and_random_is_not():
    spec = small_spec(k=2, obs_dim=6, T=3)
    probe = make_orbit_probe(spec, master_seed=12, offsets=5)
    oracle = mm.OracleModel(spec)
    report = an.homogeneity_check(oracle, probe, T_c=2)
    assert report.max < 1e-9
    assert len(report.distances) == 5

    params = tiny_params(obs_dim=6, seed=7)
    noisy = an.homogeneity_check(params, probe, T_c=2)
    assert noisy.relative_mean > 100 * max(report.relative_mean, 1e-18)
    d = noisy.to_dict()
    assert d["kind"] == "homogeneity" and len(d["distances"]) == 5


def test_canonical_spectrum_sorted_conjugates():
    spec = an.canonical_spectrum(rot2(0.4))
    assert spec[0].imag < 0 < spec[1].imag
    assert spec[0].real == spec[1].real


def test_canonical_spectrum_of_a_stack_equals_each_matrix():
    rng = np.random.default_rng(13)
    mats = rng.normal(size=(2, 5, 4, 4))
    stacked = an.canonical_spectrum(mats)
    assert stacked.shape == (2, 5, 4)
    for i in range(2):
        for j in range(5):
            assert np.array_equal(stacked[i, j], an.canonical_spectrum(mats[i, j]))
    r = rot2(0.9)
    p = rng.normal(size=(2, 2)) + 3 * np.eye(2)
    assert an.spectrum_distance(r, p @ r @ np.linalg.inv(p)) < 1e-8
    theta, theta2 = 0.5, 1.1
    expected = 2 * abs(np.exp(1j * theta) - np.exp(1j * theta2))
    assert abs(an.spectrum_distance(rot2(theta), rot2(theta2)) - expected) < 1e-12


def test_spectrum_rejects_bad_shapes_and_non_finite_entries():
    with pytest.raises(DimensionError):
        an.canonical_spectrum(np.ones((3, 2, 3)))
    with pytest.raises(DimensionError):
        an.spectrum_distance(np.eye(2), np.eye(3))
    mats = np.stack([np.eye(3), np.full((3, 3), np.nan)])
    with pytest.raises(NumericError):
        an.canonical_spectrum(mats)


def test_fitted_transitions_rejects_an_empty_batch():
    with pytest.raises(DimensionError, match="empty batch"):
        an.fitted_transitions(tiny_params(), np.empty((0, 3, 4)), 2)


def test_paired_spectrum_distances_oracle():
    spec = small_spec(k=2, obs_dim=6, num_sequences=20)
    paired = make_paired(spec, master_seed=14)
    oracle = mm.OracleModel(spec)
    dists = an.paired_spectrum_distances(oracle, paired, T_c=2)
    assert len(dists) == 20
    assert max(dists) < 1e-8


def test_regression_probe_recovers_linear_targets():
    rng = np.random.default_rng(15)
    mats = rng.normal(size=(200, 3, 3))
    w = rng.normal(size=9)
    targets = mats.reshape(200, -1) @ w
    scores = an.regress_transition_params(mats, targets)
    assert scores[0] is not None and scores[0] < 1e-6


def test_regression_probe_chance_level_on_noise():
    rng = np.random.default_rng(16)
    mats = rng.normal(size=(1000, 2, 2))
    noise = rng.normal(size=(1000, 2))
    scores = an.regress_transition_params(mats, noise)
    for s in scores:
        assert 0.8 <= s <= 1.2


def test_regression_probe_degenerate_target_is_null():
    rng = np.random.default_rng(17)
    mats = rng.normal(size=(100, 2, 2))
    targets = np.stack([np.ones(100), rng.normal(size=100)], axis=1)
    scores = an.regress_transition_params(mats, targets)
    assert scores[0] is None and scores[1] is not None
    with pytest.raises(ContractError):
        an.regress_transition_params(mats[:3], targets[:3])


def test_velocity_targets_shape():
    batch = make_dataset(small_spec(k=2, obs_dim=6), master_seed=18)
    t = an.velocity_targets(batch)
    assert t.shape == (12, 4)
    np.testing.assert_allclose(t[:, :2], np.cos(batch.velocity))


def test_reports_are_pure_functions():
    params = tiny_params()
    paired = make_paired(small_spec(), master_seed=19)
    r1 = an.equivariance_error(params, paired, 2, 1)
    r2 = an.equivariance_error(params, paired, 2, 1)
    assert r1 == r2
