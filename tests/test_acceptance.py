"""Acceptance gate: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s``. Desk-scale models are
trained once and cached under tests/.cache (pure functions of config), so
the first run takes tens of minutes and repeats take seconds.
"""

import json
import math
import time

import numpy as np
import pytest

from mspred import analysis as an
from mspred import autodiff as ad
from mspred import cli
from mspred import datagen, model as mm, sbd, training as tr
from mspred.errors import FormatError

from accept_util import (DESK, criterion, desk_config, desk_dataset, offblock_mass, prune_stale,
                         train_cached)
from oracles import central_diff, connected_components, lstsq_transition, rel_err
from test_autodiff import GRAD_CASES


def rot2(theta):
    return np.array([[math.cos(theta), -math.sin(theta)],
                     [math.sin(theta), math.cos(theta)]])


@pytest.fixture(scope="session", autouse=True)
def stale_checkpoints_pruned():
    return prune_stale()


@pytest.fixture(scope="module")
def desk_data():
    return desk_dataset()


@pytest.fixture(scope="module")
def desk_eval():
    return desk_dataset(num_sequences=512, T=DESK["T_c"] + 18,
                        master_seed=DESK["eval_seed"])


def msp_model(seed, data):
    return train_cached(desk_config("msp", seed=seed), data, "desk-vel")


# ---------------------------------------------------------------------------


def test_c01_gradient_suite():
    started = time.perf_counter()
    rng = np.random.default_rng(11001)
    count = 0
    worst = 0.0
    for trial in range(80):
        case = GRAD_CASES[trial % len(GRAD_CASES)]
        x0 = rng.normal(size=case.shape)
        if case.name == "pinv_right":
            x0[:, : x0.shape[0]] += 2.0 * np.eye(x0.shape[0])
        worst = max(worst, case.run(x0))
        count += 1

    spec = datagen.GeneratorSpec(k=1, obs_dim=3, T=3, num_sequences=1, mixing_seed=3)
    cfg = mm.TrainConfig(a=2, m=3, enc_hidden=(4,), dec_hidden=(4,), T_c=2, T_p=1)
    for trial in range(20):
        obs = datagen.make_dataset(spec, master_seed=trial).observations
        params = mm.ModelParams.initialize(
            mm.TrainConfig(a=2, m=3, enc_hidden=(4,), dec_hidden=(4,),
                           T_c=2, T_p=1, seed=trial), obs_dim=3)
        tensors = params.named_tensors()
        names = sorted(tensors)
        shapes = [(n, tensors[n].shape) for n in names]
        vec0 = np.concatenate([tensors[n].ravel() for n in names])

        def forward(vec):
            p = params.copy()
            off = 0
            reassembled = {}
            for name, shape in shapes:
                size = int(np.prod(shape))
                reassembled[name] = vec[off : off + size].reshape(shape)
                off += size
            p.apply_named(reassembled)
            tape = ad.Tape()
            return float(mm.loss_pred(mm.TapeModel(tape, p), obs, 2, 1).value[0, 0])

        tape = ad.Tape()
        bound = mm.TapeModel(tape, params)
        tape.backward(mm.loss_pred(bound, obs, 2, 1))
        grads = bound.gradients()
        analytic = np.concatenate([grads[n].ravel() for n, _ in shapes])
        worst = max(worst, rel_err(analytic, central_diff(forward, vec0)))
        count += 1
    elapsed = time.perf_counter() - started
    ok = worst < 1e-4 and elapsed < 60.0
    assert criterion(1, "gradients match central differences",
                     ok, f"{count} instances, worst rel err {worst:.2e}, {elapsed:.1f}s")


def test_c02_least_squares_oracle():
    rng = np.random.default_rng(11002)
    worst = 0.0
    for _ in range(100):
        t_c = int(rng.integers(2, 5))
        a = int(rng.integers(2, 5))
        m = a + int(rng.integers(1, 5))
        lat = rng.normal(size=(t_c, a, m))
        tape = ad.Tape()
        est = mm.estimate_transition([tape.input(x) for x in lat])
        h0 = np.concatenate(list(lat[:-1]), axis=1)
        h1 = np.concatenate(list(lat[1:]), axis=1)
        worst = max(worst, float(np.linalg.norm(est.m_star.value - lstsq_transition(h0, h1))))
    mp_worst = 0.0
    for _ in range(40):
        a = int(rng.integers(1, 5))
        k = a + int(rng.integers(1, 7))
        h = rng.normal(size=(a, k)) + np.hstack([2.0 * np.eye(a), np.zeros((a, k - a))])
        tape = ad.Tape()
        p = ad.pinv_right(tape.input(h)).value
        mp_worst = max(mp_worst,
                       np.linalg.norm(h @ p @ h - h),
                       np.linalg.norm(p @ h @ p - p),
                       np.linalg.norm((h @ p) - (h @ p).T),
                       np.linalg.norm((p @ h) - (p @ h).T))
    ok = worst < 1e-10 and mp_worst < 1e-9
    assert criterion(2, "transition solve matches Gaussian-elimination oracle",
                     ok, f"worst {worst:.2e}, Moore-Penrose worst {mp_worst:.2e}")


def test_c03_laplacian_component_identity():
    rng = np.random.default_rng(11003)
    all_ok = True
    for _ in range(100):
        n = int(rng.integers(3, 10))
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
            adj[start : start + s, start : start + s] = block @ block.T
            start += s
        tape = ad.Tape()
        lam, _ = ad.sym_eig(sbd.normalized_laplacian(tape.input(adj)))
        kernel = int((np.abs(lam.value.ravel()) < 1e-8).sum())
        all_ok &= kernel == connected_components(adj) == len(sizes)
    assert criterion(3, "Laplacian kernel dimension counts graph components",
                     all_ok, "100 planted adjacencies, exact")


def test_c04_sbd_recovery():
    started = time.perf_counter()
    rng = np.random.default_rng(11004)
    basis, _ = np.linalg.qr(rng.normal(size=(8, 8)))
    mats = []
    for _ in range(64):
        angles = rng.choice([-1.0, 1.0], size=4) * rng.uniform(0.3, 1.4, size=4)
        mats.append(basis @ datagen.latent_rotation(angles) @ basis.T)
    successes = 0
    masses = []
    for seed in range(5):
        result = sbd.fit_sbd(mats, iters=1000, lr=0.05, seed=seed)
        vs = result.conjugate(np.stack(mats))
        mass = offblock_mass(vs, result.blocks)
        masses.append(mass)
        if result.blocks.sizes() == [2, 2, 2, 2] and mass < 0.01:
            successes += 1
    elapsed = time.perf_counter() - started
    ok = successes >= 4 and elapsed < 300.0
    assert criterion(4, "simultaneous block-diagonalization recovers planted blocks",
                     ok, f"{successes}/5 seeds, worst off-mass {max(masses):.2e}, {elapsed:.0f}s")


def test_c05_desk_scale_extrapolation(desk_data, desk_eval):
    var = float(desk_eval.observations[:, DESK["T_c"]].var(axis=0).sum())
    msp = msp_model(0, desk_data)
    msp_curve = mm.horizon_errors_np(msp, desk_eval.observations, DESK["T_c"], 18, order=1,
                                     transition="lstsq")
    rec = train_cached(desk_config("rec_model", seed=0, T_c=3), desk_data, "desk-vel")
    rec_curve = mm.horizon_errors_np(rec, desk_eval.observations, DESK["T_c"], 18, order=1,
                                     transition="lstsq")
    lp1, lp18 = float(msp_curve[0]), float(msp_curve[17])
    rec1, rec18 = float(rec_curve[0]), float(rec_curve[17])
    bound = 10.0 * lp1
    ok = (lp1 < 0.05 * var) and (lp18 < bound) and (rec18 > bound)
    assert criterion(
        5, "desk-scale extrapolation bound holds for msp, fails for rec_model", ok,
        f"lp1 {lp1:.4f} = {lp1 / var * 100:.2f}% var, lp18/lp1 {lp18 / lp1:.2f}, "
        f"rec1 {rec1:.2f}, rec18 {rec18:.1f} vs bound {bound:.2f}")


def _equivariance_ratio(params, transition):
    spec = datagen.with_length(
        datagen.with_num_sequences(datagen.velocity_spec(), 256),
        DESK["T_c"] + DESK["T_p"])
    paired = datagen.make_paired(spec, master_seed=DESK["eval_seed"] + 7)
    return an.equivariance_error(params, paired, DESK["T_c"], DESK["T_p"], order=1,
                                 transition=transition).ratio


def test_c06_equivariance_separation(desk_data):
    msp_ratios = []
    neu_ratios = []
    for seed in range(3):
        msp_ratios.append(_equivariance_ratio(msp_model(seed, desk_data), "lstsq"))
        neu = train_cached(desk_config("neural_mstar", seed=seed), desk_data, "desk-vel")
        neu_ratios.append(_equivariance_ratio(neu, "neural"))
    msp_med = float(np.median(msp_ratios))
    neu_med = float(np.median(neu_ratios))
    ok = msp_med < 2.0 and neu_med >= 3.0 * msp_med
    assert criterion(6, "equivariance ratio separates msp from the neural ablation",
                     ok, f"msp median {msp_med:.3f}, neural median {neu_med:.1f}")


def test_c07_intra_orbit_homogeneity(desk_data):
    probe = datagen.make_orbit_probe(
        datagen.with_num_sequences(datagen.velocity_spec(), 1),
        master_seed=DESK["eval_seed"] + 13, offsets=5)
    trained = an.homogeneity_check(msp_model(0, desk_data), probe, DESK["T_c"], order=1,
                                   transition="lstsq")
    control = an.homogeneity_check(
        mm.ModelParams.initialize(desk_config("msp", seed=0), obs_dim=DESK["obs_dim"]),
        probe, DESK["T_c"], order=1, transition="lstsq")
    ok = trained.relative_mean < 0.1 and control.relative_mean > 0.1
    assert criterion(7, "transitions are homogeneous along orbits after training",
                     ok, f"trained {trained.relative_mean:.4f}, "
                     f"untrained {control.relative_mean:.3f}")


def test_c08_spectrum_similarity(desk_data):
    spec = datagen.with_length(
        datagen.with_num_sequences(datagen.velocity_spec(), 50), DESK["T_c"] + 1)
    paired = datagen.make_paired(spec, master_seed=DESK["eval_seed"] + 21)
    dists = an.paired_spectrum_distances(msp_model(0, desk_data), paired, DESK["T_c"],
                                         order=1, transition="lstsq")
    rng = np.random.default_rng(11008)
    exact_worst = 0.0
    for _ in range(20):
        r = datagen.latent_rotation(rng.uniform(-1.5, 1.5, size=4))
        p = rng.normal(size=(8, 8)) + 4.0 * np.eye(8)
        sim = p @ r @ np.linalg.inv(p)
        exact_worst = max(exact_worst, an.spectrum_distance(r, sim))
    ok = float(np.mean(dists)) < 0.1 and exact_worst < 1e-8
    assert criterion(8, "same-motion transitions share spectra across orbits",
                     ok, f"trained mean {np.mean(dists):.4f}, "
                     f"exact-similarity worst {exact_worst:.2e}")


def test_c09_second_order(desk_eval):
    # exact-rotation accelerated latents recover the acceleration rotation
    rng = np.random.default_rng(11009)
    z0 = rng.normal(size=(2, 5))
    v, alpha = 0.4, 0.07
    lats = []
    for t in range(5):
        theta = 0.9 + v * t + alpha * (t * (t - 1) / 2.0)
        lats.append(rot2(theta) @ z0)
    tape = ad.Tape()
    est = mm.estimate_second_order([tape.input(x) for x in lats])
    exact = float(np.abs(est.m_star.value - rot2(alpha)).max())

    accel_train = desk_dataset(mode="acceleration", T=11)
    accel_eval = desk_dataset(mode="acceleration", num_sequences=512, T=10,
                              master_seed=DESK["eval_seed"] + 33)
    first = train_cached(desk_config("msp", seed=0, order=1, T_c=5, T_p=5,
                                     iterations=6000), accel_train, "desk-acc")
    second = train_cached(desk_config("msp", seed=0, order=2, T_c=5, T_p=5,
                                      iterations=6000), accel_train, "desk-acc")
    err1 = mm.horizon_errors_np(first, accel_eval.observations, 5, 5, order=1,
                                transition="lstsq")[4]
    err2 = mm.horizon_errors_np(second, accel_eval.observations, 5, 5, order=2,
                                transition="lstsq")[4]
    ok = exact < 1e-8 and err2 * 2.0 <= err1
    assert criterion(9, "second-order model tracks constant acceleration",
                     ok, f"exact recovery {exact:.2e}, order1 {err1:.3f} vs "
                     f"order2 {err2:.3f} at T_p=5")


def test_c10_orthogonality_trend(desk_data):
    probe_obs = desk_data.observations[:256]
    finals = []
    inits = []
    for seed in range(3):
        cfg = desk_config("msp", seed=seed)
        init_params = mm.ModelParams.initialize(cfg, obs_dim=DESK["obs_dim"])
        trained = msp_model(seed, desk_data)
        for params, sink in ((init_params, inits), (trained, finals)):
            mats = an.fitted_transitions(params, probe_obs, DESK["T_c"], order=1,
                                         transition="lstsq")
            defects = [an.orthogonality_defect(mat) for mat in mats]
            sink.append(float(np.mean(defects)))
    ok = float(np.median(finals)) < float(np.median(inits))
    assert criterion(10, "learned transitions become more orthogonal",
                     ok, f"init median {np.median(inits):.3f} -> "
                     f"final median {np.median(finals):.3f}")


def test_c11_determinism_and_formats(tmp_path):
    doc = {
        "master_seed": 31,
        "out_dir": str(tmp_path / "runA"),
        "generator": {"k": 1, "obs_dim": 4, "T": 3, "num_sequences": 20,
                      "mixing_seed": 3},
        "train": {"a": 2, "m": 3, "enc_hidden": [8], "dec_hidden": [8],
                  "batch_size": 4, "iterations": 8, "log_interval": 4},
        "eval": {"horizons": 2, "eval_sequences": 8, "pair_count": 6,
                 "probe_offsets": 2, "spectrum_pairs": 4},
        "sbd": {"iters": 20, "num_transitions": 4, "restarts": 1},
    }
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps(doc))

    def run_all(out):
        doc2 = dict(doc, out_dir=str(out))
        p = tmp_path / f"{out.name}.json"
        p.write_text(json.dumps(doc2))
        assert cli.main(["generate", "--config", str(p)]) == 0
        assert cli.main(["train", "--config", str(p)]) == 0
        assert cli.main(["eval", "--config", str(p)]) == 0
        assert cli.main(["report", "--config", str(p)]) == 0

    run_all(tmp_path / "runA")
    run_all(tmp_path / "runB")
    same = True
    for name in (cli.DATASET_FILE, cli.CHECKPOINT_FILE, cli.EVAL_REPORT_FILE,
                 "loss_curve.svg", "horizon_curve.svg"):
        same &= ((tmp_path / "runA" / name).read_bytes()
                 == (tmp_path / "runB" / name).read_bytes())
    # metrics are identical apart from the wallclock column
    rows_a = tr.read_metrics(tmp_path / "runA" / cli.METRICS_FILE)
    rows_b = tr.read_metrics(tmp_path / "runB" / cli.METRICS_FILE)
    for ra, rb in zip(rows_a, rows_b):
        ra.pop("wall_ms")
        rb.pop("wall_ms")
    same &= rows_a == rows_b

    # round trips are bit-exact
    data_file = tmp_path / "runA" / cli.DATASET_FILE
    batch = datagen.load_dataset(data_file)
    copy_path = tmp_path / "copy.mspdat"
    datagen.save_dataset(batch, copy_path)
    same &= data_file.read_bytes() == copy_path.read_bytes()
    ckpt_file = tmp_path / "runA" / cli.CHECKPOINT_FILE
    params, train_cfg = tr.load_checkpoint(ckpt_file)
    copy_ckpt = tmp_path / "copy.mspckp"
    tr.save_checkpoint(params, copy_ckpt, config=train_cfg)
    same &= ckpt_file.read_bytes() == copy_ckpt.read_bytes()

    # corrupt files raise format errors rather than crashing
    corrupt_ok = True
    broken = tmp_path / "broken.mspdat"
    broken.write_bytes(data_file.read_bytes()[: (len(data_file.read_bytes()) // 2)])
    try:
        datagen.load_dataset(broken)
        corrupt_ok = False
    except FormatError:
        pass
    broken_ckpt = tmp_path / "broken.mspckp"
    raw = ckpt_file.read_bytes()
    broken_ckpt.write_bytes(b"WRONGMAG" + raw[8:])
    try:
        tr.load_checkpoint(broken_ckpt)
        corrupt_ok = False
    except FormatError:
        pass
    ok = same and corrupt_ok
    assert criterion(11, "artifacts reproduce byte-identically, corrupt files fail cleanly",
                     ok, "generate/train/eval/report x2 compared")
