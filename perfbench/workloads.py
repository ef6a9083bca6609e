"""The four benchmark workloads, driven through mspred's public API.

Every workload has the same shape: ``setup`` builds the inputs from the
seed (timed, repeated by the caller), ``run`` does the measured work for
about the requested number of seconds and returns a ``Phase`` with the
end-to-end values, the operation counts and the check results.

Training step times come from a step clock: thin wrappers on
``model.variant_loss`` (a step starts), ``training.adam_step`` (a step's
update is done) and ``model.horizon_errors_np`` (the held-out evaluation of
a logging step). The clock also stops ``training.train`` once the window is
over. SBD iteration times come from the same kind of clock on the
``adam_step`` that ``sbd`` imported. The clocks take one timestamp per
call and stay installed with tracing off.

Every time is CPU time (``calibrate.CLOCK``). Steps and SBD iterations are
cut into short blocks, and each block runs the reference kernel of
``calibrate`` once; a kernel's CPU time is taken out of the step it ran in.
Each statistic is a median over the run's blocks, scaled by the median of
the run's kernel times (see ``calibrate``). Repeated stages are scaled one
by one, by the kernel runs on either side of each, and reported as the
median over the repeats.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import time
from dataclasses import dataclass, field

import numpy as np

from calibrate import CLOCK, Reference
from mspred import autodiff, cli, config, datagen, model, sbd, training
from spans import patch, unpatch

# shared by every training workload; MLP sizes are explicit so that a change
# of either default (TrainConfig or the CLI config) does not move the benchmark
TRAIN_DIMS = dict(a=8, m=16, enc_hidden=(128, 128), dec_hidden=(128, 128),
                  mstar_hidden=(128, 128), batch_size=32, iterations=10_000)
WARMUP_STEPS = 20         # left out of every step statistic
MIN_BLOCKS = 10           # timed blocks (log intervals) a training run reaches
EVAL_SEQUENCES = 512      # the fixed held-out batch behind quality_loss
EVAL_SEED_LANE = 1001

# A training block is one log interval: log_interval - 1 plain steps and the
# logging step that ends it, which is the step time tail. holdout is the
# number of rows each logging step evaluates.
TRAIN_WORKLOADS = {
    "train-msp": dict(mode="velocity", variant="msp", order=1, T_c=2, T_p=1,
                      holdout=128, log_interval=25, quality_steps=500),
    "train-neural": dict(mode="velocity", variant="neural_mstar", order=1, T_c=2, T_p=1,
                         holdout=128, log_interval=25, quality_steps=1000),
    "train-accel": dict(mode="acceleration", variant="msp", order=2, T_c=5, T_p=5,
                        holdout=32, log_interval=5, quality_steps=100),
}

# the planted family and fit settings of acceptance criterion c04
C04_FAMILY_SEED = 11004
C04_FIT = dict(iters=1000, lr=0.05)
SBD_BLOCK = 100           # iterations per SBD block
# SBD iterations all run the same 68-node tape, so the higher percentiles of
# their times read only the machine's speed changes: over five seeds in a
# noisy stretch the block p90 spread 0.23 and the block p75 0.14
SBD_TAIL_PCT = 75.0
ANALYZE_MIN_REPEATS = 5   # generate and eval stages per run, at least

WORKLOADS = (*TRAIN_WORKLOADS, "analyze")


class StopTraining(Exception):
    """Raised by the step clock to end ``training.train`` after the window."""


@dataclass
class Phase:
    """What one measured run of a workload produced."""

    values: dict                 # end-to-end metric -> value (setup_s filled by caller)
    attempted: int
    failed: int
    details: dict = field(default_factory=dict)
    steps: range = range(0)      # timed training step ids
    logging_steps: set = field(default_factory=set)
    sbd_iterations: int = 0
    useful_restarts_ratio: float = 0.0


def timed_blocks(samples_s, block, warmup, kernel_s):
    """Per-sample ms in rows of ``block`` consecutive samples.

    ``kernel_s`` maps a sample index to the CPU seconds of a reference
    kernel run inside that sample, which is taken out of it. Rows that start
    within the first ``warmup`` samples and an incomplete last row are dropped.
    """
    ms = np.asarray(samples_s, dtype=float) * 1000.0
    for i, k in kernel_s.items():
        if i < len(ms):
            ms[i] -= k * 1000.0
    n = len(ms) // block
    skip = -(-warmup // block)
    if n <= skip:
        raise RuntimeError(f"{len(ms)} samples make no timed block of {block}")
    return ms[: n * block].reshape(n, block)[skip:]


def run_scale(kernel_s) -> float:
    """Reference time over the median of the kernel runs ``kernel_s``."""
    return Reference.scale(float(np.median(kernel_s)))


# ---------------------------------------------------------------------------
# training workloads


class StepClock:
    """Step start times, losses, held-out evaluation times, a parameter
    snapshot, and the deadline stop."""

    def __init__(self, deadline, hard_deadline, min_steps, snapshot_at, interval, reference):
        self.deadline = deadline
        self.hard_deadline = hard_deadline
        self.min_steps = min_steps
        self.snapshot_at = snapshot_at
        self.interval = interval
        self.reference = reference
        self.starts: list[float] = []
        self.losses: list[float] = []
        self.eval_s: dict[int, float] = {}     # logging step -> held-out eval CPU s
        self.kernel_s: dict[int, float] = {}   # step -> reference kernel CPU s
        self.done = 0
        self.snapshot = None
        self._patches: list = []

    def install(self):
        clock = self

        def loss_factory(orig):
            def variant_loss(*args, **kwargs):
                clock.starts.append(CLOCK())
                loss = orig(*args, **kwargs)
                clock.losses.append(float(loss.value[0, 0]))
                return loss
            return variant_loss

        def adam_factory(orig):
            def adam_step(state, params, grads):
                out = orig(state, params, grads)
                clock.done += 1
                # one kernel run in the first (plain) step of every block
                if (clock.done - 1) % clock.interval == 0:
                    clock.kernel_s[clock.done - 1] = clock.reference.measure()
                if clock.done == clock.snapshot_at:
                    clock.snapshot = {k: v.copy() for k, v in params.items()}
                now = time.perf_counter()
                if now >= clock.hard_deadline or (
                        now >= clock.deadline and clock.done >= clock.min_steps):
                    raise StopTraining
                return out
            return adam_step

        def eval_factory(orig):
            def horizon_errors_np(*args, **kwargs):
                t0 = CLOCK()
                out = orig(*args, **kwargs)
                clock.eval_s[clock.done - 1] = CLOCK() - t0
                return out
            return horizon_errors_np

        patch(model, "variant_loss", loss_factory, self._patches)
        patch(training, "adam_step", adam_factory, self._patches)
        patch(model, "horizon_errors_np", eval_factory, self._patches)

    def uninstall(self):
        unpatch(self._patches)


@dataclass
class TrainInputs:
    cfg: model.TrainConfig
    dataset: datagen.SequenceBatch
    eval_obs: np.ndarray
    untrained_lp: float
    transition: str


def train_setup(name, seed, workdir) -> TrainInputs:
    """Dataset file written and read back, held-out batch, untrained baseline."""
    w = TRAIN_WORKLOADS[name]
    spec = (datagen.velocity_spec() if w["mode"] == "velocity"
            else datagen.acceleration_spec())
    cfg = model.TrainConfig(**TRAIN_DIMS, seed=seed, variant=w["variant"], order=w["order"],
                            T_c=w["T_c"], T_p=w["T_p"], holdout=w["holdout"],
                            log_interval=w["log_interval"])
    path = os.path.join(workdir, "train.mspdat")
    datagen.save_dataset(datagen.make_dataset(spec, seed, w["mode"]), path)
    dataset = datagen.load_dataset(path)
    eval_spec = datagen.with_length(datagen.with_num_sequences(spec, EVAL_SEQUENCES),
                                    w["T_c"] + w["T_p"])
    eval_obs = datagen.make_dataset(eval_spec, datagen.mix64(seed, EVAL_SEED_LANE),
                                    w["mode"]).observations
    transition = "neural" if w["variant"] == "neural_mstar" else "lstsq"
    init = model.ModelParams.initialize(cfg, obs_dim=spec.obs_dim)
    untrained = model.horizon_errors_np(init, eval_obs, w["T_c"], 1, order=w["order"],
                                        transition=transition)[0]
    return TrainInputs(cfg, dataset, eval_obs, float(untrained), transition)


def train_run(name, inputs: TrainInputs, seconds, hard_deadline, reference) -> Phase:
    w = TRAIN_WORKLOADS[name]
    cfg = inputs.cfg
    interval = cfg.log_interval
    clock = StepClock(deadline=time.perf_counter() + seconds, hard_deadline=hard_deadline,
                      min_steps=max(w["quality_steps"], WARMUP_STEPS + MIN_BLOCKS * interval),
                      snapshot_at=w["quality_steps"], interval=interval, reference=reference)
    clock.install()
    try:
        training.train(cfg, inputs.dataset)
    except StopTraining:
        pass
    finally:
        clock.uninstall()

    # a step lasts from its loss call to the next one; the last step started
    # was cut by the stop and is dropped
    blocks = timed_blocks(np.diff(clock.starts), interval, WARMUP_STEPS, clock.kernel_s)
    scale = run_scale(list(clock.kernel_s.values()))
    first = -(-WARMUP_STEPS // interval) * interval
    steps = range(first, first + blocks.size)
    evals = np.array([clock.eval_s[first + (r + 1) * interval - 1] for r in range(len(blocks))])
    non_finite = sum(1 for x in clock.losses if not math.isfinite(x))

    quality = float("nan")
    if clock.snapshot is not None:
        trained = model.ModelParams.initialize(cfg, obs_dim=inputs.dataset.spec.obs_dim)
        trained.apply_named(clock.snapshot)
        quality = float(model.horizon_errors_np(trained, inputs.eval_obs, cfg.T_c, 1,
                                                order=cfg.order,
                                                transition=inputs.transition)[0])
    failed = non_finite + (0 if quality < inputs.untrained_lp else 1)
    values = {
        "step_ms_p50": float(np.median(np.median(blocks, axis=1))) * scale,
        "step_ms_tail": float(np.median(blocks[:, -1])) * scale,
        "seq_per_s": cfg.batch_size * interval / (np.median(blocks.sum(axis=1)) * scale / 1000.0),
        "eval_s": float(np.median(evals)) * scale,
        "quality_loss": quality,
    }
    details = {
        "steps_run": clock.done, "timed_blocks": len(blocks),
        "cpu_step_ms_p50": float(np.median(blocks)),
        "cpu_logging_step_ms_p50": float(np.median(blocks[:, -1])),
        "scale": scale,
        "log_interval": interval, "holdout_evals": len(clock.eval_s),
        "quality_steps": w["quality_steps"], "untrained_lp": inputs.untrained_lp,
        "non_finite_losses": non_finite,
    }
    return Phase(values, attempted=len(clock.losses) + 1, failed=failed, details=details,
                 steps=steps,
                 logging_steps={i for i in steps if (i + 1) % interval == 0})


# ---------------------------------------------------------------------------
# analysis workload


@dataclass
class AnalyzeInputs:
    config_path: str
    exp: config.ExperimentConfig
    digest: str
    family: list


def c04_family() -> list[np.ndarray]:
    """64 rotations sharing four planted 2x2 blocks in a random basis."""
    rng = np.random.default_rng(C04_FAMILY_SEED)
    basis, _ = np.linalg.qr(rng.normal(size=(8, 8)))
    mats = []
    for _ in range(64):
        angles = rng.choice([-1.0, 1.0], size=4) * rng.uniform(0.3, 1.4, size=4)
        mats.append(basis @ datagen.latent_rotation(angles) @ basis.T)
    return mats


def analyze_setup(seed, workdir) -> AnalyzeInputs:
    """Config file, desk dataset with its digest, seeded-init checkpoint, c04 family."""
    doc = {"master_seed": seed, "out_dir": workdir,
           "train": {"seed": seed, "enc_hidden": list(TRAIN_DIMS["enc_hidden"]),
                     "dec_hidden": list(TRAIN_DIMS["dec_hidden"])}}
    config_path = os.path.join(workdir, "experiment.json")
    with open(config_path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    exp = config.load(config_path)
    data_path = os.path.join(workdir, cli.DATASET_FILE)
    datagen.save_dataset(datagen.make_dataset(exp.generator, exp.master_seed, exp.mode),
                         data_path)
    with open(data_path, "rb") as fh:
        digest = hashlib.sha256(fh.read()).hexdigest()
    params = model.ModelParams.initialize(exp.train, obs_dim=exp.generator.obs_dim)
    training.save_checkpoint(params, os.path.join(workdir, cli.CHECKPOINT_FILE),
                             config=exp.train)
    return AnalyzeInputs(config_path, exp, digest, c04_family())


def _offblock_mass(vs, blocks) -> float:
    """Share of squared mass outside the detected blocks, as c04 scores it."""
    total = float((vs**2).sum())
    off = total
    for members in blocks.blocks:
        idx = np.array(members)
        off -= float((vs[:, idx[:, None], idx[None, :]] ** 2).sum())
    return off / total


def _useful_restarts(history, iters) -> float:
    """Share of restarts that lowered the running best loss."""
    restarts = len(history) // iters
    useful = 0
    best = math.inf
    for r in range(restarts):
        end = history[(r + 1) * iters - 1]
        if end < best:
            useful += 1
            best = end
    return useful / restarts


def _equivariance_check(inputs: AnalyzeInputs, report) -> bool:
    """The report's equivariance lp equals the training loss on its batch."""
    exp = inputs.exp
    t_c, t_p = exp.train.T_c, exp.train.T_p
    pair_spec = datagen.with_length(
        datagen.with_num_sequences(exp.generator, exp.eval_spec["pair_count"]), t_c + t_p)
    paired = datagen.make_paired(pair_spec, datagen.mix64(exp.master_seed,
                                                          cli._PAIR_SEED_LANE), exp.mode)
    params, _ = training.load_checkpoint(os.path.join(exp.out_dir, cli.CHECKPOINT_FILE))
    tape = model.TapeModel(autodiff.Tape(), params)
    loss = float(model.loss_pred(tape, paired.second.observations, t_c, t_p).value[0, 0])
    return abs(report["equivariance"]["lp"] - loss) <= 1e-12 * abs(loss)


def analyze_run(inputs: AnalyzeInputs, seconds, hard_deadline, reference) -> Phase:
    argv_tail = ["--config", inputs.config_path]
    report_path = os.path.join(inputs.exp.out_dir, cli.EVAL_REPORT_FILE)
    gen_s, eval_s = [], []      # CPU s of each stage, scaled
    failed = 0
    report_bytes = None

    def kernels():
        """Two kernel runs between stages; a stage is scaled by the four on
        either side of it, as a stage lasts only about half a second."""
        return [reference.measure(), reference.measure()]

    def stage_pair():
        nonlocal failed, report_bytes
        before = kernels()
        out = io.StringIO()
        t0 = CLOCK()
        with contextlib.redirect_stdout(out):
            code = cli.main(["generate", *argv_tail])
        t = CLOCK() - t0
        between = kernels()
        gen_s.append(t * run_scale(before + between))
        if code != 0 or out.getvalue().strip() != inputs.digest:
            failed += 1
        t0 = CLOCK()
        code = cli.main(["eval", *argv_tail])
        t = CLOCK() - t0
        eval_s.append(t * run_scale(between + kernels()))
        with open(report_path, "rb") as fh:
            raw = fh.read()
        report_bytes = report_bytes or raw
        if code != 0 or raw != report_bytes:
            failed += 1

    def stage_pairs_until(t_end):
        stage_pair()
        while time.perf_counter() < min(t_end, hard_deadline):
            stage_pair()

    stamps: list[float] = []
    kernel_s: dict[int, float] = {}     # iteration -> reference kernel CPU s
    patches: list = []

    def adam_factory(orig):
        def adam_step(*args, **kwargs):
            out = orig(*args, **kwargs)
            stamps.append(CLOCK())
            # one kernel run at the end of every block of SBD_BLOCK iterations
            if len(stamps) % SBD_BLOCK == 0:
                kernel_s[len(stamps) - 1] = reference.measure()
            return out
        return adam_step

    # stage pairs fill the window on both sides of the fit, so that their
    # median is drawn from the whole run
    start = time.perf_counter()
    stage_pairs_until(start + seconds / 2)
    patch(sbd, "adam_step", adam_factory, patches)
    try:
        t0 = CLOCK()
        result = sbd.fit_sbd(inputs.family, seed=inputs.exp.master_seed, **C04_FIT)
        sbd_s = CLOCK() - t0 - sum(kernel_s.values())
    finally:
        unpatch(patches)
    mass = _offblock_mass(result.conjugate(np.stack(inputs.family)), result.blocks)
    recovered = result.blocks.sizes() == [2, 2, 2, 2] and mass < 0.01
    failed += 0 if recovered else 1
    stage_pairs_until(start + seconds)
    while len(eval_s) < ANALYZE_MIN_REPEATS and time.perf_counter() < hard_deadline:
        stage_pair()
    if not _equivariance_check(inputs, json.loads(report_bytes)):
        failed += len(eval_s)

    blocks = timed_blocks(np.diff(stamps), SBD_BLOCK, SBD_BLOCK, kernel_s)
    scale = run_scale(list(kernel_s.values()))
    values = {
        "step_ms_p50": float(np.median(np.median(blocks, axis=1))) * scale,
        "step_ms_tail": float(np.median(np.percentile(blocks, SBD_TAIL_PCT, axis=1))) * scale,
        "seq_per_s": inputs.exp.generator.num_sequences / float(np.median(gen_s)),
        "eval_s": float(np.median(eval_s)),
        "quality_loss": float(result.loss_history[-1]),
    }
    details = {
        "generate_s": gen_s, "eval_s": eval_s, "sbd_cpu_s": sbd_s,
        "sbd_recovered_frac": float(recovered), "sbd_offblock_mass": mass,
        "blocks": result.blocks.sizes(), "timed_blocks": len(blocks),
        "cpu_step_ms_p50": float(np.median(blocks)), "scale": scale,
        "dataset_sha256": inputs.digest,
    }
    return Phase(values, attempted=len(gen_s) + len(eval_s) + 1, failed=failed,
                 details=details, sbd_iterations=len(result.loss_history),
                 useful_restarts_ratio=_useful_restarts(result.loss_history,
                                                        C04_FIT["iters"]))


def setup(name, seed, workdir):
    if name == "analyze":
        return analyze_setup(seed, workdir)
    return train_setup(name, seed, workdir)


def run(name, inputs, seconds, hard_deadline, reference) -> Phase:
    """The measured work, timed against ``reference``, a ``calibrate.Reference``."""
    if name == "analyze":
        return analyze_run(inputs, seconds, hard_deadline, reference)
    return train_run(name, inputs, seconds, hard_deadline, reference)
