"""Config-driven experiment runner.

Subcommands: generate, train, eval, sbd, report. Every command takes
--config PATH; artifact paths are fixed names inside the output
directory, so a pipeline is:

    mspred generate --config exp.json
    mspred train    --config exp.json
    mspred eval     --config exp.json
    mspred sbd      --config exp.json
    mspred report   --config exp.json

Exit codes: 0 ok, 2 invalid config, 3 training abort, 4 shape mismatch,
5 missing inputs. MSP_LOG={error,info,debug} controls stderr verbosity;
machine-readable output goes to files only.

The eval report is a JSON object with keys: kind ("eval_report"),
config_hash, version, horizons {t_p: [...], lp: [...]},
equivariance / homogeneity / spectrum / regression sub-reports (each with
its own "kind"), and artifacts (paths of files this run wrote).

Eval generates each of its batches once and fits each once per estimator;
every section reads those fits:

- the eval batch (eval_sequences sequences of T_c + horizons frames): the
  horizon curve reads its fit with the model's own estimator
  (``TrainConfig.transition`` and ``order``), the regression probe its fit
  with the default one (``model.default_transition``, first order). That
  is one fit whenever the two agree, which holds for every order-1 model
  but ``fixed_blocks``;
- the paired batch (max(pair_count, spectrum_pairs) pairs of T_c + T_p
  frames), each side fitted once with the default estimator: equivariance
  reads the first pair_count pairs, the spectrum distances the
  transitions of the first spectrum_pairs, so the spectrum pairs are the
  first spectrum_pairs of the equivariance pairs;
- the orbit probe (probe_offsets + 1 sequences of T_c + 1 frames), fitted
  once with the default estimator for homogeneity.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys

import numpy as np

from . import __version__
from . import analysis as an
from . import config as cfgmod
from . import datagen, model as mm, sbd as sbdmod, svg, training as tr
from .container import atomic_write
from .errors import (
    DimensionError,
    FormatError,
    MspredError,
    TrainingAbort,
    ValidationError,
)

log = logging.getLogger("mspred")

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_TRAINING = 3
EXIT_SHAPE = 4
EXIT_MISSING = 5

DATASET_FILE = "dataset.mspdat"
CHECKPOINT_FILE = "checkpoint.mspckp"
METRICS_FILE = "metrics.jsonl"
EVAL_REPORT_FILE = "eval_report.json"
SBD_RESULT_FILE = "sbd_result.json"

# derived-seed lanes for the auxiliary datasets a run generates
_EVAL_SEED_LANE = 1001
_PAIR_SEED_LANE = 1002
_PROBE_SEED_LANE = 1003
_FACTOR_SEED_LANE = 1004


def _setup_logging():
    level = {"error": logging.ERROR, "info": logging.INFO,
             "debug": logging.DEBUG}.get(os.environ.get("MSP_LOG", "error"), logging.ERROR)
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))
    log.handlers[:] = [handler]
    log.setLevel(level)


def _load_config(args) -> cfgmod.ExperimentConfig:
    cfg = cfgmod.load(args.config)
    return cfgmod.with_overrides(
        cfg,
        seed=getattr(args, "seed", None),
        out_dir=getattr(args, "out", None),
        variant=getattr(args, "variant", None),
        order=getattr(args, "order", None),
        horizons=getattr(args, "horizons", None),
        iters=getattr(args, "iters", None),
    )


def _write_json(payload: dict, path) -> None:
    atomic_write(path, (json.dumps(payload, sort_keys=True, indent=1) + "\n").encode("utf-8"))


def cmd_generate(args) -> int:
    cfg = _load_config(args)
    os.makedirs(cfg.out_dir, exist_ok=True)
    batch = datagen.make_dataset(cfg.generator, cfg.master_seed, cfg.mode)
    path = os.path.join(cfg.out_dir, DATASET_FILE)
    digest = datagen.save_dataset(batch, path)
    log.info("dataset %s (%d sequences)", path, batch.num_sequences)
    print(digest)
    return EXIT_OK


def cmd_train(args) -> int:
    cfg = _load_config(args)
    dataset = datagen.load_dataset(os.path.join(cfg.out_dir, DATASET_FILE))
    ckpt_path = os.path.join(cfg.out_dir, CHECKPOINT_FILE)
    metrics_path = os.path.join(cfg.out_dir, METRICS_FILE)
    try:
        params, metrics = tr.train(cfg.train, dataset)
    except TrainingAbort as abort:
        log.error("training aborted at iteration %d: %s", abort.iteration, abort)
        if abort.params is not None:
            tr.save_checkpoint(abort.params, ckpt_path, config=cfg.train)
            tr.write_metrics(abort.metrics, metrics_path)
        return EXIT_TRAINING
    tr.save_checkpoint(params, ckpt_path, config=cfg.train)
    tr.write_metrics(metrics, metrics_path)
    log.info("checkpoint %s, %d metric rows", ckpt_path, len(metrics))
    return EXIT_OK


def _load_eval_inputs(cfg, args):
    """Dataset, model and resolved train config that eval and sbd analyse.

    The model is the checkpoint, or the generator's oracle with --oracle.
    A checkpoint without a stored config is read with the run config's.

    Raises:
        FileNotFoundError: the dataset or checkpoint is missing.
        DimensionError: the checkpoint does not fit the dataset, or its
            neural transition head was built for another ``T_c``.
    """
    dataset = datagen.load_dataset(os.path.join(cfg.out_dir, DATASET_FILE))
    if args.oracle:
        log.info("using the oracle model (debug flag)")
        return dataset, mm.OracleModel(dataset.spec), cfg.train.resolved()
    params, train_cfg = tr.load_checkpoint(os.path.join(cfg.out_dir, CHECKPOINT_FILE))
    if params.obs_dim != dataset.spec.obs_dim:
        raise DimensionError(f"checkpoint expects obs_dim={params.obs_dim} "
                             f"but dataset has {dataset.spec.obs_dim}")
    train_cfg = (train_cfg if train_cfg is not None else cfg.train).resolved()
    if params.mstar and params.mstar[0][0].shape[0] != train_cfg.T_c * params.obs_dim:
        raise DimensionError(f"the checkpoint's transition head reads T_c={params.T_c} "
                             f"frames, the config has T_c={train_cfg.T_c}")
    return dataset, params, train_cfg


def _transition_kind(args, train_cfg) -> str:
    """The transition estimator of the horizon curve and SBD: the model's own.

    The oracle has no neural head; it is scored with the closed-form solve.
    """
    return "lstsq" if args.oracle else train_cfg.transition


def cmd_eval(args) -> int:
    cfg = _load_config(args)
    dataset, params, train_cfg = _load_eval_inputs(cfg, args)
    ev = cfg.eval_spec
    horizons = ev["horizons"]
    kind = _transition_kind(args, train_cfg)
    spec = dataset.spec
    T_c = train_cfg.T_c

    eval_spec = datagen.with_length(
        datagen.with_num_sequences(spec, ev["eval_sequences"]), T_c + horizons)
    eval_batch = datagen.make_dataset(eval_spec, datagen.mix64(cfg.master_seed, _EVAL_SEED_LANE),
                                      cfg.mode)
    eval_obs = eval_batch.observations
    curve_fit = mm.fit_np(params, eval_obs, T_c, order=train_cfg.order, transition=kind)
    lp_curve = mm.horizon_errors_np(params, eval_obs, T_c, horizons, fit=curve_fit)
    target_var = float(eval_obs[:, T_c].var(axis=0).sum())
    # the regression reads the model's default estimator, which is the
    # curve's unless the curve is a blockwise or second-order lstsq fit
    shares_fit = (kind == mm.default_transition(params)
                  and (kind != "lstsq" or train_cfg.order == 1))
    reg_fit = curve_fit if shares_fit else mm.fit_np(params, eval_obs, T_c)
    reg_scores = an.regress_transition_params(
        reg_fit.op, an.velocity_targets(eval_batch), seed=cfg.master_seed)

    # one paired batch: equivariance reads its first pair_count pairs, the
    # spectrum distances the first spectrum_pairs
    pair_count, spectrum_pairs = ev["pair_count"], ev["spectrum_pairs"]
    pair_spec = datagen.with_length(
        datagen.with_num_sequences(spec, max(pair_count, spectrum_pairs)), T_c + train_cfg.T_p)
    paired = datagen.make_paired(pair_spec, datagen.mix64(cfg.master_seed, _PAIR_SEED_LANE),
                                 cfg.mode)
    first_fit, second_fit = an.paired_fits(params, paired, T_c)
    equi = an.equivariance_error(params, paired.head(pair_count), T_c, train_cfg.T_p,
                                 fits=(first_fit.head(pair_count), second_fit.head(pair_count)))
    spec_dists = an.spectrum_distances(first_fit.op[:spectrum_pairs],
                                       second_fit.op[:spectrum_pairs]).tolist()

    probe_spec = datagen.with_length(datagen.with_num_sequences(spec, 1), T_c + 1)
    probe = datagen.make_orbit_probe(probe_spec,
                                     datagen.mix64(cfg.master_seed, _PROBE_SEED_LANE),
                                     ev["probe_offsets"])
    homo = an.homogeneity_check(params, probe, T_c=T_c)
    factor_names = ([f"cos_v{j}" for j in range(spec.k)]
                    + [f"sin_v{j}" for j in range(spec.k)])

    report_path = os.path.join(cfg.out_dir, EVAL_REPORT_FILE)
    report = {
        "kind": "eval_report",
        "config_hash": cfg.config_hash,
        "version": __version__,
        "oracle_model": bool(getattr(args, "oracle", False)),
        "target_variance": target_var,
        "horizons": {"t_p": list(range(1, horizons + 1)),
                     "lp": [float(x) for x in lp_curve]},
        "equivariance": equi.to_dict(),
        "homogeneity": homo.to_dict(),
        "spectrum": {"kind": "spectrum_pairs",
                     "distances": [float(d) for d in spec_dists],
                     "mean": float(np.mean(spec_dists)),
                     "max": float(np.max(spec_dists))},
        "regression": {"kind": "regression", "targets": factor_names,
                       "one_minus_r2": reg_scores},
        "artifacts": {"dataset": DATASET_FILE,
                      "checkpoint": None if args.oracle else CHECKPOINT_FILE,
                      "report": EVAL_REPORT_FILE},
    }
    _write_json(report, report_path)
    log.info("eval report %s", report_path)
    return EXIT_OK


def cmd_sbd(args) -> int:
    cfg = _load_config(args)
    dataset, params, train_cfg = _load_eval_inputs(cfg, args)
    sp = cfg.sbd_spec
    spec = dataset.spec
    count = min(sp["num_transitions"], dataset.num_sequences)
    estimator = {"transition": _transition_kind(args, train_cfg), "order": train_cfg.order}
    mats = mm.batch_transitions_np(params, dataset.observations[:count], train_cfg.T_c,
                                   **estimator)
    result = sbdmod.fit_sbd(list(mats), iters=sp["iters"], lr=sp["lr"],
                            seed=sp["seed"], threshold=sp["threshold"],
                            restarts=sp["restarts"])
    vs = result.conjugate(mats)
    eye = np.eye(vs.shape[1])
    mean_energy = np.abs(vs - eye).mean(axis=0)

    factor_energies = []
    per_factor_files = []
    factor_spec = datagen.with_num_sequences(
        datagen.with_length(spec, train_cfg.T_c + 1), 32)
    for j in range(spec.k):
        fb = datagen.make_single_factor(
            factor_spec, datagen.mix64(cfg.master_seed, _FACTOR_SEED_LANE + j), j)
        fmats = mm.batch_transitions_np(params, fb.observations, train_cfg.T_c, **estimator)
        fvs = result.conjugate(fmats)
        energy = np.abs(fvs - eye).mean(axis=0)
        factor_energies.append(energy)
        fname = f"sbd_factor_{j}.svg"
        svg.heatmap(energy, os.path.join(cfg.out_dir, fname),
                    title=f"average |V - I|, factor {j} only")
        per_factor_files.append(fname)
    assignment = sbdmod.assign_blocks_to_factors(result.blocks, factor_energies)
    svg.heatmap(mean_energy, os.path.join(cfg.out_dir, "sbd_mean.svg"),
                title="average |V - I|, all sequences")

    payload = result.to_dict()
    payload.update({
        "config_hash": cfg.config_hash,
        "version": __version__,
        "num_transitions": count,
        "estimator": estimator,
        "factor_block_assignment": assignment,
        "mean_abs_v_minus_i": mean_energy.tolist(),
        "artifacts": {"mean_heatmap": "sbd_mean.svg",
                      "factor_heatmaps": per_factor_files},
    })
    _write_json(payload, os.path.join(cfg.out_dir, SBD_RESULT_FILE))
    log.info("sbd result with blocks %s", result.blocks.blocks)
    return EXIT_OK


def cmd_report(args) -> int:
    cfg = _load_config(args)
    metrics_path = os.path.join(cfg.out_dir, METRICS_FILE)
    rows = tr.read_metrics(metrics_path)
    if not rows:
        log.error("metrics file %s is empty", metrics_path)
        return EXIT_MISSING
    with open(os.path.join(cfg.out_dir, EVAL_REPORT_FILE), encoding="utf-8") as fh:
        report = json.load(fh)

    iters = [r["iter"] for r in rows]
    series = {"train loss": (iters, [r["loss"] for r in rows])}
    if any(r["loss_eval"] is not None for r in rows):
        pairs = [(r["iter"], r["loss_eval"]) for r in rows if r["loss_eval"] is not None]
        series["held-out"] = ([p[0] for p in pairs], [p[1] for p in pairs])
    positive = all(v > 0 for _, ys in series.values() for v in ys)
    svg.line_chart(series, os.path.join(cfg.out_dir, "loss_curve.svg"),
                   title="training loss", x_label="iteration", y_label="loss",
                   y_log=positive)

    hz = report["horizons"]
    svg.line_chart({"prediction error": (hz["t_p"], hz["lp"])},
                   os.path.join(cfg.out_dir, "horizon_curve.svg"),
                   title="prediction error by horizon", x_label="prediction step",
                   y_label="mean squared error",
                   y_log=all(v > 0 for v in hz["lp"]))
    defects = [(r["iter"], r["ortho_defect"]) for r in rows
               if r["ortho_defect"] is not None]
    if defects:
        svg.line_chart({"orthogonality defect": ([d[0] for d in defects],
                                                 [d[1] for d in defects])},
                       os.path.join(cfg.out_dir, "ortho_curve.svg"),
                       title="transition orthogonality defect",
                       x_label="iteration", y_label="defect",
                       y_log=all(d[1] > 0 for d in defects))
    log.info("charts written to %s", cfg.out_dir)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="mspred",
                                     description="sequence-equivariance experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, *, oracle=False):
        p.add_argument("--config", required=True, help="experiment config JSON")
        p.add_argument("--out", default=None, help="override output directory")
        p.add_argument("--seed", type=int, default=None, help="override master seed")
        p.add_argument("--variant", default=None,
                       choices=list(mm.VARIANTS), help="override training variant")
        p.add_argument("--order", type=int, default=None, choices=(1, 2),
                       help="override transition order")
        p.add_argument("--horizons", type=int, default=None,
                       help="override evaluation horizon count")
        p.add_argument("--iters", type=int, default=None,
                       help="override training iteration count")
        if oracle:
            p.add_argument("--oracle", action="store_true",
                           help="debug: evaluate the exact generator-derived model")

    common(sub.add_parser("generate", help="write the dataset file"))
    common(sub.add_parser("train", help="train and write checkpoint + metrics"))
    common(sub.add_parser("eval", help="write the evaluation report"), oracle=True)
    common(sub.add_parser("sbd", help="block-diagonalize learned transitions"),
           oracle=True)
    common(sub.add_parser("report", help="render SVG charts from run artifacts"))
    return parser


_COMMANDS = {
    "generate": cmd_generate,
    "train": cmd_train,
    "eval": cmd_eval,
    "sbd": cmd_sbd,
    "report": cmd_report,
}


def main(argv=None) -> int:
    _setup_logging()
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except FileNotFoundError as exc:
        log.error("missing input: %s", exc)
        return EXIT_MISSING
    except DimensionError as exc:
        log.error("shape mismatch: %s", exc)
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SHAPE
    except (ValidationError, FormatError) as exc:
        field = getattr(exc, "field", None)
        log.error("invalid config%s: %s", f" (field {field})" if field else "", exc)
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MspredError as exc:
        log.error("failed: %s", exc)
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
