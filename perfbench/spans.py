"""In-memory span recorder installed around mspred's public functions.

The recorder never edits the package: it rebinds module and class
attributes to timing wrappers and restores the originals on
``uninstall``. A span is ``[name, start, end, parent, step, n]``: the
parent is the index of the enclosing span (-1 at top level), ``step`` the
training step that was running (-1 outside training steps) and ``n`` a
per-span count (tape nodes, sequences, bytes) where one applies. Start and
end are process CPU times (``calibrate.CLOCK``), unscaled.

Names that a module imported by name from another one (``model`` takes
``cholesky_lower`` from ``autodiff``) are wrapped in both places. The
benchmark's reference kernel runs get ``calibrate`` spans, which every
per-layer figure and the step time leave out.
"""

from __future__ import annotations

import functools
import json
import os
from collections import defaultdict

from calibrate import CLOCK, Reference
from mspred import analysis, autodiff, cli, datagen, model, sbd, training
from mspred.errors import SingularityError

# (owner, attribute, span name); a shared span name sums the functions
WRAPPED = [
    (datagen, "make_dataset", "datagen.make_dataset"),
    (datagen, "make_paired", "datagen.make_paired"),
    (datagen, "save_dataset", "datagen.save_dataset"),
    (datagen, "load_dataset", "datagen.load_dataset"),
    (autodiff.Tape, "backward", "autodiff.backward"),
    (autodiff, "spd_inverse", "autodiff.spd_inverse"),
    (autodiff, "cholesky_lower", "autodiff.cholesky_lower"),
    (model, "cholesky_lower", "autodiff.cholesky_lower"),
    (model, "variant_loss", "model.loss"),
    (model.TapeModel, "encode_rows", "model.encode_rows"),
    (model.TapeModel, "decode_rows", "model.decode_rows"),
    (model.TapeModel, "transition_rows", "model.transition_rows"),
    (model, "estimate_transition", "model.transition"),
    (model, "estimate_second_order", "model.transition"),
    (model, "rollout", "model.transition"),
    (model, "rollout_second_order", "model.transition"),
    (model, "horizon_errors_np", "model.horizon_errors_np"),
    (model, "batch_transitions_np", "model.batch_transitions_np"),
    (training, "train", "training.train"),
    (training, "adam_step", "training.adam_step"),
    (training, "_holdout_lp", "training.log_holdout"),
    (training, "_ortho_defect_of_batch", "training.log_ortho"),
    (training, "save_checkpoint", "training.save_checkpoint"),
    (training, "load_checkpoint", "training.load_checkpoint"),
    (analysis, "fitted_transitions", "analysis.fitted_transitions"),
    (analysis, "equivariance_error", "analysis.equivariance_error"),
    (analysis, "homogeneity_check", "analysis.homogeneity_check"),
    (analysis, "paired_spectrum_distances", "analysis.paired_spectrum_distances"),
    (analysis, "regress_transition_params", "analysis.regress_transition_params"),
    (sbd, "fit_sbd", "sbd.fit_sbd"),
    (sbd, "expm_skew", "sbd.expm_skew"),
    (sbd, "_mean_blockness_batched", "sbd.blockness"),
    (cli, "main", "cli"),
    (Reference, "measure", "calibrate"),
]

# spans that carry a count: tape size, sequences generated, bytes written
_COUNTERS = {
    "autodiff.backward": lambda args: len(args[0].values),
    "datagen.make_dataset": lambda args: args[0].num_sequences,
}


def patch(owner, attr, wrapper_factory, patches) -> None:
    """Rebind ``owner.attr`` to ``wrapper_factory(original)``; remember it."""
    orig = owner.__dict__[attr]
    patches.append((owner, attr, orig))
    setattr(owner, attr, wrapper_factory(orig))


def unpatch(patches) -> None:
    """Restore what ``patch`` rebound, last first."""
    while patches:
        owner, attr, orig = patches.pop()
        setattr(owner, attr, orig)


class Tracer:
    """Records nested spans while installed; see the module docstring."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.step = -1
        self.step_span = -1
        self.singularity_errors = 0
        self._patches: list[tuple] = []

    # -- span bookkeeping --------------------------------------------------

    def open(self, name: str, n: float = 0) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, CLOCK(), 0.0, parent, self.step, n])
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        now = CLOCK()
        # an exception may unwind several wrappers at once
        while self.stack:
            top = self.stack.pop()
            if self.spans[top][2] == 0.0:
                self.spans[top][2] = now
            if top == idx:
                break

    def begin_step(self) -> None:
        """Close the running training step, if any, and open the next one."""
        if self.step_span >= 0:
            self.close(self.step_span)
        self.step += 1
        self.step_span = self.open("training.step")

    def end_steps(self) -> None:
        if self.step_span >= 0:
            self.close(self.step_span)
        self.step_span = -1
        self.step = -1

    # -- installation ------------------------------------------------------

    def _wrapper(self, orig, name):
        tracer = self
        counter = _COUNTERS.get(name)

        if name == "cli":
            @functools.wraps(orig)
            def wrapper(argv=None):
                idx = tracer.open(f"cli.{argv[0]}")
                try:
                    return orig(argv)
                finally:
                    tracer.close(idx)
            return wrapper

        if name == "datagen.save_dataset":
            @functools.wraps(orig)
            def wrapper(batch, path):
                idx = tracer.open(name)
                try:
                    return orig(batch, path)
                finally:
                    tracer.close(idx)
                    tracer.spans[idx][5] = os.path.getsize(path)
            return wrapper

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            if name == "model.loss":
                tracer.begin_step()
            idx = tracer.open(name, counter(args) if counter else 0)
            try:
                return orig(*args, **kwargs)
            except SingularityError:
                if name == "autodiff.spd_inverse":
                    tracer.singularity_errors += 1
                raise
            finally:
                tracer.close(idx)
                if name == "training.train":
                    tracer.end_steps()

        return wrapper

    def install(self) -> None:
        for owner, attr, name in WRAPPED:
            patch(owner, attr, lambda orig, name=name: self._wrapper(orig, name),
                  self._patches)

    def uninstall(self) -> None:
        unpatch(self._patches)

    def write(self, path) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name\tstart\tend\tparent\tstep\tn\n")
            for s in self.spans:
                fh.write("\t".join(str(x) for x in s))
                fh.write("\n")

    # -- aggregation -------------------------------------------------------

    def self_times(self) -> list[float]:
        """Per-span duration minus the time covered by its child spans."""
        out = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] >= 0:
                out[s[3]] -= s[2] - s[1]
        return out


def summarize(tracer: Tracer, steps: range, logging_steps: set[int],
              sbd_iterations: int, useful_restarts_ratio: float) -> tuple[dict, dict]:
    """Per-layer metrics (ms, counts) and the step time accounting.

    ``steps`` are the timed training step ids; per-step figures are means
    over them. Per-call figures (``.ms``) are means over every call in the
    traced phase. All times are self times except ``training.log_step.ms``
    (the whole extra work of a logging step), ``training.step.ms_per_step``
    (the traced step's CPU time) and ``sbd.iter_ms``.
    """
    spans = tracer.spans
    self_t = tracer.self_times()
    in_sbd = _inside(spans, "sbd.fit_sbd")

    step_self = defaultdict(float)     # name -> self seconds in timed steps
    step_calls = defaultdict(int)
    call_self = defaultdict(float)     # name -> self seconds over all calls
    calls = defaultdict(int)
    sbd_self = defaultdict(float)
    nodes_step, nodes_sbd = [], []
    log_total = 0.0
    step_cpu = []
    step_kernel = 0.0
    made_seqs = made_s = 0.0
    saved_bytes = []
    fit_s = 0.0
    for i, (name, start, end, _parent, step, n) in enumerate(spans):
        if name == "calibrate":
            if step in steps:
                step_kernel += end - start
            if in_sbd[i]:
                fit_s -= end - start
            continue
        call_self[name] += self_t[i]
        calls[name] += 1
        if in_sbd[i]:
            sbd_self[name] += self_t[i]
            if name == "autodiff.backward":
                nodes_sbd.append(n)
        if step in steps:
            step_self[name] += self_t[i]
            step_calls[name] += 1
            if name == "autodiff.backward":
                nodes_step.append(n)
            if name == "training.step":
                step_cpu.append(end - start)
            if name.startswith("training.log_") and step in logging_steps:
                log_total += end - start
        if name == "datagen.make_dataset":
            made_seqs += n
            made_s += end - start
        elif name == "datagen.save_dataset":
            saved_bytes.append(n)
        elif name == "sbd.fit_sbd":
            fit_s += end - start

    n_steps = max(1, len(steps))
    iters = max(1, sbd_iterations)

    def per_step(name):
        return step_self[name] * 1000.0 / n_steps

    def per_call(name):
        return call_self[name] * 1000.0 / calls[name] if calls[name] else 0.0

    def per_iter(name):
        return sbd_self[name] * 1000.0 / iters if sbd_iterations else 0.0

    logging_in_window = len(logging_steps & set(steps))
    metrics = {
        "datagen.make_dataset.ms": per_call("datagen.make_dataset"),
        "datagen.make_paired.ms": per_call("datagen.make_paired"),
        "datagen.seq_per_s": made_seqs / made_s if made_s else 0.0,
        "datagen.save_dataset.ms": per_call("datagen.save_dataset"),
        "datagen.load_dataset.ms": per_call("datagen.load_dataset"),
        "datagen.dataset_bytes": max(saved_bytes) if saved_bytes else 0,
        "autodiff.tape_nodes_per_step": (sum(nodes_step) / len(nodes_step)
                                         if nodes_step else 0),
        "autodiff.backward.ms_per_step": per_step("autodiff.backward"),
        "autodiff.spd_inverse.calls_per_step":
            step_calls["autodiff.spd_inverse"] / n_steps if steps else 0,
        "autodiff.spd_inverse.ms_per_step": per_step("autodiff.spd_inverse"),
        "autodiff.cholesky_lower.ms_per_step": per_step("autodiff.cholesky_lower"),
        "autodiff.singularity_errors": tracer.singularity_errors,
        "model.transition.ms_per_step": per_step("model.transition"),
        "model.transition.calls_per_step":
            step_calls["model.transition"] / n_steps if steps else 0,
        "model.loss.ms_per_step": per_step("model.loss"),
        "model.encode_rows.ms_per_step": per_step("model.encode_rows"),
        "model.decode_rows.ms_per_step": per_step("model.decode_rows"),
        "model.transition_rows.ms_per_step": per_step("model.transition_rows"),
        "model.horizon_errors_np.ms": per_call("model.horizon_errors_np"),
        "model.batch_transitions_np.ms": per_call("model.batch_transitions_np"),
        "training.step.ms_per_step": ((sum(step_cpu) - step_kernel) * 1000.0 / len(step_cpu)
                                      if step_cpu else 0.0),
        "training.step.self_ms_per_step": per_step("training.step"),
        "training.adam_step.ms_per_step": per_step("training.adam_step"),
        "training.log_step.ms": (log_total * 1000.0 / logging_in_window
                                 if logging_in_window else 0.0),
        "training.save_checkpoint.ms": per_call("training.save_checkpoint"),
        "training.load_checkpoint.ms": per_call("training.load_checkpoint"),
        "analysis.fitted_transitions.ms": per_call("analysis.fitted_transitions"),
        "analysis.equivariance_error.ms": per_call("analysis.equivariance_error"),
        "analysis.homogeneity_check.ms": per_call("analysis.homogeneity_check"),
        "analysis.paired_spectrum_distances.ms":
            per_call("analysis.paired_spectrum_distances"),
        "analysis.regress_transition_params.ms":
            per_call("analysis.regress_transition_params"),
        "sbd.iter_ms": fit_s * 1000.0 / iters if sbd_iterations else 0.0,
        "sbd.iters_per_fit": (sbd_iterations / calls["sbd.fit_sbd"]
                              if calls["sbd.fit_sbd"] else 0),
        "sbd.expm_skew.ms_per_iter": per_iter("sbd.expm_skew"),
        "sbd.blockness.ms_per_iter": per_iter("sbd.blockness"),
        "sbd.backward.ms_per_iter": per_iter("autodiff.backward"),
        "sbd.tape_nodes_per_iter": (sum(nodes_sbd) / len(nodes_sbd)
                                    if nodes_sbd else 0),
        "sbd.useful_restarts_ratio": useful_restarts_ratio,
        "cli.eval.self_ms": per_call("cli.eval"),
        "cli.generate.self_ms": per_call("cli.generate"),
    }
    accounting = {name: per_step(name) for name in sorted(step_self)}
    return metrics, accounting


def _inside(spans, name) -> list[bool]:
    """For each span, whether it is ``name`` or nested inside one."""
    out = [False] * len(spans)
    for i, s in enumerate(spans):
        out[i] = s[0] == name or (s[3] >= 0 and out[s[3]])
    return out


def dump_accounting(accounting: dict, step_ms: float) -> str:
    total = sum(accounting.values())
    return json.dumps({"step_cpu_ms": step_ms, "sum_of_self_ms": total,
                       "self_ms_per_step": accounting}, sort_keys=True)
