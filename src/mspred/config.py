"""Experiment configuration: parsing, validation, canonical hashing.

A run is fully determined by its config, so the config is canonicalized
(defaults materialized, keys sorted) before hashing; the SHA-256 of that
canonical JSON, without ``out_dir`` and with ``NUMERICS_VERSION``,
identifies every artifact the run produces, wherever it is written.
Unknown keys are rejected rather than ignored. The ``generator``
section's keys and defaults are those of ``datagen.velocity_spec()``
plus ``mode`` ("velocity"); the ``train`` section's are ``TrainConfig``'s
fields. Both sections are parsed by their dataclass's ``from_dict``, the
same parser the dataset and checkpoint readers use. CLI overrides edit
the document as given and parse it again, so ``TrainConfig.resolved``
alone derives ``T_c``, ``T_p`` and ``decay_at`` from what both leave out.
"""

from __future__ import annotations

import copy
import hashlib
import json
from dataclasses import dataclass

from .datagen import GeneratorSpec, velocity_spec
from .errors import FormatError, ValidationError, require_int, require_real
from .model import TrainConfig

_EVAL_DEFAULTS = {
    "horizons": 18,
    "eval_sequences": 512,
    "pair_count": 256,
    "probe_offsets": 5,
    "spectrum_pairs": 50,
}

_SBD_DEFAULTS = {
    "iters": 1000,
    "lr": 0.05,
    "threshold": 0.01,
    "num_transitions": 64,
    "restarts": 4,
    "seed": 0,
}

_REQUIRED = ("master_seed", "out_dir")

# Version of the training arithmetic, folded into every config hash. Bump it
# whenever a change moves trained parameters (even at rounding level), so
# artifacts keyed by the hash, such as cached checkpoints, go stale with it.
NUMERICS_VERSION = 4


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated experiment description plus its canonical identity.

    ``train`` is resolved; ``document``, a copy of the config as given, is
    not hashed: ``with_overrides`` edits it and parses it again.
    """

    master_seed: int
    out_dir: str
    generator: GeneratorSpec
    mode: str
    train: TrainConfig
    eval_spec: dict
    sbd_spec: dict
    canonical: dict
    config_hash: str
    document: dict


def _in_section(section: str, fn, *args):
    """Call a spec's parser or ``validate``; name any offending field by its section."""
    try:
        return fn(*args)
    except ValidationError as exc:
        raise ValidationError(str(exc), field=f"{section}.{exc.field}") from exc


def _merge_section(raw: dict, defaults: dict, section: str) -> dict:
    if not isinstance(raw, dict):
        raise ValidationError(f"{section} must be a JSON object", field=section)
    extra = set(raw) - set(defaults)
    if extra:
        raise ValidationError(
            f"unknown key(s) in {section}: {sorted(extra)}", field=section
        )
    merged = dict(defaults)
    merged.update(raw)
    return merged


def from_dict(raw: dict) -> ExperimentConfig:
    """Validate a parsed config document and materialize all defaults."""
    if not isinstance(raw, dict):
        raise ValidationError("config root must be a JSON object", field="(root)")
    known_top = {"master_seed", "out_dir", "generator", "train", "eval", "sbd"}
    extra = set(raw) - known_top
    if extra:
        raise ValidationError(f"unknown top-level key(s): {sorted(extra)}",
                              field=sorted(extra)[0])
    for field in _REQUIRED:
        if field not in raw:
            raise ValidationError(f"missing required field {field!r}", field=field)
    master_seed = require_int(raw["master_seed"], "master_seed")
    out_dir = raw["out_dir"]
    if not isinstance(out_dir, str) or not out_dir:
        raise ValidationError("out_dir must be a non-empty string", field="out_dir")

    gen = _merge_section(raw.get("generator", {}),
                         {**velocity_spec().to_dict(), "mode": "velocity"}, "generator")
    mode = gen.pop("mode")
    spec = _in_section("generator", GeneratorSpec.from_dict, gen)
    _in_section("generator", spec.validate, mode)

    train_raw = _merge_section(raw.get("train", {}), TrainConfig().to_dict(), "train")
    train_cfg = _in_section("train", TrainConfig.from_dict, train_raw).resolved()
    _in_section("train", train_cfg.validate)

    eval_spec = _merge_section(raw.get("eval", {}), _EVAL_DEFAULTS, "eval")
    for key in eval_spec:
        require_int(eval_spec[key], f"eval.{key}")
        # the regression probe splits the eval sequences 80/20, which takes five
        least = 5 if key == "eval_sequences" else 1
        if eval_spec[key] < least:
            raise ValidationError(f"eval.{key} must be >= {least}", field=f"eval.{key}")

    sbd_spec = _merge_section(raw.get("sbd", {}), _SBD_DEFAULTS, "sbd")
    for key in ("iters", "num_transitions", "restarts", "seed"):
        require_int(sbd_spec[key], f"sbd.{key}")
        if key != "seed" and sbd_spec[key] < 1:
            raise ValidationError(f"sbd.{key} must be >= 1", field=f"sbd.{key}")
    if not require_real(sbd_spec["lr"], "sbd.lr") > 0.0:
        raise ValidationError("sbd.lr must be > 0", field="sbd.lr")
    if not 0.0 < require_real(sbd_spec["threshold"], "sbd.threshold") < 1.0:
        raise ValidationError("sbd.threshold must be in (0, 1)", field="sbd.threshold")

    canonical = {
        "master_seed": master_seed,
        "out_dir": out_dir,
        "generator": {**spec.to_dict(), "mode": mode},
        "train": train_cfg.to_dict(),
        "eval": dict(sorted(eval_spec.items())),
        "sbd": dict(sorted(sbd_spec.items())),
    }
    # the hash names what the run computes and with which arithmetic, not
    # where it writes
    hashed = {key: val for key, val in canonical.items() if key != "out_dir"}
    hashed["numerics_version"] = NUMERICS_VERSION
    blob = json.dumps(hashed, sort_keys=True, separators=(",", ":"))
    digest = hashlib.sha256(blob.encode("utf-8")).hexdigest()
    return ExperimentConfig(master_seed=master_seed, out_dir=out_dir, generator=spec,
                            mode=mode, train=train_cfg, eval_spec=eval_spec,
                            sbd_spec=sbd_spec, canonical=canonical, config_hash=digest,
                            document=copy.deepcopy(raw))


def load(path) -> ExperimentConfig:
    """Read and validate a JSON config file."""
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except FileNotFoundError:
        raise
    except (OSError, json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise FormatError(f"config {path} is not valid JSON: {exc}") from exc
    return from_dict(raw)


def with_overrides(cfg: ExperimentConfig, *, seed=None, out_dir=None, variant=None,
                   order=None, horizons=None, iters=None) -> ExperimentConfig:
    """Parse the config's document again with CLI flag overrides written in.

    With every override None this is ``cfg`` itself. A field the document
    leaves out is derived again, so ``iters`` moves a derived ``decay_at``
    but not an explicit one. A changed ``order`` drops ``T_c``/``T_p``.
    """
    if all(v is None for v in (seed, out_dir, variant, order, horizons, iters)):
        return cfg
    doc = copy.deepcopy(cfg.document)
    train = doc.setdefault("train", {})
    if seed is not None:
        doc["master_seed"] = int(seed)
    if out_dir is not None:
        doc["out_dir"] = str(out_dir)
    if variant is not None:
        train["variant"] = variant
    if order is not None and int(order) != cfg.train.order:
        train["order"] = int(order)
        train.pop("T_c", None)
        train.pop("T_p", None)
    if horizons is not None:
        doc.setdefault("eval", {})["horizons"] = int(horizons)
    if iters is not None:
        train["iterations"] = int(iters)
    return from_dict(doc)
