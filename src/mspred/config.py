"""Experiment configuration: parsing, validation, canonical hashing.

A run is fully determined by its config, so the config is canonicalized
(defaults materialized, keys sorted) before hashing; the SHA-256 of that
canonical JSON, without ``out_dir`` and with ``NUMERICS_VERSION``,
identifies every artifact the run produces, wherever it is written.
Unknown keys are rejected rather than ignored. The ``train`` section's
keys and defaults are ``TrainConfig``'s fields.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass

from .datagen import GeneratorSpec
from .errors import FormatError, ValidationError
from .model import TrainConfig
from .training import _config_to_dict, config_from_dict

_GENERATOR_DEFAULTS = {
    "k": 3,
    "obs_dim": 24,
    "T": 3,
    "num_sequences": 5000,
    "mixing_seed": 7,
    "velocity_range": [-math.pi / 2, math.pi / 2],
    "accel_range": [0.0, 0.0],
    "mode": "velocity",
}

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
NUMERICS_VERSION = 3


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated experiment description plus its canonical identity."""

    master_seed: int
    out_dir: str
    generator: GeneratorSpec
    mode: str
    train: TrainConfig
    eval_spec: dict
    sbd_spec: dict
    canonical: dict
    config_hash: str


def _merge_section(raw: dict, defaults: dict, section: str) -> dict:
    extra = set(raw) - set(defaults)
    if extra:
        raise ValidationError(
            f"unknown key(s) in {section}: {sorted(extra)}", field=section
        )
    merged = dict(defaults)
    merged.update(raw)
    return merged


def _require_int(value, field):
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValidationError(f"{field} must be an integer", field=field)
    return value


def _require_real(value, field):
    finite = isinstance(value, int) or (isinstance(value, float) and math.isfinite(value))
    if isinstance(value, bool) or not finite:
        raise ValidationError(f"{field} must be a finite number", field=field)
    return value


def _range(value, field) -> tuple:
    """A (low, high) pair of finite floats; the low < high check is the spec's."""
    try:
        pair = tuple(float(x) for x in value)
    except (TypeError, ValueError, OverflowError):
        pair = ()
    if (not isinstance(value, (list, tuple)) or len(pair) != 2
            or not all(map(math.isfinite, pair))):
        raise ValidationError(f"{field} must be a pair of finite numbers", field=field)
    return pair


def _check_train_types(train: dict) -> None:
    """Every train value must have the JSON type of its TrainConfig default;
    fields defaulting to None take an integer or null."""
    for key, default in _config_to_dict(TrainConfig()).items():
        value, field = train[key], f"train.{key}"
        if isinstance(default, list):
            if not isinstance(value, list):
                raise ValidationError(f"{field} must be a list of integers", field=field)
            for size in value:
                _require_int(size, field)
        elif isinstance(default, float):
            _require_real(value, field)
        elif isinstance(default, str):
            if not isinstance(value, str):
                raise ValidationError(f"{field} must be a string", field=field)
        elif value is not None or default is not None:
            _require_int(value, field)


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
    master_seed = _require_int(raw["master_seed"], "master_seed")
    out_dir = raw["out_dir"]
    if not isinstance(out_dir, str) or not out_dir:
        raise ValidationError("out_dir must be a non-empty string", field="out_dir")

    gen = _merge_section(raw.get("generator", {}), _GENERATOR_DEFAULTS, "generator")
    mode = gen.pop("mode")
    spec = GeneratorSpec(
        k=_require_int(gen["k"], "generator.k"),
        obs_dim=_require_int(gen["obs_dim"], "generator.obs_dim"),
        T=_require_int(gen["T"], "generator.T"),
        num_sequences=_require_int(gen["num_sequences"], "generator.num_sequences"),
        mixing_seed=_require_int(gen["mixing_seed"], "generator.mixing_seed"),
        velocity_range=_range(gen["velocity_range"], "generator.velocity_range"),
        accel_range=_range(gen["accel_range"], "generator.accel_range"),
    )
    spec.validate(mode)

    train_raw = _merge_section(raw.get("train", {}), _config_to_dict(TrainConfig()), "train")
    _check_train_types(train_raw)
    train_cfg = config_from_dict(train_raw).resolved()
    train_cfg.validate()

    eval_spec = _merge_section(raw.get("eval", {}), _EVAL_DEFAULTS, "eval")
    for key in eval_spec:
        _require_int(eval_spec[key], f"eval.{key}")
        if eval_spec[key] < 1:
            raise ValidationError(f"eval.{key} must be >= 1", field=f"eval.{key}")

    sbd_spec = _merge_section(raw.get("sbd", {}), _SBD_DEFAULTS, "sbd")
    for key in ("iters", "num_transitions", "restarts", "seed"):
        _require_int(sbd_spec[key], f"sbd.{key}")
        if key != "seed" and sbd_spec[key] < 1:
            raise ValidationError(f"sbd.{key} must be >= 1", field=f"sbd.{key}")
    if not _require_real(sbd_spec["lr"], "sbd.lr") > 0.0:
        raise ValidationError("sbd.lr must be > 0", field="sbd.lr")
    if not 0.0 < _require_real(sbd_spec["threshold"], "sbd.threshold") < 1.0:
        raise ValidationError("sbd.threshold must be in (0, 1)", field="sbd.threshold")

    canonical = {
        "master_seed": master_seed,
        "out_dir": out_dir,
        "generator": {
            "k": spec.k, "obs_dim": spec.obs_dim, "T": spec.T,
            "num_sequences": spec.num_sequences, "mixing_seed": spec.mixing_seed,
            "velocity_range": list(spec.velocity_range),
            "accel_range": list(spec.accel_range), "mode": mode,
        },
        "train": _config_to_dict(train_cfg),
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
                            sbd_spec=sbd_spec, canonical=canonical, config_hash=digest)


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
    """Re-derive a config (and its hash) with CLI flag overrides applied."""
    doc = json.loads(json.dumps(cfg.canonical))
    if seed is not None:
        doc["master_seed"] = int(seed)
    if out_dir is not None:
        doc["out_dir"] = str(out_dir)
    if variant is not None:
        doc["train"]["variant"] = variant
    if order is not None:
        doc["train"]["order"] = int(order)
        # order-dependent windows re-resolve from scratch
        doc["train"]["T_c"] = None
        doc["train"]["T_p"] = None
    if horizons is not None:
        doc["eval"]["horizons"] = int(horizons)
    if iters is not None:
        doc["train"]["iterations"] = int(iters)
        doc["train"]["decay_at"] = None
    return from_dict(doc)
