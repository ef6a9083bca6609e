"""Shared infrastructure for the acceptance suite.

Desk-scale training runs are pure functions of their configs, so trained
checkpoints are cached on disk keyed by the canonical config hash; delete
tests/.cache to force retraining. ``prune_stale`` removes the checkpoints
no current key can name, such as those of an older ``NUMERICS_VERSION``.
"""

import os
import pathlib

import numpy as np

from mspred import config as cfgmod
from mspred import datagen, model as mm, training as tr
from mspred.errors import FormatError

CACHE_DIR = pathlib.Path(__file__).parent / ".cache"

# the desk-scale experiment of the acceptance criteria
DESK = {
    "k": 3,
    "obs_dim": 24,
    "a": 8,
    "m": 16,
    "num_sequences": 5000,
    "T_c": 2,
    "T_p": 1,
    "iterations": 10_000,
    "data_seed": 42,
    "eval_seed": 971,
}


def desk_config(variant="msp", seed=0, iterations=DESK["iterations"], order=1,
                T_c=DESK["T_c"], T_p=DESK["T_p"]):
    return mm.TrainConfig(
        a=DESK["a"], m=DESK["m"],
        iterations=iterations, seed=seed, variant=variant, order=order,
        T_c=T_c, T_p=T_p, log_interval=1000,
    )


def desk_dataset(mode="velocity", num_sequences=DESK["num_sequences"], T=None,
                 master_seed=DESK["data_seed"]):
    if mode == "velocity":
        spec = datagen.velocity_spec(num_sequences=num_sequences)
    else:
        spec = datagen.acceleration_spec(num_sequences=num_sequences)
    if T is not None:
        spec = datagen.with_length(spec, T)
    return datagen.make_dataset(spec, master_seed=master_seed, mode=mode)


def _cache_key(cfg: mm.TrainConfig, dataset_tag: str) -> str:
    doc = {
        "master_seed": 0,
        "out_dir": "cache",
        "train": cfg.to_dict(),
    }
    exp = cfgmod.from_dict(doc)
    return f"{dataset_tag}-{exp.config_hash[:16]}"


def prune_stale(cache_dir=CACHE_DIR) -> list[str]:
    """Delete every cached checkpoint that fails to load, stores no config,
    or whose stored config no longer keys to its file name; return their names.

    A file is named ``{dataset_tag}-{key}.mspckp`` by ``train_cached``, so
    its key is recomputed from the tag in its name and its stored config.
    """
    removed = []
    for path in sorted(pathlib.Path(cache_dir).glob("*.mspckp")):
        tag = path.stem.rpartition("-")[0]
        try:
            _, cfg = tr.load_checkpoint(path)
        except FormatError:
            cfg = None
        if cfg is None or _cache_key(cfg, tag) != path.stem:
            path.unlink()
            removed.append(path.name)
    return removed


def train_cached(cfg: mm.TrainConfig, dataset, dataset_tag: str) -> mm.ModelParams:
    """Train (or load the cached result of) one run."""
    CACHE_DIR.mkdir(exist_ok=True)
    path = CACHE_DIR / f"{_cache_key(cfg, dataset_tag)}.mspckp"
    if path.exists():
        params, _ = tr.load_checkpoint(path)
        return params
    params, _metrics = tr.train(cfg, dataset)
    tr.save_checkpoint(params, path, config=cfg)
    return params


def offblock_mass(vs: np.ndarray, blocks) -> float:
    """Fraction of squared mass outside the detected blocks."""
    total = float((vs**2).sum())
    off = total
    for members in blocks.blocks:
        idx = np.array(members)
        off -= float((vs[:, idx[:, None], idx[None, :]] ** 2).sum())
    return off / total


def criterion(num: int, text: str, ok: bool, detail: str = "") -> bool:
    """Print the one-line verdict the acceptance suite promises."""
    status = "PASS" if ok else "FAIL"
    suffix = f" [{detail}]" if detail else ""
    print(f"criterion {num:02d} {status}: {text}{suffix}")
    return ok
