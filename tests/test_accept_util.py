"""The acceptance suite's checkpoint cache keeps only what a current key names."""

from dataclasses import replace

import numpy as np

import accept_util as au
from mspred import config as cfgmod
from mspred import model as mm
from mspred import training as tr


def test_prune_stale_keeps_only_checkpoints_their_key_names(tmp_path, monkeypatch):
    cfg = mm.TrainConfig(a=2, m=3, enc_hidden=(4,), dec_hidden=(4,), iterations=0)
    params = mm.ModelParams.initialize(cfg, obs_dim=4)
    fresh = tmp_path / f"{au._cache_key(cfg, 'tiny-vel')}.mspckp"
    tr.save_checkpoint(params, fresh, config=cfg)
    monkeypatch.setattr(cfgmod, "NUMERICS_VERSION", cfgmod.NUMERICS_VERSION - 1)
    older = tmp_path / f"{au._cache_key(cfg, 'tiny-vel')}.mspckp"
    monkeypatch.undo()
    tr.save_checkpoint(params, older, config=cfg)
    other_seed = tmp_path / f"{au._cache_key(cfg, 'tiny-acc')}.mspckp"
    tr.save_checkpoint(params, other_seed, config=replace(cfg, seed=1))
    no_config = tmp_path / "tiny-vel-0123456789abcdef.mspckp"
    tr.save_checkpoint(params, no_config)
    truncated = tmp_path / "tiny-vel-fedcba9876543210.mspckp"
    truncated.write_bytes(fresh.read_bytes()[:-8])
    unrelated = tmp_path / "notes.txt"
    unrelated.write_text("kept")
    before = fresh.read_bytes()

    removed = au.prune_stale(tmp_path)

    assert sorted(removed) == sorted(p.name for p in (older, other_seed, no_config, truncated))
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted([fresh.name, unrelated.name])
    assert fresh.read_bytes() == before
    loaded, _ = tr.load_checkpoint(fresh)
    assert np.array_equal(loaded.flat, params.flat)
    assert au.prune_stale(tmp_path) == []
