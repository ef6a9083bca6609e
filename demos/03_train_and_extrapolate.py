"""Train a small model and examine its extrapolation.

Trains at a reduced scale (smaller dataset, fewer iterations than the
full experiment configs) so the script finishes in about a minute, then
evaluates prediction error far beyond the single-step horizon it was
trained on.
"""

import numpy as np

from mspred import model as mm
from mspred import training as tr
from mspred.datagen import make_dataset, velocity_spec, with_length, with_num_sequences

spec = with_num_sequences(velocity_spec(), 1500)
train_batch = make_dataset(spec, master_seed=11)
eval_batch = make_dataset(with_num_sequences(with_length(spec, 14), 256), master_seed=12)

cfg = mm.TrainConfig(iterations=2500, seed=0, log_interval=500, holdout=100)
print("training", cfg.iterations, "iterations ...")
params, metrics = tr.train(cfg, train_batch)
for rec in metrics:
    print(f"  iter {rec.iter:5d}  loss {rec.loss:.5f}  held-out {rec.loss_eval:.5f}  "
          f"ortho defect {rec.ortho_defect:.3f}")

errs = mm.horizon_errors_np(params, eval_batch.observations, 2, 12, order=cfg.order,
                            transition=cfg.transition)
var = eval_batch.observations[:, 2].var(axis=0).sum()
print("\nper-frame target variance:", round(var, 3))
print("prediction error by horizon (trained only for step 1):")
for h, e in enumerate(errs, start=1):
    bar = "#" * max(1, int(40 * e / errs.max()))
    print(f"  step {h:2d}  {e:8.5f}  {bar}")
print(f"\nstep-1 error is {errs[0] / var * 100:.2f}% of the target variance")
