"""Equivariance of learned transitions: swapping across sequences.

Fits a transition on one sequence and applies it to a different sequence
that moves with the same hidden velocities: the cross error of 200 such
pairs. For an equivariant model the swap makes no difference; a fresh
random model shows the contrast.
"""

import numpy as np

from mspred import analysis as an
from mspred import model as mm
from mspred import training as tr
from mspred.datagen import make_paired, velocity_spec, with_length, with_num_sequences

spec = with_num_sequences(velocity_spec(k=2, obs_dim=12, mixing_seed=4), 1200)
train_pair = make_paired(spec, master_seed=21)
cfg = mm.TrainConfig(a=5, m=8, enc_hidden=(96, 96), dec_hidden=(48,),
                     iterations=2500, seed=2, log_interval=2500)
print("training ...")
params, _ = tr.train(cfg, train_pair.first)

eval_pair = make_paired(with_num_sequences(spec, 200), master_seed=22)
# every fit names its estimator: the one the model trained with
estimator = {"order": cfg.order, "transition": cfg.transition}
report = an.equivariance_error(params, eval_pair, 2, 1, **estimator)
print(f"\ntrained model: self error {report.lp:.5f}   "
      f"cross error {report.lp_equiv:.5f}   ratio {report.ratio:.2f}")

fresh = mm.ModelParams.initialize(cfg, obs_dim=12)
fresh_report = an.equivariance_error(fresh, eval_pair, 2, 1, **estimator)
print(f"random model:  self error {fresh_report.lp:.5f}   "
      f"cross error {fresh_report.lp_equiv:.5f}   ratio {fresh_report.ratio:.2f}")

mats = an.fitted_transitions(params, eval_pair.first.observations[:50], 2, **estimator)
mats_b = an.fitted_transitions(params, eval_pair.second.observations[:50], 2, **estimator)
dists = [an.spectrum_distance(a, b) for a, b in zip(mats, mats_b)]
print(f"\nspectrum distance across orbits (same motion): "
      f"mean {np.mean(dists):.4f}, max {np.max(dists):.4f}")
defects = [an.orthogonality_defect(m) for m in mats]
print(f"orthogonality defect of fitted transitions: mean {np.mean(defects):.4f}")
