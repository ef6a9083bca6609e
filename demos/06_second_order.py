"""Second-order transitions for constant-acceleration sequences.

Fits the two-stage estimator (per-step velocity operators, then their
common ratio) on exactly accelerating latents and shows that the
first-order model cannot track the drifting velocity.
"""

import numpy as np

from mspred import autodiff as ad
from mspred import model as mm
from mspred.datagen import latent_rotation

rng = np.random.default_rng(3)
z0 = rng.normal(size=(2, 6))
v, alpha = 0.35, 0.06

def latent_at(t):
    theta = 1.0 + v * t + alpha * (t * (t - 1) / 2.0)
    return latent_rotation([theta])[0:2, 0:2] @ z0

frames = [latent_at(t) for t in range(5)]

tape = ad.Tape()
lat_vars = [tape.input(f) for f in frames]
second = mm.estimate_second_order(lat_vars)
print("acceleration operator (should be a rotation by alpha):")
print(second.m_star.value.round(8))
print("R(alpha):")
print(latent_rotation([alpha])[:2, :2].round(8))

first = mm.estimate_transition(lat_vars)
pred2 = mm.rollout(second, lat_vars[-1], 5)
pred1 = mm.rollout(first, lat_vars[-1], 5)
print("\nlatent prediction error by horizon:")
print("  h | first order | second order")
for h in range(5):
    truth = latent_at(5 + h)
    e1 = np.abs(pred1[h].value - truth).max()
    e2 = np.abs(pred2[h].value - truth).max()
    print(f"  {h + 1} |  {e1:10.2e} |  {e2:10.2e}")
