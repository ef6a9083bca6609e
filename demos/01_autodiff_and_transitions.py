"""Tape-based differentiation and the closed-form latent transition.

Builds a few matrices on a tape, differentiates through matrix products
and the SPD inverse, and shows that the least-squares transition solve
recovers an exact rotation from two latent frames.
"""

import math

import numpy as np

from mspred import autodiff as ad
from mspred import model as mm

# --- reverse-mode differentiation through a matrix pipeline ----------------

tape = ad.Tape()
a = tape.input(np.array([[1.0, 2.0], [3.0, 4.0]]))
b = tape.input(np.array([[0.0, 1.0], [1.0, 0.0]]))
loss = ad.frobenius_sq(ad.matmul(a, b))
tape.backward(loss)
print("forward  ||A B||_F^2 =", loss.value[0, 0])
print("gradient wrt A:\n", tape.grad(a))

# the SPD inverse is differentiable too; perturb and compare
tape2 = ad.Tape()
x = tape2.input(np.array([[0.5, 0.1], [-0.2, 0.9]]))
s = ad.add(ad.matmul(x, ad.transpose(x)), tape2.input(np.eye(2)))
obj = ad.frobenius_sq(ad.spd_inverse(s))
tape2.backward(obj)
print("\nd/dx ||(x x^T + I)^{-1}||_F^2:\n", tape2.grad(x))

# --- the closed-form transition recovers an exact rotation -----------------

theta = math.pi / 3
rot = np.array([[math.cos(theta), -math.sin(theta)],
                [math.sin(theta), math.cos(theta)]])
h0 = np.array([[1.0, 0.0, 2.0], [0.0, 1.0, -1.0]])   # full row rank, 2 x 3
h1 = rot @ h0

tape3 = ad.Tape()
est = mm.estimate_transition([tape3.input(h0), tape3.input(h1)])
print("\ntrue rotation:\n", rot)
print("recovered transition:\n", est.m_star.value.round(12))
print("fit residual:", float(((est.m_star.value @ h0 - h1) ** 2).sum()))

# rolling the transition forward composes the rotation
preds = mm.rollout(est, tape3.input(h0), 3)
for j, p in enumerate(preds, start=1):
    expected = np.linalg.matrix_power(rot, j) @ h0
    print(f"step {j}: max deviation from R^{j} h = {np.abs(p.value - expected).max():.2e}")
