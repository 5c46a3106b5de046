"""Embedding finite signed measures into an RKHS, step by step.

A discrete signed measure mu = sum_j w_j delta_{x_j} embeds as the function
(Phi mu)(x) = sum_j w_j k(x, x_j).  Its squared RKHS norm is the energy
B(mu) = sum_ij w_i w_j k(x_i, x_j), and the distance between two embedded
probability measures is the maximum mean discrepancy.
"""

import numpy as np

import kernelcert as kc

line = kc.euclidean(1)
k = kc.gaussian_ti(1.0)

# a signed measure with atoms of both signs, and a probability pair
mu = kc.construct(line, [(0.0, 1.0), (1.0, -0.5), (2.5, -0.5)])
print("atoms:", [(float(p[0]), float(w)) for p, w in zip(mu.points, mu.weights)])
print("total variation:", mu.total_variation, " total mass:", mu.total_mass)

print("\nembedded function at a few points:")
for x in (0.0, 0.5, 1.0, 2.0):
    print(f"  (Phi mu)({x}) = {kc.embed_eval(k, mu, x):+.6f}")

energy = kc.energy_spatial(k, mu)
print("\nenergy B(mu) =", energy.value, " (method:", energy.method + ")")
print("RKHS norm of the embedding:", np.sqrt(energy.value))

# the energy is an inner product: <Phi mu, Phi nu> for discrete nu
nu = kc.dirac(line, 0.0)
print("<Phi mu, Phi delta_0> =", kc.inner(k, mu, nu),
      " = (Phi mu)(0) =", kc.embed_eval(k, mu, 0.0))

# MMD between two probability measures, closed form for point masses:
# gamma(delta_x, delta_y)^2 = 2 - 2 k(x, y)
P, Q = kc.dirac(line, 0.0), kc.dirac(line, 1.0)
gamma = kc.mmd(k, P, Q)
print("\nmmd(delta_0, delta_1) =", gamma,
      " closed form:", np.sqrt(2 - 2 * np.exp(-0.5)))

# the dual form: no unit-ball function separates P and Q by more than mmd
for candidate in (P - Q, kc.dirac(line, 0.0), kc.dirac(line, 5.0)):
    gap = kc.mmd_witness_gap(k, P, Q, candidate)
    print(f"  normalized mean gap of a candidate witness: {gap:.6f} <= {gamma:.6f}")

# a kernel that separates nothing: the constant kernel embeds every
# probability measure to the same function
const = kc.constant(1.0)
print("\nconstant kernel mmd(delta_0, delta_1):", kc.mmd(const, P, Q))
