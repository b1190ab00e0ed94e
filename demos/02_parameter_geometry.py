#!/usr/bin/env python3
"""Geometry of the Gaussian autoregressive parametrizations.

A stationary AR/VAR process can be coordinatized either classically
(coefficients + noise variance) or by dependence weights + stationary
variance.  The second chart is unconstrained: no stationarity region to
stay inside, and every point maps back to exactly one stationary process.
This script walks the transforms in both directions (the AR(d) inverse by
Newton's method on the forward map, the VAR(1) inverse in closed form
through its quadratic matrix equation) and checks two structural facts:
the dependence weight and the stationary variance are Fisher-orthogonal,
and divergence rates obey a Pythagorean identity.
"""

import numpy as np

from mimm import gaussian, oracle

# --- AR(1): (phi, sigma2) <-> (theta, tau2) --------------------------------
classical = gaussian.ClassicalARParams([0.5], 0.5)
mi = gaussian.ar1_to_mininfo(classical)
print(f"AR(1) phi=0.5 sigma2=0.5  ->  theta={mi.theta[0]:.3f} tau2={mi.tau2:.4f}")
back = gaussian.mininfo_to_ar1(mi)
print(f"inverse transform          ->  phi={back.phi[0]:.3f} sigma2={back.sigma2:.3f}")

# the dependence weight lives on the whole real line: even theta = 40 maps
# back to a stationary process
wild = gaussian.mininfo_to_ar1(gaussian.MinInfoARParams([40.0], 2.0))
print(f"theta=40, tau2=2           ->  phi={wild.phi[0]:.6f} (inside (-1, 1))")

# --- AR(2) and AR(3) --------------------------------------------------------
mi2 = gaussian.ar2_to_mininfo(gaussian.ClassicalARParams([0.5, 0.3], 0.5))
print(f"\nAR(2) (0.5, 0.3, 0.5)      ->  theta={np.round(mi2.theta, 3)}")
mi3 = gaussian.ard_to_mininfo(gaussian.ClassicalARParams([0.5, 0.3, 0.1], 0.5))
print(f"AR(3) (0.5, 0.3, 0.1, 0.5) ->  theta={np.round(mi3.theta, 3)}")
back3 = gaussian.mininfo_to_ar(mi3)
print(f"AR(3) Newton inverse       ->  phi={np.round(back3.phi, 6)}")

# --- VAR(1) and the quadratic matrix equation -------------------------------
A = np.array([[0.5, 0.1], [0.1, 0.5]])
params = gaussian.ClassicalVARParams(A=A[None], Sigma=0.5 * np.eye(2))
miv = gaussian.var1_to_mininfo(params)
print("\nVAR(1) Theta =\n", miv.Theta)
print("stationary covariance B =\n", np.round(miv.B, 5))
backv = gaussian.mininfo_to_var1(miv)
resid = np.linalg.norm(miv.B - backv.A[0] @ miv.B @ backv.A[0].T - backv.Sigma, "fro")
print("inverse residual ||B - A B A' - Sigma||_F =", resid)

# --- Fisher orthogonality ----------------------------------------------------
closed = gaussian.ar1_fisher_info(1.0, 2.0 / 3.0)
numeric = oracle.ar1_fisher_info_numeric(1.0, 2.0 / 3.0)
print("\nFisher information at (theta=1, tau2=2/3):")
print("closed form:\n", closed)
print("quadrature: \n", np.round(numeric, 10))
print("off-diagonal is zero: the two blocks are orthogonal parameters")

# --- Pythagorean identity ------------------------------------------------------
# a kernel is its mean map and noise covariance; its stationary law, which
# the divergence rate averages over, is derived from the two
theta, tau2 = 0.8, 1.5
star = gaussian.mininfo_to_ar1(gaussian.MinInfoARParams([theta], tau2))
w_star = gaussian.GaussianKernel([star.phi], [[star.sigma2]])
w = gaussian.GaussianKernel([[0.3]], [[tau2 * (1 - 0.09)]])  # same marginal
print(f"\nstationary variance of w: {w.stationary_cov[0, 0]:.12f} (tau2 = {tau2})")
v = gaussian.DependenceKernel(theta, decay=2.0).as_gaussian()  # same dependence
lhs = gaussian.divergence_rate(w, w_star) + gaussian.divergence_rate(w_star, v)
rhs = gaussian.divergence_rate(w, v)
print(f"\nD(w|w*) + D(w*|v) = {lhs:.12f}")
print(f"D(w|v)            = {rhs:.12f}")
print("the kernel sharing both structures is the divergence-rate projection")
