#!/usr/bin/env python3
"""Choosing a dependence function with AIC/PIC.

Candidates are ranked on a shared pseudo-likelihood design: all specs are
padded to the largest candidate order and scored on the same matched pairs,
with pair positions spaced so their swap neighborhoods are disjoint.  Both
points matter: different pair counts would shift the log pseudo-likelihood
baseline by far more than any penalty, and overlapping pairs would let an
overparametrized candidate buy hundreds of nats of spurious fit.

Part 1 recovers the generating order on univariate data.  Part 2 ranks the
four product-form dependence functions on a mixed binary/real pair.
"""

import numpy as np

from mimm import core, gaussian, ple

rng = np.random.default_rng(11)


def show(series, candidates, seed):
    rows = ple.select_specs(series, list(candidates.values()), seed=seed)
    best = min(r.aic for r in rows)
    print(f"{'candidate':<26} {'K':>3} {'log_pl':>10} {'AIC':>10} {'PIC':>10}")
    for name, r in zip(candidates, rows):
        mark = "  <- AIC best" if r.aic == best else ""
        print(f"{str(name):<26} {r.K:>3} {r.log_pl:>10.2f} {r.aic:>10.2f} {r.pic:>10.2f}{mark}")


# --- part 1: order selection on univariate AR(1) data -----------------------
print("univariate data generated by AR(1), phi = 0.5, sigma2 = 0.5, n = 1000\n")
series = gaussian.simulate_ar(gaussian.ClassicalARParams([0.5], 0.5), 1000, seed=7)
candidates = {
    "pairwise lag-1": core.ar_spec(1),
    "pairwise lags 1-2": core.ar_spec(2),
    "pairwise lags 1-3": core.ar_spec(3),
}
show(series, candidates, seed=1)

# --- part 2: mixed binary/real pair ------------------------------------------
print("\nbivariate series: binary spikes driven by a latent AR(1) signal, n = 1007\n")
n = 1007
z = gaussian.simulate_ar(gaussian.ClassicalARParams([0.6], 0.5), n, seed=23).data[:, 0]
spikes = (rng.random(n) < 1.0 / (1.0 + np.exp(-np.roll(z, 1)))).astype(float)
bi = core.TimeSeries(np.column_stack([spikes, z]), kinds=("binary", "real"))

products = {
    "linear products (K=4)": core.kron_spec(2, [(1, 1, 1)]),
    "+ lagged squares (K=8)": core.kron_spec(2, [(1, 1, 1), (1, 1, 2)]),
    "+ current squares (K=8)": core.kron_spec(2, [(1, 1, 1), (1, 2, 1)]),
    "full quadratic (K=16)": core.kron_spec(2, [(1, 1, 1), (1, 1, 2), (1, 2, 1), (1, 2, 2)]),
}
show(bi, products, seed=2)

print(
    "\nbinary columns pass through products unchanged (0/1 powers), so the"
    "\nsame machinery covers spike/field style mixed series"
)
