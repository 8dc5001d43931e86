"""Omitted-variable bias of a treatment coefficient, decomposed exactly.

Setup: outcomes depend on observed covariates Z, unobserved confounders U,
a binary treatment D, and an intercept.  Fitting with and without U shifts
the treatment coefficient; the shift factors exactly into

    (imbalance of U across treatment arms) x (impact of U on the outcome)

where both factors come from auxiliary regressions you can actually run.
"""

import numpy as np

from pregols import (
    CochranDesign,
    Seed,
    cochran_check,
    fit_partial,
    ovb_decompose,
    standard_normal,
)

rng = Seed(42).rng(0)
n, n_obs, n_hidden = 40, 60, 2

z = standard_normal(rng, (n, n_obs))

# hidden confounders correlated with both treatment and outcome
u = standard_normal(rng, (n, n_hidden))
propensity = 1.0 / (1.0 + np.exp(-1.5 * u.sum(axis=1)))
d = (rng.random(n) < propensity).astype(float)
t = np.column_stack([d, np.ones(n)])

tau_true = 2.0
y = (
    z @ np.full(n_obs, n_obs**-0.5)
    + u @ np.array([1.0, -0.7])
    + tau_true * d
    + 1.0
    + 0.5 * standard_normal(rng, n)
)

design = CochranDesign(z, u, t)

# the three regressions are split fits on the design's two partitions:
# long [Z U | T], short [Z | T], and auxiliary (each column of U on [Z | T])
long_fit = fit_partial(design.long, y)
short_fit = fit_partial(design.short, y)
aux_fit = fit_partial(design.short, design.u)
gamma_hat = long_fit.lambda_hat[design.n_retained:]  # long coefficients on U
print(f"long fit:  tau_hat = {np.round(long_fit.tau_hat, 4)}, gamma_hat = {np.round(gamma_hat, 4)}")
print(f"short fit: tau_tilde = {np.round(short_fit.tau_hat, 4)}")
print(f"aux fit:   delta_t =\n{np.round(aux_fit.tau_hat, 4)}\n")

# the algebraic identities hold regardless of any data-generating story
gaps = cochran_check(design, y)
print(f"fitted-value identity gap:  {gaps.image_gap:.2e}")
print(f"coefficient identity gap:   {gaps.coeff_gap:.2e}")

ovb = ovb_decompose(design, y)
print(f"\ntreatment coefficient, long fit (U included): {ovb.tau_long_d:+.4f}")
print(f"treatment coefficient, short fit (U omitted): {ovb.tau_short_d:+.4f}")
print(f"omitted-variable bias:                        {ovb.bias:+.4f}")
print(f"imbalance (treatment row of aux fit):         {np.round(ovb.imbalance, 4)}")
print(f"impact (long-fit coefficients on U):          {np.round(ovb.impact, 4)}")
print(f"imbalance . impact:                           {ovb.imbalance @ ovb.impact:+.4f}")
print(f"decomposition exact to                        {abs(ovb.bias - ovb.imbalance @ ovb.impact):.2e}")
