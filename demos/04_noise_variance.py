"""Four noise-variance estimators and their exact biases.

Interpolating fits leave no in-sample residuals, so each estimator
manufactures residuals differently: leave-one-out residuals of the unsplit
and split fits, and two in-sample constructions from the split fit's blocks.
Under the fixed-design homoskedastic model each one's expectation is exactly
sigma^2 plus a computable term; a quick Monte Carlo confirms all four.
"""

import numpy as np

from pregols import (
    ESTIMATOR_IDS,
    CovariateConfig,
    DesignPartition,
    GaussMarkovTruth,
    Seed,
    full_operator,
    gen_covariates,
    partial_operator,
    sigma2,
    standard_normal,
    w_operator,
    wc_operator,
)

rng = Seed(11).rng(0)
n, p = 40, 50
q = p - 1
w = gen_covariates(CovariateConfig(model="spiked"), n, q, rng)
part = DesignPartition(w, np.ones((n, 1)))
x = part.stacked()

sigma = 1.0
truth = GaussMarkovTruth(beta=np.concatenate([np.full(q, p**-0.5), [1.0]]), sigma2=sigma**2)
mean_y = x @ truth.beta
y = mean_y + sigma * standard_normal(rng, n)

print(f"one draw, true sigma^2 = {sigma**2}:")
for name in ESTIMATOR_IDS:
    rep = sigma2(name, part, y, truth)
    print(f"  {name:8s} estimate = {rep.estimate:8.4f}   exact bias = {rep.expected_bias:8.4f}")

print("\nMonte Carlo over 2000 draws (mean should sit at sigma^2 + bias):")
draws = 2000
ys = mean_y[:, None] + sigma * standard_normal(rng, (n, draws))
ops = {
    "full": full_operator(x),
    "partial": partial_operator(part),
    "w": w_operator(part),
    "wc": wc_operator(part),
}
for name, op in ops.items():
    r = op.matrix @ ys
    vals = (r * r).sum(axis=0) / op.denominator
    target = sigma**2 + op.expected_bias(mean_y)
    se = vals.std(ddof=1) / np.sqrt(draws)
    print(f"  {name:8s} mc mean = {vals.mean():8.4f}   target = {target:8.4f}   "
          f"({(vals.mean() - target) / se:+.2f} se)")

# the 'w' estimator's bias scales with the squared signal mean, which is why
# the experiment reports route it to a supplementary table

# the sample-space trace tr(P_T^perp G_W) = ||P_T^perp L||_F^2, with L = U S^{-1}
# the partition's ell, against the projected-space trace that wc divides by
ell, ut = part.ell, part.t_svd.u
rest = ell - ut @ (ut.T @ ell)
projected, sample_space = ops["wc"].denominator, float(np.sum(rest * rest))
print(f"\nwc normalizers: projected-space {projected:.4f} vs sample-space {sample_space:.4f}")
print("(the projected-space trace is the one that matches the exact-bias identity)")
