"""Minimum-norm interpolation on a wide design, fully and partially penalized.

With more columns than rows every least-squares problem here is solved
exactly by infinitely many coefficient vectors.  This script walks through
the two canonical selections and shows, numerically, why the partial one is
the zero-penalty limit of ridge with an unpenalized intercept.
"""

import numpy as np

from pregols import (
    PARTIAL_VARIANTS,
    DesignPartition,
    Svd,
    fit_full,
    fit_partial,
    fit_partial_variant,
)

rng = np.random.default_rng(7)
n, q = 8, 20
w = rng.standard_normal((n, q))
t = np.ones((n, 1))  # unpenalized intercept column
y = w @ rng.standard_normal(q) * 0.3 + 2.0 + 0.1 * rng.standard_normal(n)

# --- fully regularized: minimum norm over ALL coefficients -----------------
full = fit_full(np.hstack([w, t]), y)
print(f"full fit: |beta| = {np.linalg.norm(full.beta_hat):.4f}, "
      f"max interpolation residual = {full.max_interp_residual:.2e}")

# --- partially regularized: minimum norm over the w block only -------------
part = DesignPartition(w, t)
fit = fit_partial(part, y)
print(f"partial fit: |lambda| = {np.linalg.norm(fit.lambda_hat):.4f}, "
      f"intercept = {fit.tau_hat[0]:.4f}, "
      f"max interpolation residual = {fit.max_interp_residual:.2e}")

# both interpolate, but they are different members of the solution set
print(f"coefficient gap between the two fits: "
      f"{np.max(np.abs(full.beta_hat[:q] - fit.lambda_hat)):.4f}")

# --- the partial fit minimizes |lambda| over the whole solution set --------
# adding v - X^+ X v, the null-space component of any v, keeps a fit interpolating
x = part.stacked()
x_pinv = Svd(x).pinv()
worse = 0
for _ in range(2000):
    v = rng.standard_normal(q + 1)
    z = v - x_pinv @ (x @ v)
    if np.linalg.norm(fit.lambda_hat + z[:q]) < np.linalg.norm(fit.lambda_hat):
        worse += 1
print(f"null-space perturbations that beat |lambda|: {worse} / 2000")

# --- ridge with an unpenalized intercept converges to the partial fit ------
print("\nridge path (penalty on the w block only):")
for penalty in (1e-1, 1e-3, 1e-5, 1e-7):
    a = np.block([[w.T @ w + penalty * np.eye(q), w.T @ t], [t.T @ w, t.T @ t]])
    b = np.concatenate([w.T @ y, t.T @ y])
    sol = np.linalg.solve(a, b)
    gap = max(np.max(np.abs(sol[:q] - fit.lambda_hat)),
              np.max(np.abs(sol[q:] - fit.tau_hat)))
    print(f"  penalty {penalty:8.0e}: sup-norm distance to partial fit {gap:.3e}")

# --- all coefficient expressions agree --------------------------------------
print("\nalternative coefficient expressions (max deviation from direct):")
for name in PARTIAL_VARIANTS[1:]:  # the first, "direct", is fit_partial itself
    alt = fit_partial_variant(part, y, name)
    gap = max(np.max(np.abs(alt.lambda_hat - fit.lambda_hat)),
              np.max(np.abs(alt.tau_hat - fit.tau_hat)))
    print(f"  {name:9s}: {gap:.3e}")

# --- prediction reproduces training rows ------------------------------------
i = 3
pred = w[i] @ fit.lambda_hat + t[i] @ fit.tau_hat
print(f"\nprediction at training row {i}: {pred:.6f} (observed {y[i]:.6f})")
