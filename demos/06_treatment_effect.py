"""Treatment-effect estimation with wide covariates: split vs unsplit fits.

Regress outcomes on [covariates, treatment, intercept] and read the
treatment coefficient.  Penalizing everything shrinks the treatment
coefficient toward zero along with the rest; leaving the treatment and
intercept unpenalized removes most of that distortion.  This runs a reduced
version of the bias experiment across true effects.
"""

from pregols import ExperimentConfig, run_experiment

cfg = ExperimentConfig(
    experiment="ate",
    model="spiked",
    grid=(-8.0, -2.0, 0.0, 2.0, 8.0),
    trials=10,
    draws_per_trial=10,
    seed=314,
)
report = run_experiment(cfg)

print(f"treatment-effect bias, {cfg.trials} trials x {cfg.draws_per_trial} draws")
print(f"{'true effect':>12s} {'unsplit bias':>14s} {'split bias':>12s}")
for g in cfg.grid:
    full = report.cell(g, "full")
    partial = report.cell(g, "partial")
    print(f"{g:12g} {full.mean_bias:14.4f} {partial.mean_bias:12.4f}")

print("\nthe unsplit fit's bias grows linearly in the true effect (the")
print("treatment column is shrunk like any other); the split fit stays near")
print("zero across the grid.")
