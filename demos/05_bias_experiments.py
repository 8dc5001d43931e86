"""Run one estimator-bias experiment end to end and emit its report.

Uses a reduced grid so the script finishes in seconds; swap in
``ExperimentConfig.default("sim4", ...)`` (or ``paper_scale=True``) for the
full study.  The written CSV and SVG are byte-reproducible for a fixed seed.
"""

import tempfile

from pregols import ExperimentConfig, run_experiment, write_report

cfg = ExperimentConfig(
    experiment="sim4",            # intercept-magnitude sweep
    model="standard_normal",
    grid=(1.0, 5.0, 10.0),
    trials=10,
    draws_per_trial=10,
    seed=314,
)
report = run_experiment(cfg)

print(f"{cfg.experiment} / {cfg.model}, {cfg.trials} trials x {cfg.draws_per_trial} draws")
print(f"{'intercept':>10s} {'estimator':>10s} {'mean bias':>12s} {'std error':>10s}")
for cell in report.cells:
    print(f"{cell.grid_value:10g} {cell.estimator:>10s} "
          f"{cell.mean_bias:12.4f} {cell.std_error:10.4f}")

with tempfile.TemporaryDirectory(prefix="pregols_demo_") as out_dir:
    paths = write_report(report, out_dir)
    print("\nwrote (removed when the demo exits):")
    for p in paths:
        print(f"  {p}")
print("\nnote how the unsplit estimator's bias climbs with the intercept while")
print("the split-design estimators stay flat; the 'w' rows live in the")
print("supplementary table because their bias is an order of magnitude larger.")
