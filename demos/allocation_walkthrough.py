"""One scenario, one allocation, step by step.

Drops a handful of access points around a user, builds the MRT received
spectrum, and lets the cross-entropy allocator place subchannels in it.
Prints the optimizer trace and the final plan so you can watch the
sampler concentrate on the strong parts of the band.

Run:  python demos/allocation_walkthrough.py
"""

import numpy as np

from cfthz import GridRss, ScenarioConfig, ce_optimize, generate_scenario
from cfthz.alloc import CEConfig, plan_records
from cfthz.sim import scheme_rss

cfg = ScenarioConfig(n_aps=6, ce=CEConfig(n_sub=10, samples=60, elites=8, max_iter=15))
rng = np.random.default_rng(2026)

drop = generate_scenario(rng, cfg)
print("scenario:")
for i, (d, theta) in enumerate(zip(drop.distance, drop.angle)):
    print(f"  AP {i}: d = {d:5.1f} m, theta = {np.degrees(theta):5.1f} deg,"
          f" peak near {cfg.antenna.f_co / np.sin(theta) / 1e9:6.1f} GHz")

_, mrt_row = scheme_rss(["mrt"], drop, cfg)["mrt"]
rss = GridRss(mrt_row, cfg.band, cfg.ce.step)
result = ce_optimize(
    rss, cfg.ce, rng,
    eps_db=cfg.eps_db, total_budget=cfg.b_total, noise_psd=cfg.noise_psd,
)

print()
print("iteration   best in batch   best ever  [Gbit/s]")
for t, (best, inc) in enumerate(zip(result.best_per_iter, result.incumbent_trace)):
    print(f"{t:>9} {best / 1e9:>15.2f} {inc / 1e9:>11.2f}")

print()
print(f"final plan ({result.plan_value / 1e9:.2f} Gbit/s, "
      f"budget {cfg.b_total / 1e9:.0f} GHz):")
for rec in plan_records(result.plan, rss, cfg.noise_psd):
    if rec["width_hz"] == 0:
        continue
    print(f"  #{rec['index']:>2} center {rec['center_hz'] / 1e9:7.2f} GHz  "
          f"width {rec['width_hz'] / 1e6:7.0f} MHz  "
          f"rate {rec['rate_bps'] / 1e9:6.2f} Gbit/s")
