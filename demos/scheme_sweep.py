"""Compare antenna-selection schemes over random drops.

A small Monte Carlo sweep over the number of access points. Distributed
MRT combines everything it can see and should come out on top; the
co-located baseline pays the full pathloss of a single random site and
lands far below. Uses a reduced optimizer budget so it finishes in
seconds; bump `trials` and the CE numbers for smoother curves.

Run:  python demos/scheme_sweep.py
"""

from cfthz import ScenarioConfig, monte_carlo
from cfthz.alloc import CEConfig

cfg = ScenarioConfig(
    trials=10,
    schemes=("mrt", "best_nsel", "nearest", "colocated"),
    ce=CEConfig(n_sub=20, samples=20, elites=4, max_iter=6),
)

sweep = monte_carlo(cfg, "n_aps", [5, 10, 20])

print(f"{cfg.trials} trials per point, rates in Gbit/s (mean +/- stderr)")
print()
header = f"{'N APs':>6}" + "".join(f"{s:>18}" for s in cfg.schemes)
print(header)
values = sorted({row.axis_value for row in sweep.rows})
for v in values:
    cells = {r.scheme: r for r in sweep.rows if r.axis_value == v}
    line = f"{int(v):>6}"
    for s in cfg.schemes:
        r = cells[s]
        line += f"  {r.mean_rate / 1e9:7.1f} +/- {r.stderr_rate / 1e9:4.1f}"
    print(line)
