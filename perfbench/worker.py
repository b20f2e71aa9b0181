"""Run one benchmark workload in this (fresh) process and print its figures.

Started by run.py, never imported by it. The last stdout line is one JSON
object: setup time, the end-to-end or per-layer metrics, cell counts, the
output digest, every check failure and the environment.

A workload unit is one call into the program's public API: `monte_carlo`
for cell_full and sweep_naps, `cli.main` for sweep_budget. Untraced runs
first run the workload's pool of inputs once (input i uses the config seed
seed * 1000 + i), then cycle through the pool again for about `--seconds`:
another unit starts only if the run then ends nearer to `--seconds` than it
would without it. Traced runs repeat input 0 as untraced/traced pairs, so
every per-cell count repeats exactly and the pair difference is the tracing
overhead.

Each input is checked, and counted in attempted/failed, on its first run
only, so those counts depend on the seed and not on the machine's speed. A
repeated input must give the same output digest and the same check results
as its first run.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CSV_HEADER = ["axis", "axis_value", "scheme", "mean_rate_bps", "stderr_bps", "mean_active_aps", "trials"]
# CE budget of demos/scheme_sweep.py
NAPS_CE = dict(n_sub=20, samples=20, elites=4, max_iter=6)
# reduced CE budget of the acceptance suite, as cfthz config keys
BUDGET_CE = {"ce.samples": 30, "ce.elites": 5, "ce.max_iter": 10}
THREADS = 2  # nproc of the reference sandbox; never more worker threads


def rows_csv(rows):
    """Sweep rows formatted as `cfthz simulate` writes them."""
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(CSV_HEADER)
    for r in rows:
        writer.writerow([r.axis, repr(r.axis_value), r.scheme, repr(r.mean_rate),
                         repr(r.stderr_rate), repr(r.mean_active_aps), r.trials])
    return buf.getvalue().encode()


class CellFull:
    """ScenarioConfig() defaults, one cell per unit, one thread."""

    threads = 1
    axis, values = "n_aps", (20,)
    pool_units = 1  # distinct inputs per untraced run; one unit takes ~20 s

    def __init__(self, seed, workdir):
        from cfthz import sim

        self.sim = sim
        self.cfg = self.config(seed)
        self.schemes = self.cfg.schemes

    @staticmethod
    def config(seed):
        from cfthz import ScenarioConfig

        return ScenarioConfig(trials=1, seed=seed)

    def run(self, seed):
        cfg = replace(self.cfg, seed=seed)
        return self.sim.monte_carlo(cfg, self.axis, list(self.values), threads=self.threads)

    def finish(self, sweep):
        """Output bytes of one unit, bytes the program wrote, check failures."""
        rows = sweep.rows
        want = len(self.values) * len(self.schemes)
        problems = [] if len(rows) == want else [f"{len(rows)} sweep rows, expected {want}"]
        problems += [f"row {r.axis_value}/{r.scheme}: mean rate {r.mean_rate}"
                     for r in rows if not (math.isfinite(r.mean_rate) and r.mean_rate >= 0)]
        return rows_csv(rows), 0, problems

    def close(self):
        pass


class SweepNaps(CellFull):
    """n_aps in {10, 40, 160} at the scheme_sweep demo's CE budget, 2 threads."""

    threads = THREADS
    values = (10, 40, 160)
    pool_units = 5  # ~4.5 s a unit

    @staticmethod
    def config(seed):
        from cfthz import ScenarioConfig
        from cfthz.alloc import CEConfig

        return ScenarioConfig(trials=2, seed=seed, ce=CEConfig(**NAPS_CE))


class SweepBudget(CellFull):
    """`cfthz simulate` over b_total with a config file, 2 threads."""

    threads = THREADS
    axis, values = "b_total", ("2e9", "16e9", "64e9")
    trials = 2
    pool_units = 2  # 10-14 s a unit

    def __init__(self, seed, workdir):
        from cfthz import cli, sim

        self.cli = cli
        self.workdir = workdir
        self.config_path = workdir / "budget.cfg"
        lines = [f"trials = {self.trials}", f"seed = {seed}"]
        lines += [f"{k} = {v}" for k, v in BUDGET_CE.items()]
        self.config_path.write_text("\n".join(lines) + "\n")
        self.schemes = sim.ALL_SCHEMES

    def run(self, seed):
        out = self.workdir / f"run-{seed}"
        argv = ["simulate", "--config", str(self.config_path), "--axis", self.axis,
                "--values", ",".join(self.values), "--threads", str(self.threads),
                "--seed", str(seed), "--out", str(out)]
        return self.cli.main(argv), out

    def finish(self, handle):
        rc, out = handle
        written = sum(p.stat().st_size for p in out.iterdir())
        data = (out / f"sweep_{self.axis}.csv").read_bytes()
        shutil.rmtree(out)
        rows = list(csv.reader(io.StringIO(data.decode())))[1:]
        problems = [] if rc == 0 else [f"cfthz simulate exited {rc}"]
        want = len(self.values) * len(self.schemes)
        if len(rows) != want:
            problems.append(f"{len(rows)} CSV rows, expected {want}")
        problems += [f"row {r[1]}/{r[2]}: mean rate {r[3]}" for r in rows
                     if not (math.isfinite(float(r[3])) and float(r[3]) >= 0)]
        return data, written, problems

    def close(self):
        self.config_path.unlink()


WORKLOADS = {"cell_full": CellFull, "sweep_naps": SweepNaps, "sweep_budget": SweepBudget}


def check_cell(record):
    """Problems with one cell's results: a raised exception, a non-finite or
    negative rate, an invalid plan, or a live channel whose two edges differ
    by more than eps_db on the scheme's grid (equal_mrt is exempt)."""
    if record.error:
        return [f"{record.cell_id}: raised {record.error}"]
    cfg = record.cfg
    problems = []
    missing = set(cfg.schemes) - {s for s, _, _ in record.results}
    if missing:
        problems.append(f"{record.cell_id}: no result for {sorted(missing)}")
    for scheme, res, edges in record.results:
        where = f"{record.cell_id}/{scheme}"
        for label in ("plan_rate", "integrated_rate"):
            rate = getattr(res, label)
            if not (math.isfinite(rate) and rate >= 0):
                problems.append(f"{where}: {label} = {rate}")
        try:
            res.plan.validate(cfg.band)
        except ValueError as exc:
            problems.append(f"{where}: {exc}")
        if scheme == "equal_mrt":
            continue
        if edges is None:
            problems.append(f"{where}: no grid captured")
            continue
        for ch, g_lo, g_hi in edges:
            if g_lo <= 0 or g_hi <= 0:
                problems.append(f"{where}: dead edge on channel at {ch.center:.6e} Hz")
                continue
            diff_db = abs(10 * math.log10(g_lo) - 10 * math.log10(g_hi))
            if diff_db > cfg.eps_db:
                problems.append(f"{where}: channel [{ch.low:.6e}, {ch.high:.6e}] edges differ by "
                                f"{diff_db:.3f} dB > eps_db {cfg.eps_db}")
    return problems


class Tally:
    """Check results and plan statistics of the cells of one or more units."""

    def __init__(self):
        self.attempted = self.failed = self.ok_cells = 0
        self.failures = []
        self.channels = self.live = 0
        self.rates = []

    def absorb(self, other):
        for name, value in vars(other).items():
            setattr(self, name, getattr(self, name) + value)

    def add(self, records):
        for rec in records:
            problems = check_cell(rec)
            self.attempted += 1
            self.failed += bool(problems)
            self.ok_cells += not rec.error
            self.failures += problems
            for _, res, _ in rec.results:
                self.channels += len(res.plan.channels)
                self.live += sum(ch.width > 0 for ch in res.plan.channels)
                self.rates.append(res.plan_rate)


def layer_metrics(tracer, tally, traced_walls, untraced_walls, bytes_written, threads):
    """Per-layer figures from the traced units; times and counts per cell."""
    stats = tracer.summarize()
    cells = max(tally.ok_cells, 1)

    # stats is a defaultdict: a span name that never ran reads as zero
    def calls(name):
        return stats[name][0]

    def incl(name):
        return stats[name][1] / cells

    def own(name):
        return stats[name][2] / cells

    def count(name):
        return tracer.counts.get(name, 0.0) / cells

    wall = sum(traced_walls)
    mc_wall = stats["sim.monte_carlo"][1]
    cell_durs = stats["sim.cell"][3]
    m = {
        "phy.link_rss_s": incl("phy.link_rss"),
        "phy.link_rss_calls": calls("phy.link_rss") / cells,
        "phy.link_rss_points": count("phy.link_rss_points"),
        "selection.combined_rss_s": incl("selection.combined_rss"),
        "selection.combined_rss_self_s": own("selection.combined_rss"),
        "selection.combined_rss_link_points": count("selection.combined_rss_link_points"),
        "selection.select_best_at_calls": calls("selection.select_best_at") / cells,
        "selection.select_best_at_s": incl("selection.select_best_at"),
        "alloc.grid_build_s": incl("alloc.grid_build"),
        "alloc.width_search_s": incl("alloc.width_search"),
        "alloc.width_search_pairs": count("alloc.width_search_pairs"),
        "alloc.width_search_mib": tracer.peaks.get("alloc.width_search_mib", 0.0),
        "alloc.resolve_overlaps_s": incl("alloc.resolve_overlaps"),
        "alloc.trim_to_budget_s": incl("alloc.trim_to_budget"),
        "alloc.plan_rate_s": incl("alloc.plan_rate"),
        "alloc.plans_scored": calls("alloc.plan_rate") / cells,
        "alloc.trim_active_frac": (tracer.counts.get("alloc.trim_active", 0.0) / calls("alloc.trim_to_budget")
                                   if calls("alloc.trim_to_budget") else 0.0),
        "alloc.ce_optimize_s": incl("alloc.ce_optimize"),
        "alloc.ce_self_s": own("alloc.ce_optimize"),
        "alloc.integrated_rate_s": incl("alloc.integrated_rate"),
        "alloc.live_channel_frac": tally.live / tally.channels if tally.channels else 0.0,
        "alloc.mean_plan_rate_gbps": statistics.fmean(tally.rates) / 1e9 if tally.rates else 0.0,
        "sim.cells": len(cell_durs),
        "sim.cell_p50_s": statistics.median(cell_durs) if cell_durs else 0.0,
        "sim.colocated_s": incl("sim.colocated"),
        "sim.equal_mrt_s": incl("sim.equal_mrt"),
        "sim.parallel_eff": (sum(cell_durs) / (mc_wall * threads)) if mc_wall else 0.0,
        "cli.simulate_s": incl("cli.simulate"),
        "cli.io_s": own("cli.simulate"),
        "cli.bytes_written": bytes_written,
        "trace.overhead_s": (wall - sum(untraced_walls)) / cells,
    }
    layer_self = {}
    for name, (_, _, self_s, _) in stats.items():
        layer = name.split(".", 1)[0]
        layer_self[layer] = layer_self.get(layer, 0.0) + self_s
    for layer in ("phy", "selection", "alloc", "sim", "cli"):
        m[f"{layer}.self_s"] = layer_self.get(layer, 0.0) / cells
    m["trace.self_sum_frac"] = sum(v for k, v in layer_self.items() if k != "bench") / wall
    top = sorted(((v[2] / cells, k) for k, v in stats.items() if not k.startswith("bench")), reverse=True)
    return m, [[name, round(s, 6)] for s, name in top[:6]]


def environment(workload):
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "worker_threads": workload.threads,
        "thread_env": {k: os.environ.get(k) for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def setup(name, seed, workdir):
    """Import the package and build the workload's config; return (workload, seconds)."""
    start = time.perf_counter()
    import cfthz

    if Path(cfthz.__file__).resolve().parent != ROOT / "src" / "cfthz":
        raise SystemExit(f"imported cfthz from {cfthz.__file__}, not from this checkout")
    workload = WORKLOADS[name](seed, workdir)
    return workload, time.perf_counter() - start


def measure(workload, seed, seconds, trace, spans_path):
    from cfthz import alloc, cli, phy, selection, sim

    from probe import Probe, Tracer

    modules = {"phy": phy, "selection": selection, "alloc": alloc, "sim": sim, "cli": cli}
    tracer = Tracer() if trace else None
    plain = Probe(modules)
    traced = Probe(modules, tracer) if trace else None
    problems, walls, traced_walls, written, done = [], [], [], [], []
    checked, traced_checked = Tally(), Tally()
    first_run = {}  # input index -> (digest, cell check failures) of its first run
    pool = 1 if trace else workload.pool_units
    failed_units = outside_cells = 0
    start = time.perf_counter()
    unit = 0
    while True:
        passes = [(plain, False), (traced, True)] if trace else [(plain, False)]
        index = unit % pool
        for probe, is_traced in passes:
            probe.unit = index
            fresh = index not in first_run
            with probe:
                t0 = time.perf_counter()
                if is_traced:
                    tracer.open_root("bench.unit")
                try:
                    handle = workload.run(seed * 1000 + index)
                except Exception as exc:  # noqa: BLE001 - a failed unit is a reported result
                    problems.append(f"input {index}: {type(exc).__name__}: {exc}")
                    failed_units += 1
                    # a failure no cell recorded still counts as one failed cell
                    outside_cells += fresh and not any(r.error for r in probe.cells)
                    handle = None
                finally:
                    if is_traced:
                        tracer.close_root()
                wall = time.perf_counter() - t0
            (traced_walls if is_traced else walls).append(wall)
            if not is_traced:
                done.append(sum(1 for rec in probe.cells if not rec.error))
            tally = Tally()
            tally.add(probe.cells)
            probe.cells.clear()
            if fresh:
                checked.absorb(tally)
            if is_traced:
                traced_checked.absorb(tally)
            digest = None
            if handle is not None:
                data, nbytes, unit_problems = workload.finish(handle)
                digest = hashlib.sha256(data).hexdigest()
                written.append(nbytes)
                problems += [f"input {index}: {p}" for p in unit_problems]
            outcome = (digest, sorted(tally.failures))
            if fresh:
                first_run[index] = outcome
            elif outcome != first_run[index]:
                problems.append(f"input {index}: a repeat gave another output digest or other check results")
        unit += 1
        elapsed = time.perf_counter() - start
        # finish the pool; then start another unit only if that ends the run nearer to `seconds`
        if failed_units or (unit >= pool and elapsed + elapsed / unit / 2 > seconds):
            break

    out = {
        "attempted": checked.attempted + outside_cells,
        "failed": checked.failed + outside_cells,
        "problems": problems,
        "cell_failures": checked.failures,
        "digest": first_run[0][0],
        "unit_walls_s": walls,
    }
    if trace:
        tracer.write(spans_path)
        metrics, top = layer_metrics(tracer, traced_checked, traced_walls, walls,
                                     statistics.median(written) if written else 0, workload.threads)
        if workload.threads == 1 and abs(metrics["trace.self_sum_frac"] - 1) > 0.10:
            out["problems"].append(f"layer self times cover {metrics['trace.self_sum_frac']:.3f} of the traced wall")
        out["top_self_s_per_cell"] = top
        out["metrics"] = metrics
    else:
        out["metrics"] = {
            # median over units, so a burst of load from elsewhere on the host moves it less
            "cells_per_s": statistics.median(n / w for n, w in zip(done, walls)),
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help="time set-up, then exit")
    ap.add_argument("--workdir", type=Path, required=True, help="scratch directory, emptied by the caller")
    ap.add_argument("--spans", type=Path, help="gzipped CSV to write spans to (traced runs)")
    args = ap.parse_args()

    args.workdir.mkdir(parents=True, exist_ok=True)
    workload, setup_s = setup(args.workload, args.seed, args.workdir)
    result = {"setup_s": setup_s}
    if not args.setup_only:
        result.update(measure(workload, args.seed, args.seconds, args.trace, args.spans))
        result["env"] = environment(workload)
    workload.close()
    print(json.dumps(result))


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    main()
