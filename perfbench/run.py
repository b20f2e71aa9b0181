"""cfthz benchmark: trial-cell throughput on three workloads.

One workload:
    python3 perfbench/run.py --workload cell_full --seed 1234 --seconds 30 --trace 0

prints one line per metric and, as its last line, one JSON object with the
keys correct, attempted, failed and metrics. --trace 0 reports the
end-to-end metrics of BENCHMARK.json, --trace 1 the per-layer ones.

Every workload, both modes, plus the thread-count digest check:
    python3 perfbench/run.py --all

exits nonzero when any check fails. Run from the repository root; results
and span dumps go to perfbench/out/. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_PROBES = 8  # fresh set-up-only processes per run, besides the run's own
DEADLINE_S = 170  # a run must exit within 180 s
# Child processes get one BLAS/OpenMP thread: a sweep's `threads` is the only
# parallelism, so a run never uses more than the sandbox's 2 cores.
PINNED_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def child(args, timeout):
    """Run worker.py with pinned threads; return its last stdout line as JSON."""
    env = dict(os.environ, **PINNED_ENV)
    proc = subprocess.run([sys.executable, str(HERE / "worker.py"), *args], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0 or not proc.stdout.strip():
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"worker {' '.join(args)} exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_one(spec, workload, seed, seconds, trace):
    """Measure one workload in fresh processes; return the full result record."""
    start = time.monotonic()
    tag = f"{workload}-seed{seed}-trace{trace}"
    workdir = OUT / f"tmp-{os.getpid()}-{tag}"
    common = ["--workload", workload, "--seed", str(seed), "--workdir", str(workdir)]
    def left():
        return DEADLINE_S - (time.monotonic() - start)

    try:
        res = child(common + ["--seconds", str(seconds), "--trace", str(trace),
                              "--spans", str(OUT / f"{tag}-spans.csv.gz")], left())
        # probes go after the measured run: run just before it, they slowed
        # its first unit by up to 20% on a 2-vCPU VM
        setups = [] if trace else [
            child(common + ["--setup-only"], left())["setup_s"] for _ in range(SETUP_PROBES)
        ]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    values = dict(res["metrics"])
    if not trace:
        values["setup_s"] = statistics.median(setups + [res["setup_s"]])
    names = spec["per_layer" if trace else "end_to_end"]
    res["metrics"] = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in names}
    # failed cells are counted in `failed`; `correct` covers the run-level checks
    res["correct"] = not res["problems"]
    res["env"].update(git_commit=git_commit(), nproc_host=os.cpu_count(), platform_node=platform.node())
    res.update(workload=workload, seed=seed, seconds=seconds, trace=trace)
    (OUT / f"{tag}.json").write_text(json.dumps(res, indent=1) + "\n")
    return res


def report(res):
    """Human-readable lines for one result record."""
    w = res["workload"]
    for name, m in res["metrics"].items():
        print(f"{w:13s} {name:38s} {m['value']:14.6g} {m['unit']}")
    print(f"{w:13s} {'failed_frac':38s} {res['failed'] / res['attempted']:14.6g} ratio "
          f"({res['failed']} of {res['attempted']} cells)")
    print(f"{w:13s} {'digest':38s} {res['digest']}")
    if res.get("top_self_s_per_cell"):
        print(f"{w:13s} top self time per cell: "
              + ", ".join(f"{n} {s:.4g} s" for n, s in res["top_self_s_per_cell"]))
    for p in res["problems"] + res["cell_failures"]:
        print(f"{w:13s} CHECK FAILED: {p}", file=sys.stderr)


def run_all(spec, seed, seconds):
    ok = True
    for w in spec["workloads"]:
        for trace in (0, 1):
            res = run_one(spec, w["name"], seed, seconds, trace)
            report(res)
            ok &= res["correct"] and res["failed"] == 0
    check = subprocess.run([sys.executable, str(HERE / "digest_check.py")], cwd=ROOT,
                           env=dict(os.environ, **PINNED_ENV), timeout=600)
    ok &= check.returncode == 0
    print("all checks passed" if ok else "SOME CHECKS FAILED")
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1234)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--all", action="store_true", help="every workload, traced and untraced")
    args = ap.parse_args()

    if not (ROOT / "src" / "cfthz" / "__init__.py").is_file():
        print(f"run.py: no cfthz sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    OUT.mkdir(exist_ok=True)
    if args.all:
        return run_all(spec, args.seed, seconds)
    if args.workload not in names:
        ap.error(f"--workload must be one of {names} (or use --all)")
    res = run_one(spec, args.workload, args.seed, seconds, args.trace)
    report(res)
    print(json.dumps({k: res[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
