"""Check the README's promise on a tiny config: the same config and seed give
the same sweep output at threads=1 and threads=2, through the library
(`monte_carlo` rows formatted as the CLI writes them) and through
`cfthz simulate` (CSV bytes).

    python3 perfbench/digest_check.py

Exits 1 and names the entry point whose digests differ. Takes a few seconds.
"""

from __future__ import annotations

import hashlib
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from cfthz import ScenarioConfig, cli, monte_carlo  # noqa: E402
from cfthz.alloc import CEConfig  # noqa: E402

from worker import rows_csv  # noqa: E402

TINY_CE = CEConfig(n_sub=6, samples=8, elites=2, max_iter=3)
TINY_CONFIG = "trials = 3\nn_aps = 5\nce.n_sub = 6\nce.samples = 8\nce.elites = 2\nce.max_iter = 3\n"


def library_digest(threads):
    cfg = ScenarioConfig(trials=3, seed=7, ce=TINY_CE)
    sweep = monte_carlo(cfg, "n_aps", [3, 6], threads=threads)
    return hashlib.sha256(rows_csv(sweep.rows)).hexdigest()


def cli_digest(threads, workdir):
    config = workdir / "tiny.cfg"
    config.write_text(TINY_CONFIG)
    out = workdir / f"threads{threads}"
    rc = cli.main(["simulate", "--config", str(config), "--axis", "b_total", "--values", "4e9,16e9",
                   "--seed", "7", "--threads", str(threads), "--out", str(out)])
    if rc != 0:
        raise SystemExit(f"cfthz simulate exited {rc}")
    return hashlib.sha256((out / "sweep_b_total.csv").read_bytes()).hexdigest()


def main():
    (HERE / "out").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="digest-check-", dir=HERE / "out"))
    try:
        pairs = {
            "monte_carlo": (library_digest(1), library_digest(2)),
            "cfthz simulate": (cli_digest(1, workdir), cli_digest(2, workdir)),
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    bad = [name for name, (one, two) in pairs.items() if one != two]
    for name, (one, two) in pairs.items():
        print(f"{name:15s} threads=1 {one[:16]}  threads=2 {two[:16]}  {'differ' if one != two else 'same'}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
