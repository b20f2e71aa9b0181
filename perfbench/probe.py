"""Instrumentation installed from outside the package.

`Probe` replaces module attributes of `cfthz` with thin wrappers while it is
active and restores them on exit. It always captures every cell's
`TrialResult`s together with the RSS at each live channel's two edges on
the grid that scheme was scored on, so the results can be checked after the
timer stops. With `trace=True` it also records one span per wrapped call
(name, start, end, parent span, thread, cell id) into memory, plus counts
measured at the same boundaries.

Wrappers look their target up by name and skip names a module no longer
has, so a metric whose function was removed reads 0.
"""

from __future__ import annotations

import csv
import gzip
import itertools
import threading
import time
from collections import defaultdict

# (module, attribute, span name) of every traced call.
SPANS = (
    ("phy", "link_rss", "phy.link_rss"),
    ("selection", "combined_rss", "selection.combined_rss"),
    ("selection", "select_best_at", "selection.select_best_at"),
    ("alloc", "_grid_widths", "alloc.width_search"),
    ("alloc", "resolve_overlaps", "alloc.resolve_overlaps"),
    ("alloc", "trim_to_budget", "alloc.trim_to_budget"),
    ("alloc", "plan_rate", "alloc.plan_rate"),
    ("alloc", "ce_optimize", "alloc.ce_optimize"),
    ("alloc", "integrated_rate", "alloc.integrated_rate"),
    ("sim", "monte_carlo", "sim.monte_carlo"),
    ("sim", "_trial_cell", "sim.cell"),
    ("sim", "run_trial", "sim.run_trial"),
    ("sim", "equal_allocation_trial", "sim.equal_mrt"),
    ("sim", "colocated_trial", "sim.colocated"),
    ("cli", "cmd_simulate", "cli.simulate"),
    ("cli", "main", "cli.main"),
)
# Functions that return one scheme's TrialResult; each builds one grid.
TRIAL_FUNCS = ("run_trial", "equal_allocation_trial", "colocated_trial")
GRID_SPAN = "alloc.grid_build"


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _count_points(tracer, args, kwargs, result):
    import numpy as np

    tracer.add("phy.link_rss_points", np.size(_arg(args, kwargs, 0, "f")))


def _count_link_points(tracer, args, kwargs, result):
    import numpy as np

    mask = _arg(args, kwargs, 0, "mask")
    aps = _arg(args, kwargs, 1, "aps")
    if mask.static_set:
        links = sum(ap.id in mask.static_set for ap in aps)
    else:  # the per-subchannel rule scores every AP
        links = len(aps)
    tracer.add("selection.combined_rss_link_points", links * np.size(_arg(args, kwargs, 2, "f")))


def _count_pairs(tracer, args, kwargs, result):
    """centers x k_hi of one width search, k_hi as `_grid_widths` derives it."""
    import numpy as np

    grid = _arg(args, kwargs, 0, "grid")
    idx = np.atleast_1d(_arg(args, kwargs, 1, "centers_idx"))
    max_width = kwargs.get("max_width", args[3] if len(args) > 3 else None)
    n = grid.values.size
    k_cap = np.minimum(idx, n - 1 - idx)
    if max_width is not None:
        k_cap = np.minimum(k_cap, int(max_width / (2 * grid.step) + 1e-9))
    pairs = idx.size * int(k_cap.max(initial=0))
    tracer.add("alloc.width_search_pairs", pairs)
    tracer.peak("alloc.width_search_mib", pairs * 8 / 2**20)


def _count_trim(tracer, args, kwargs, result):
    tracer.add("alloc.trim_active", result is not _arg(args, kwargs, 0, "plan"))


COUNTERS = {
    "phy.link_rss": _count_points,
    "selection.combined_rss": _count_link_points,
    "alloc.width_search": _count_pairs,
    "alloc.trim_to_budget": _count_trim,
}


class Tracer:
    """In-memory span recorder with a thread-local parent stack.

    A span opened on a thread whose stack is empty (a sweep's pool thread)
    takes the innermost open span of the thread that opened the root as its
    parent, so threaded cells nest under the `monte_carlo` that submitted
    them.
    """

    def __init__(self):
        self.spans = []  # (id, name, start, end, parent id, thread id, cell id)
        self.counts = defaultdict(float)
        self.peaks = defaultdict(float)
        self._main_stack = []
        self._ids = itertools.count()
        self._lock = threading.Lock()
        self._tl = threading.local()

    def add(self, name, n):
        with self._lock:
            self.counts[name] += n

    def peak(self, name, value):
        with self._lock:
            self.peaks[name] = max(self.peaks[name], value)

    def set_cell(self, cell_id):
        self._tl.cell = cell_id

    def wrap(self, name, fn, counter=None):
        tl, spans, ids = self._tl, self.spans, self._ids
        clock, ident = time.perf_counter, threading.get_ident

        def traced(*args, **kwargs):
            stack = tl.__dict__.setdefault("stack", [])
            parent = stack[-1] if stack else self._main_stack[-1]
            sid = next(ids)
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                # list.append is atomic, so pool threads need no lock here
                spans.append((sid, name, start, end, parent, ident(), getattr(tl, "cell", None)))
            if counter is not None:
                counter(self, args, kwargs, result)
            return result

        return traced

    def open_root(self, name):
        """Start a span that the benchmark itself owns (one workload unit)."""
        self._main_stack = self._tl.__dict__.setdefault("stack", [])
        self._root = (next(self._ids), name, time.perf_counter())
        self._main_stack.append(self._root[0])

    def close_root(self):
        end = time.perf_counter()
        sid, name, start = self._root
        self._main_stack.pop()
        self.spans.append((sid, name, start, end, None, threading.get_ident(), None))
        return end - start

    def write(self, path):
        """Dump every span as gzipped CSV."""
        with gzip.open(path, "wt", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["id", "name", "start_s", "end_s", "parent", "thread", "cell"])
            writer.writerows(sorted(self.spans))

    def summarize(self):
        """Per span name: (calls, inclusive seconds, self seconds, durations).

        Self time is a span's duration minus the union of its children's
        intervals, so children running concurrently on pool threads are not
        subtracted twice.
        """
        children = defaultdict(list)
        for sid, _, start, end, parent, _, _ in self.spans:
            if parent is not None:
                children[parent].append((start, end))
        stats = defaultdict(lambda: [0, 0.0, 0.0, []])
        for sid, name, start, end, _, _, _ in self.spans:
            covered, cur_lo, cur_hi = 0.0, None, None
            for lo, hi in sorted(children.get(sid, ())):
                lo, hi = max(lo, start), min(hi, end)
                if cur_hi is None or lo > cur_hi:
                    if cur_hi is not None:
                        covered += cur_hi - cur_lo
                    cur_lo, cur_hi = lo, hi
                else:
                    cur_hi = max(cur_hi, hi)
            if cur_hi is not None:
                covered += cur_hi - cur_lo
            s = stats[name]
            s[0] += 1
            s[1] += end - start
            s[2] += end - start - covered
            s[3].append(end - start)
        return stats


class CellRecord:
    def __init__(self, cell_id, cfg):
        self.cell_id = cell_id
        self.cfg = cfg
        self.results = []  # (scheme, TrialResult, [(live channel, RSS at low, RSS at high)] or None)
        self.error = None


class Probe:
    """Patch `cfthz` for result capture, and for tracing when `tracer` is set."""

    def __init__(self, modules, tracer=None):
        self.modules = modules  # name -> imported cfthz submodule
        self.tracer = tracer
        self.cells = []  # CellRecord, appended as cells finish
        self.unit = 0
        self._tl = threading.local()
        self._saved = []

    def _patch(self, module, attr, value):
        self._saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, value)

    def __enter__(self):
        mods = self.modules
        # span wrappers go innermost, so a cell span ends while its cell id is set
        if self.tracer is not None:
            for mod, attr, name in SPANS:
                if hasattr(mods[mod], attr):
                    fn = getattr(mods[mod], attr)
                    self._patch(mods[mod], attr, self.tracer.wrap(name, fn, COUNTERS.get(name)))
        self._patch_grid()
        for attr in TRIAL_FUNCS:
            if hasattr(mods["sim"], attr):
                self._patch(mods["sim"], attr, self._capture_trial(getattr(mods["sim"], attr)))
        if hasattr(mods["sim"], "_trial_cell"):
            self._patch(mods["sim"], "_trial_cell", self._capture_cell(mods["sim"]._trial_cell))
        return self

    def __exit__(self, *exc):
        while self._saved:
            module, attr, value = self._saved.pop()
            setattr(module, attr, value)
        return False

    def _patch_grid(self):
        base = self.modules["alloc"].GridRss
        tl, tracer = self._tl, self.tracer
        init = base.__init__ if tracer is None else tracer.wrap(GRID_SPAN, base.__init__)

        class CapturedGridRss(base):
            def __init__(self, *args, **kwargs):
                init(self, *args, **kwargs)
                tl.grid = self

        for name in ("alloc", "sim", "cli"):
            if getattr(self.modules[name], "GridRss", None) is base:
                self._patch(self.modules[name], "GridRss", CapturedGridRss)

    def _capture_trial(self, fn):
        tl = self._tl

        def captured(*args, **kwargs):
            tl.grid = None
            result = fn(*args, **kwargs)
            grid = tl.grid  # colocated_trial calls run_trial, so this may be the inner trial's grid
            # Keep the edge values, not the grid: grids held until the unit
            # ends change how the allocator reuses memory and so speed up
            # the units after the first one.
            edges = None if grid is None else [
                (ch, grid(ch.low), grid(ch.high)) for ch in result.plan.channels if ch.width > 0]
            tl.__dict__.setdefault("edges", {})[id(result)] = edges
            return result

        return captured

    def _capture_cell(self, fn):
        tl, tracer = self._tl, self.tracer

        def captured(cfg, axis_idx, trial_idx, *args, **kwargs):
            cell_id = f"u{self.unit}/a{axis_idx}/t{trial_idx}/n_aps={cfg.n_aps}/b_total={cfg.b_total:g}"
            record = CellRecord(cell_id, cfg)
            tl.edges = {}
            if tracer is not None:
                tracer.set_cell(record.cell_id)
            try:
                out = fn(cfg, axis_idx, trial_idx, *args, **kwargs)
            except Exception as exc:
                record.error = f"{type(exc).__name__}: {exc}"
                raise
            finally:
                self.cells.append(record)
                if tracer is not None:
                    tracer.set_cell(None)
            record.results = [(s, r, tl.edges.get(id(r))) for s, r in out.items()]
            return out

        return captured
