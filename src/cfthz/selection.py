"""Frequency-dependent transmit-antenna-selection rules and combined RSS.

A selection is the frozenset of the ids of the APs that transmit: MRT (all
APs), best N_sel (ranked at each AP's peak-radiation frequency) or nearest
neighbor. The best AP per subchannel max-combines every AP, and
`select_best_at` resolves it at a frequency. The combined RSS folds the
thresholded per-link PSDs of a selection with its combining rule (`np.add`
or `np.maximum`); one streaming pass over the APs serves any number of
selections, so every link row is computed once per scenario.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import phy


@dataclass(frozen=True)
class AccessPoint:
    """One AP's geometry relative to the UE."""

    id: int
    distance: float  # m
    angle: float  # rad, in (0, pi/2)

    def __post_init__(self):
        if not (math.isfinite(self.distance) and self.distance > 0):
            raise ValueError(
                f"AP {self.id}: distance must be finite and > 0, got {self.distance}"
            )
        if not 0 < self.angle < np.pi / 2:
            raise ValueError(f"AP {self.id}: angle must be in (0, pi/2), got {self.angle}")


def _require_aps(aps):
    if not aps:
        raise ValueError("AP list must be non-empty")


def select_mrt(aps) -> frozenset:
    """Ids of every AP (maximal ratio transmission)."""
    _require_aps(aps)
    return frozenset(ap.id for ap in aps)


def select_best_nsel(aps, n_sel, p, cfg, f_upper) -> frozenset:
    """Ids of the n_sel APs with the largest RSS at their peak-radiation
    frequency (clamped to f_upper; peaks above the band are unreachable).

    Ties broken toward lower AP id.
    """
    _require_aps(aps)
    if not 1 <= n_sel <= len(aps):
        raise ValueError(f"n_sel must be in [1, {len(aps)}], got {n_sel}")
    scores = []
    for ap in aps:
        f_eval = min(phy.peak_frequency(ap.angle, cfg.f_co), f_upper)
        scores.append((-phy.link_rss(f_eval, ap, p, cfg), ap.id))
    chosen = sorted(scores)[:n_sel]
    return frozenset(ap_id for _, ap_id in chosen)


def select_best_at(aps, f, p, cfg):
    """Id of the AP with the largest RSS at each frequency in f (lower id on
    ties): an int for scalar f, else an array shaped like f."""
    _require_aps(aps)
    f = np.asarray(f, dtype=float)
    if np.any(f < cfg.f_co):
        raise phy.BelowCutoffError(f"f = {f} below cutoff {cfg.f_co}")
    by_id = sorted(aps, key=lambda ap: ap.id)
    rss = np.array([np.broadcast_to(phy.link_rss(f, ap, p, cfg), f.shape) for ap in by_id])
    best = np.array([ap.id for ap in by_id])[rss.argmax(axis=0)]
    return int(best) if f.ndim == 0 else best


def select_nearest(aps) -> frozenset:
    """Id of the AP with the shortest distance (lower id on ties), as a
    one-element set."""
    _require_aps(aps)
    nearest = min(aps, key=lambda ap: (ap.distance, ap.id))
    return frozenset({nearest.id})


def combined_rss_rows(selections, aps, f, p, cfg, gamma_th):
    """Combined received PSD at frequencies f of each (ids, combine) pair in
    the list `selections`, from one pass over the APs; one array per pair.

    A selected AP's link row is computed once, gated by the outage indicator
    1(gamma >= gamma_th), and folded into every selection whose ids hold it,
    in AP order, with combine(out, row, out=out): `np.add` sums the links,
    `np.maximum` keeps the strongest. A run of APs with one geometry (a
    co-located site) reuses its row. Only one link row is held at a time,
    and each output rounds as a column-wise sum (or max) over its links would.
    """
    _require_aps(aps)
    f_arr = np.atleast_1d(np.asarray(f, dtype=float))
    if np.any(f_arr < cfg.f_co):
        raise phy.BelowCutoffError(f"f below cutoff {cfg.f_co}")

    outs = [np.zeros(f_arr.size) for _ in selections]
    row, geometry = None, None
    for ap in aps:
        users = [(rule, out) for (ids, rule), out in zip(selections, outs) if ap.id in ids]
        if not users:
            continue
        if (ap.distance, ap.angle) != geometry:
            row = np.asarray(phy.link_rss(f_arr, ap, p, cfg), dtype=float)
            row[row < gamma_th] = 0.0
            geometry = (ap.distance, ap.angle)
        for rule, out in users:
            rule(out, row, out=out)
    return outs
