"""Frequency-dependent transmit-antenna-selection rules and combined RSS.

A selection is the frozenset of the ids of the APs that transmit: MRT (all
APs), best N_sel (ranked at each AP's peak-radiation frequency) or nearest
neighbor. The best AP per subchannel max-combines every AP, and
`select_best_at` resolves it at a frequency. The combined RSS folds the
thresholded per-link PSDs of a selection with its combining rule (`np.add`
or `np.maximum`); one streaming pass over the APs serves any number of
selections, so every link row is computed once per scenario, and only where
it can pass the gate.
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
    peaks = np.minimum(phy.peak_frequency(np.array([ap.angle for ap in aps]), cfg.f_co), f_upper)
    rss = phy.link_psd(peaks[:, None], aps, p, cfg).ravel()
    chosen = sorted(zip(-rss, (ap.id for ap in aps)))[:n_sel]
    return frozenset(ap_id for _, ap_id in chosen)


def select_best_at(aps, f, p, cfg):
    """Id of the AP with the largest RSS at each frequency in f (lower id on
    ties): an int for scalar f, else an array shaped like f."""
    _require_aps(aps)
    f = np.asarray(f, dtype=float)
    by_id = sorted(aps, key=lambda ap: ap.id)
    rss = phy.link_psd(f.ravel(), by_id, p, cfg)
    best = np.array([ap.id for ap in by_id])[rss.argmax(axis=0)]
    return int(best[0]) if f.ndim == 0 else best.reshape(f.shape)


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
    `np.maximum` keeps the strongest. The rows stream from one
    `phy.gated_link_rows` call over f, which must ascend, each on only the
    window where its link can reach gamma_th; a point outside it gates to 0,
    and adding or max-ing 0 leaves a fold unchanged, so each output rounds
    as a column-wise sum (or max) over its gated full link rows would.
    """
    _require_aps(aps)
    folds = [np.zeros(np.shape(f)) for _ in selections]
    selected = []  # (AP, the (combine, fold) pairs of the selections that hold it)
    for ap in aps:
        pairs = [(rule, fold) for (ids, rule), fold in zip(selections, folds) if ap.id in ids]
        if pairs:
            selected.append((ap, pairs))
    rows = phy.gated_link_rows(f, [ap for ap, _ in selected], p, cfg, gamma_th)
    for (_, pairs), (start, row) in zip(selected, rows):
        for rule, fold in pairs:
            window = fold[start:start + row.size]
            rule(window, row, out=window)
    return folds
