"""Frequency-dependent transmit-antenna-selection rules and combined RSS.

A `Drop` holds the APs as two arrays, so AP i's id is its position i. A
selection is the frozenset of the ids of the APs that transmit: MRT (all
APs), best N_sel (ranked at each AP's peak-radiation frequency) or nearest
neighbor. The best AP per subchannel max-combines every AP, and
`select_best_at` resolves it at a frequency. The combined RSS folds the
thresholded per-link PSDs of a selection with its combining rule (`np.add`
or `np.maximum`); one streaming pass over the APs serves any number of
selections, so every link row is computed once per scenario, and only where
it can pass the gate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import phy


@dataclass(frozen=True, eq=False)
class Drop:
    """N APs around one UE: AP i at distance[i] m and angle[i] rad, in
    (0, pi/2). Both are read-only float copies of equal-length, non-empty
    1-D arrays."""

    distance: np.ndarray
    angle: np.ndarray

    def __post_init__(self):
        d, a = np.array(self.distance, dtype=float), np.array(self.angle, dtype=float)
        if d.ndim != 1 or d.shape != a.shape or not d.size:
            raise ValueError(f"need non-empty 1-D arrays of one length, got {d.shape}, {a.shape}")
        bad = ~(np.isfinite(d) & (d > 0))
        if bad.any():
            i = bad.argmax()
            raise ValueError(f"AP {i}: distance must be finite and > 0, got {d[i]}")
        bad = ~((a > 0) & (a < np.pi / 2))
        if bad.any():
            i = bad.argmax()
            raise ValueError(f"AP {i}: angle must be in (0, pi/2), got {a[i]}")
        d.flags.writeable = a.flags.writeable = False
        object.__setattr__(self, "distance", d)
        object.__setattr__(self, "angle", a)


def select_mrt(drop) -> frozenset:
    """Ids of every AP (maximal ratio transmission)."""
    return frozenset(range(drop.distance.size))


def select_best_nsel(drop, n_sel, p, cfg, f_upper) -> frozenset:
    """Ids of the n_sel APs with the largest RSS at their peak-radiation
    frequency (clamped to f_upper; peaks above the band are unreachable).

    Ties broken toward lower AP id.
    """
    if not 1 <= n_sel <= drop.distance.size:
        raise ValueError(f"n_sel must be in [1, {drop.distance.size}], got {n_sel}")
    peaks = np.minimum(phy.peak_frequency(drop.angle, cfg.f_co), f_upper)
    rss = phy.link_psd(peaks[:, None], drop.distance, drop.angle, p, cfg).ravel()
    return frozenset(np.argsort(-rss, kind="stable")[:n_sel].tolist())


def select_best_at(drop, f, p, cfg):
    """Id of the AP with the largest RSS at each frequency in f (lower id on
    ties): an int for scalar f, else an array shaped like f."""
    f = np.asarray(f, dtype=float)
    best = phy.link_psd(f.ravel(), drop.distance, drop.angle, p, cfg).argmax(axis=0)
    return int(best[0]) if f.ndim == 0 else best.reshape(f.shape)


def select_nearest(drop) -> frozenset:
    """Id of the AP with the shortest distance (lower id on ties), as a
    one-element set."""
    return frozenset({int(drop.distance.argmin())})


def combined_rss_rows(selections, drop, f, p, cfg, gamma_th):
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
    folds = [np.zeros(np.shape(f)) for _ in selections]
    held = [i for i in range(drop.distance.size) if any(i in ids for ids, _ in selections)]
    rows = phy.gated_link_rows(f, drop.distance[held], drop.angle[held], p, cfg, gamma_th)
    for i, (start, row) in zip(held, rows):
        for (ids, rule), fold in zip(selections, folds):
            if i in ids:
                window = fold[start:start + row.size]
                rule(window, row, out=window)
    return folds
