"""Frequency-dependent transmit-antenna-selection rules and combined RSS.

Four schemes: MRT (all APs), best N_sel (ranked at each AP's peak-radiation
frequency), best AP per subchannel (frequency-dependent argmax), and
nearest neighbor. The combined RSS sums thresholded per-link PSDs for
set-based masks and takes the max-form for the per-subchannel rule; one
streaming pass over the APs serves any number of masks, so every link row
is computed once per scenario.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import phy


class Scheme(str, Enum):
    MRT = "mrt"
    BEST_NSEL = "best_nsel"
    BEST_PER_SUBCHANNEL = "best_per_subchannel"
    NEAREST = "nearest"


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


@dataclass(frozen=True)
class SelectionMask:
    """Which APs transmit. static_set is empty for the per-subchannel rule,
    which resolves to exactly one AP at any queried frequency."""

    scheme: Scheme
    static_set: frozenset

    def __post_init__(self):
        if self.scheme is Scheme.BEST_PER_SUBCHANNEL:
            if self.static_set:
                raise ValueError("per-subchannel mask carries no static set")
        elif not self.static_set:
            raise ValueError(f"{self.scheme.value} mask needs a non-empty static set")
        if self.scheme is Scheme.NEAREST and len(self.static_set) != 1:
            raise ValueError("nearest-neighbor mask must be a singleton")


def _require_aps(aps):
    if not aps:
        raise ValueError("AP list must be non-empty")


def select_mrt(aps) -> SelectionMask:
    """Select every AP (maximal ratio transmission)."""
    _require_aps(aps)
    return SelectionMask(Scheme.MRT, frozenset(ap.id for ap in aps))


def select_best_nsel(aps, n_sel, p, cfg, f_upper) -> SelectionMask:
    """Select the n_sel APs with the largest RSS at their peak-radiation
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
    return SelectionMask(Scheme.BEST_NSEL, frozenset(ap_id for _, ap_id in chosen))


def select_best_per_subchannel() -> SelectionMask:
    """Per-frequency rule mask; resolve with select_best_at at query time."""
    return SelectionMask(Scheme.BEST_PER_SUBCHANNEL, frozenset())


def select_best_at(aps, f, p, cfg, gain_fn=None) -> int:
    """Id of the AP with the largest RSS at frequency f (lower id on ties)."""
    _require_aps(aps)
    if np.any(np.asarray(f) < cfg.f_co):
        raise phy.BelowCutoffError(f"f = {f} below cutoff {cfg.f_co}")
    best = min((-_link_rss(f, ap, p, cfg, gain_fn), ap.id) for ap in aps)
    return best[1]


def select_nearest(aps) -> SelectionMask:
    """Singleton mask of the AP with the shortest distance (lower id on ties)."""
    _require_aps(aps)
    nearest = min(aps, key=lambda ap: (ap.distance, ap.id))
    return SelectionMask(Scheme.NEAREST, frozenset({nearest.id}))


def _link_rss(f, ap, p, cfg, gain_fn):
    if gain_fn is None:
        return phy.link_rss(f, ap, p, cfg)
    return p * gain_fn(f, ap.angle, cfg) * phy.path_gain(f, ap.distance)


def combined_rss_rows(masks, aps, f, p, cfg, gamma_th):
    """Combined received PSD of each mask in the list `masks` at frequencies f,
    from one pass over the APs; returns one array per mask.

    Each selected AP's link row is computed once, gated by the outage
    indicator 1(gamma >= gamma_th), and combined into every mask that
    selects it, in AP order: summed for set-based masks, max-combined for
    the per-subchannel rule (which selects every AP). A run of APs with one
    geometry (a co-located site) reuses its row. Only one link row is held
    at a time, never a links x points array, and each output rounds as a
    column-wise sum (or max) over its links would.
    """
    _require_aps(aps)
    f_arr = np.atleast_1d(np.asarray(f, dtype=float))
    if np.any(f_arr < cfg.f_co):
        raise phy.BelowCutoffError(f"f below cutoff {cfg.f_co}")

    outs = [np.zeros(f_arr.size) for _ in masks]
    row, geometry = None, None
    for ap in aps:
        users = [
            (mask.scheme is Scheme.BEST_PER_SUBCHANNEL, out)
            for mask, out in zip(masks, outs)
            if mask.scheme is Scheme.BEST_PER_SUBCHANNEL or ap.id in mask.static_set
        ]
        if not users:
            continue
        if (ap.distance, ap.angle) != geometry:
            row = np.asarray(phy.link_rss(f_arr, ap, p, cfg), dtype=float)
            row[row < gamma_th] = 0.0
            geometry = (ap.distance, ap.angle)
        for max_form, out in users:
            if max_form:
                np.maximum(out, row, out=out)
            else:
                out += row
    return outs


def combined_rss(mask, aps, f, p, cfg, gamma_th):
    """Combined received PSD at frequency f (scalar or array) under `mask`.

    Set-based masks: sum of per-link RSS over selected APs, each gated by
    the outage indicator 1(gamma >= gamma_th). Per-subchannel rule: the
    max-form, i.e. the largest thresholded per-link RSS. Returns 0 where
    every selected link falls below gamma_th. The one-mask case of
    `combined_rss_rows`.
    """
    (out,) = combined_rss_rows([mask], aps, f, p, cfg, gamma_th)
    return float(out[0]) if np.ndim(f) == 0 else out

