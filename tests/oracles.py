"""Reference forms that several test modules share.

The library keeps only what its own callers use; the one-AP link, a grid
sampled from a frequency -> PSD function and a log-uniform hypothesis
strategy are conveniences of the tests, built here from the library's own
kernels. The selection oracles restate each rule's tie-break over Python
tuples.
"""

import numpy as np
from hypothesis import strategies as st

from cfthz import alloc, phy


def link_rss(f, d, theta, p, cfg):
    """Received PSD of the link to an AP at distance d and angle theta at the
    frequencies in f (a float for scalar f): the one-AP case of
    `phy.link_psd`."""
    (row,) = phy.link_psd(np.atleast_1d(np.asarray(f, dtype=float)), [d], [theta], p, cfg)
    return float(row[0]) if np.ndim(f) == 0 else row


def ap_pairs(drop):
    """The (distance, angle) pair of each AP of a drop, in id order."""
    return list(zip(drop.distance.tolist(), drop.angle.tolist()))


def best_nsel_ids(rss, n_sel):
    """The ids of the n_sel smallest (-rss, id) pairs."""
    return {i for _, i in sorted((-r, i) for i, r in enumerate(rss))[:n_sel]}


def nearest_id(distance):
    """The id of the smallest (distance, id) pair."""
    return min((d, i) for i, d in enumerate(distance))[1]


def first_max_id(values):
    """The id of the first largest value."""
    best = 0
    for i, v in enumerate(values):
        if v > values[best]:
            best = i
    return best


def sampled_grid(rss_fn, band, step):
    """A `GridRss` holding `rss_fn` sampled at the grid's own frequencies."""
    return alloc.GridRss(rss_fn(alloc.grid_freqs(band, step)), band, step)


def log_uniform(low_exp, high_exp):
    """Floats 10**u for u uniform on [low_exp, high_exp]."""
    return st.floats(low_exp, high_exp).map(lambda u: 10.0**u)
