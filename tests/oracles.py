"""Reference forms that several test modules share.

The library keeps only what its own callers use; the one-AP link, a grid
sampled from a frequency -> PSD function and a log-uniform hypothesis
strategy are conveniences of the tests, built here from the library's own
kernels.
"""

import numpy as np
from hypothesis import strategies as st

from cfthz import alloc, phy


def link_rss(f, ap, p, cfg):
    """Received PSD of one AP-UE link at the frequencies in f (a float for
    scalar f): the one-AP case of `phy.link_psd`."""
    (row,) = phy.link_psd(np.atleast_1d(np.asarray(f, dtype=float)), [ap], p, cfg)
    return float(row[0]) if np.ndim(f) == 0 else row


def sampled_grid(rss_fn, band, step):
    """A `GridRss` holding `rss_fn` sampled at the grid's own frequencies."""
    return alloc.GridRss(rss_fn(alloc.grid_freqs(band, step)), band, step)


def log_uniform(low_exp, high_exp):
    """Floats 10**u for u uniform on [low_exp, high_exp]."""
    return st.floats(low_exp, high_exp).map(lambda u: 10.0**u)
