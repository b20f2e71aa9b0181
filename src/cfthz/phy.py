"""Leaky-wave antenna physics and free-space THz link budgets.

All functions are pure and accept scalar or ndarray frequencies; outputs
follow numpy broadcasting. Every link is evaluated by one formula, in real
arithmetic: in full by `link_psd`, or gated, and only where it can
reach the outage threshold, by `gated_link_rows`. Frequencies in Hz,
distances in m, angles in radians, PSDs in W/Hz.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields

import numpy as np

# Round value used by the leaky-wave design formulas (f_co = c/2v pairs
# like 1.5 mm -> 100 GHz only work out with c = 3e8 exactly).
SPEED_OF_LIGHT = 3.0e8
# `live_band` gates its envelope at gamma_th * (1 - GATE_MARGIN), far above
# the rounding of a link row, and tightens it in LIVE_BAND_ROUNDS rounds
# (more gave under 1% fewer points at the defaults); `gated_link_rows` pads
# each window by WINDOW_PAD grid points at each end
GATE_MARGIN = 1e-6
LIVE_BAND_ROUNDS = 6
WINDOW_PAD = 2

class BelowCutoffError(ValueError):
    """Raised when a frequency below the waveguide cutoff is requested."""


def require_typed_fields(obj):
    """Store each field of a frozen dataclass declared `int` or `float` as
    that type (20.0 -> 20, np.float32(0.5) -> 0.5, -0.0 -> 0.0), or raise a
    ValueError naming the field for a bool, NaN, an infinity, or a value of
    an int field that is not a whole number."""
    for f in fields(obj):
        kind = {"int": int, "float": float}.get(f.type)
        if kind is None:
            continue
        value = getattr(obj, f.name)
        number = isinstance(value, numbers.Real) and not isinstance(value, bool)
        if not (number and (isinstance(value, numbers.Integral) or math.isfinite(value))):
            raise ValueError(f"{f.name} must be a finite number, got {value!r}")
        typed = kind(value) + 0  # -0.0 + 0 is 0.0
        if kind is int and typed != value:
            raise ValueError(f"{f.name} must be a whole number, got {value!r}")
        object.__setattr__(obj, f.name, typed)


def _check_positive(name, value):
    if not np.all(np.asarray(value) > 0):
        raise ValueError(f"{name} must be positive, got {value}")


@dataclass(frozen=True)
class AntennaConfig:
    """Leaky-wave antenna parameters.

    f_co         cutoff frequency [Hz], the lower edge of a scenario's band
    atten        attenuation coefficient along the aperture [1/m]
    aperture     aperture length L [m]
    efficiency   radiation efficiency factor, 0 < xi <= 1
    """

    f_co: float = 100e9
    atten: float = 130.0
    aperture: float = 0.09
    efficiency: float = 1.0

    def __post_init__(self):
        require_typed_fields(self)
        _check_positive("f_co", self.f_co)
        _check_positive("aperture", self.aperture)
        if self.atten < 0:
            raise ValueError(f"atten must be >= 0, got {self.atten}")
        if not 0 < self.efficiency <= 1:
            raise ValueError(f"efficiency must be in (0, 1], got {self.efficiency}")


def peak_frequency(theta, f_co):
    """Frequency of maximum radiation toward angle theta: f_co/sin(theta).

    theta must lie in (0, pi/2]; the sin -> 0 singularity makes smaller
    angles unphysical here.
    """
    theta = np.asarray(theta, dtype=float)
    if not np.all((theta > 0) & (theta <= np.pi / 2)):
        raise ValueError(f"theta must be in (0, pi/2], got {theta}")
    out = f_co / np.sin(theta)
    return float(out) if out.ndim == 0 else out


def _guided(f, f_co):
    """(k0(f), beta(f)): the free-space wavenumber 2*pi*f/c and the guided
    phase constant k0*sqrt(1 - (f_co/f)^2), which is zero at cutoff."""
    f = np.asarray(f, dtype=float)
    if not np.all(f >= f_co):
        raise BelowCutoffError(f"f = {f} below cutoff {f_co}")
    k0 = 2.0 * np.pi * f / SPEED_OF_LIGHT
    ratio = f_co / f
    return k0, k0 * np.sqrt(np.maximum(0.0, 1.0 - ratio * ratio))


def _phase_offset(k0, beta, cos_theta, cfg: AntennaConfig):
    """x = (beta - k0*cos(theta))*L/2, the real part of the sinc argument z,
    as a fresh array of at least one dimension."""
    x = np.atleast_1d(np.multiply(k0, cos_theta))
    np.subtract(beta, x, out=x)
    x *= cfg.aperture / 2.0
    return x


def sinc_gain(x, cfg: AntennaConfig):
    """Leaky-wave gain |xi * L * sinc(z)|, the magnitude of the complex gain
    as the source model prints it, at real phase offsets x, where
    z = x - j*atten*L/2, as an array of x's shape.

    Real arithmetic only: |sin z|^2 = sin^2 x + sinh^2(atten*L/2) and
    |z|^2 = x^2 + (atten*L/2)^2. Where both vanish (x = 0 with atten = 0)
    the sinc takes its limit 1.
    """
    shape = np.shape(x)
    x = np.atleast_1d(np.asarray(x, dtype=float))
    s = cfg.atten * cfg.aperture / 2.0
    g = np.sin(x)
    g *= g
    g += np.sinh(s) ** 2
    den = x * x
    den += s * s
    if s * s == 0.0:
        at_zero = den == 0.0
        g[at_zero] = den[at_zero] = 1.0
    g /= den
    np.sqrt(g, out=g)
    g *= cfg.efficiency * cfg.aperture
    return g.reshape(shape)


def antenna_gain(f, theta, cfg: AntennaConfig):
    """Effective leaky-wave gain |xi * L * sinc(z)|.

    z = (-j*atten - k0(f)*cos(theta) + beta(f)) * L/2. The gain peaks near
    f = f_co/sin(theta), where the real part of z vanishes. This is the
    gain factor of `link_psd`, for any broadcastable f and theta.
    """
    theta = np.asarray(theta, dtype=float)
    if not np.all((theta > 0) & (theta < np.pi / 2)):
        raise ValueError(f"theta must be in (0, pi/2), got {theta}")
    k0, beta = _guided(f, cfg.f_co)
    g = sinc_gain(_phase_offset(k0, beta, np.cos(theta), cfg), cfg)
    return float(g[0]) if np.broadcast(k0, theta).ndim == 0 else g


def link_psd(f, distance, angle, p, cfg: AntennaConfig):
    """The received PSD p * G(f, theta) * (c / (4*pi*f*d))^2 of each link
    i at (distance[i], angle[i]), one row per link, as one array.

    `f` (1-D or 2-D) broadcasts against a column of links: a 1-D row of
    frequencies is shared by every link, and a 2-D f holds one row per
    link, so `peaks[:, None]` gives each link its own frequency. Raises a
    ValueError naming the first link i, as AP i, whose row is not finite
    (one far closer than any config's d_min overflows the path gain).
    """
    _check_positive("p", p)
    f = np.asarray(f, dtype=float)
    if f.ndim not in (1, 2):
        raise ValueError(f"f must be 1-D or 2-D, got shape {f.shape}")
    k0, beta = _guided(f, cfg.f_co)
    distance = np.asarray(distance, dtype=float)[:, None]
    cos_theta = np.cos(np.asarray(angle, dtype=float)[:, None])
    with np.errstate(over="ignore", invalid="ignore"):
        rows = _link_row(k0, beta, 4.0 * np.pi * f, cos_theta, distance, p, cfg)
    bad = np.flatnonzero(~np.isfinite(rows).all(axis=1))
    if bad.size:
        raise ValueError(f"AP {bad[0]}: link PSD at distance {distance[bad[0], 0]} m "
                         "is not finite")
    return rows


def _link_row(k0, beta, four_pi_f, cos_theta, distance, p, cfg: AntennaConfig):
    """p * G * (c / (4*pi*f*d))^2 over the broadcast terms k0, beta, 4*pi*f,
    cos(theta) and d, as a fresh array: the one link-PSD formula."""
    row = sinc_gain(_phase_offset(k0, beta, cos_theta, cfg), cfg)
    row *= p
    amp = np.multiply(four_pi_f, distance)
    np.divide(SPEED_OF_LIGHT, amp, out=amp)
    amp *= amp
    row *= amp
    return row


def peak_link_psd(p, cfg: AntennaConfig, f_upper, d_min):
    """The largest link PSD `link_psd` can give at transmit PSD p,
    frequencies in [f_co, f_upper] and distances from d_min:
    p * xi * L * sinh(s)/s * (c / (4*pi*f_co*d_min))^2, s = atten*L/2.

    The squared sinc (sin^2 x + sinh^2 s) / (x^2 + s^2) is at most
    sinh^2(s)/s^2 (1 at s = 0), its value at x = 0, since sin^2 x <= x^2
    and sinh^2 s >= s^2; the path gain is largest at the cutoff and the
    shortest distance. Raises a ValueError naming the input when a value
    `sinc_gain` squares on the way (the phase offset x, whose size stays
    below k0(f_upper) * L/2, or sinh(s)) or the peak is not finite: such a
    config would give inf or NaN link rows.
    """
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        s = np.float64(cfg.atten) * cfg.aperture / 2.0
        x_max = np.pi * np.float64(f_upper) * cfg.aperture / SPEED_OF_LIGHT
        # twice the largest offset, a margin for its rounding
        if not np.isfinite((2.0 * x_max) ** 2 + s * s):
            raise ValueError(f"antenna.aperture: {cfg.aperture:g} m overflows the leaky-wave "
                             "gain's sinc argument")
        sinh_s = np.sinh(s)
        if not np.isfinite(sinh_s * sinh_s):
            raise ValueError(f"antenna.atten: sinh(atten * aperture / 2)^2 overflows at "
                             f"atten = {cfg.atten:g} /m; atten * aperture / 2 is {s:g}")
        sinc = sinh_s / s if s > 0 else 1.0
        gain = sinc * np.float64(cfg.efficiency * cfg.aperture) * p
        path = SPEED_OF_LIGHT / (4.0 * np.pi * np.float64(cfg.f_co) * d_min)
        peak = gain * (path * path)
        if not (np.isfinite(gain) and np.isfinite(peak)):
            raise ValueError(f"p_total, d_min: the peak link PSD overflows at p = {p:g} W/Hz, "
                             f"f_co = {cfg.f_co:g} Hz and d_min = {d_min:g} m")
    return float(peak)


def live_band(p, cfg: AntennaConfig, distances, angles, gamma_th, band):
    """Per link at (distance, angle): frequencies (f_a, f_b) in band =
    (f_lo, f_hi) such that its link PSD at transmit PSD p is below gamma_th
    at every f in the band outside [f_a, f_b]; f_a > f_b for a link below
    gamma_th over the whole band. The whole band wherever the bound is not
    finite or gamma_th <= 0.

    The envelope: sin^2 x <= 1 and 1 + sinh^2 s = cosh^2 s, so each link PSD
    is at most p * xi*L * cosh s / sqrt(x^2 + s^2) * (c/(4*pi*f*d))^2
    with s = atten*L/2 (`peak_link_psd` is its largest value). The path gain
    only falls with f, so above a frequency f_m, where it is read, the
    envelope reaches gamma_th only where |x| <= x_max(f_m); and x(f) =
    (pi*L/c) * (sqrt(f^2 - f_co^2) - f*cos(theta)) rises with f, so that is
    one interval, whose ends are roots of a quadratic in f. Each round reads
    the path gain at f_a, which moves f_a up, then at a point f_m that
    bisects the part of [f_a, f_b] not yet shown live, which moves f_b down
    to f_m when nothing above f_m can be live. The gate carries a relative
    margin of `GATE_MARGIN` against rounding.
    """
    d = np.asarray(distances, dtype=float)
    theta = np.asarray(angles, dtype=float)
    f_lo, f_hi = (np.full(d.shape, np.float64(end)) for end in band)
    with np.errstate(all="ignore"):
        s = np.float64(cfg.atten) * cfg.aperture / 2.0
        cosh_s = np.cosh(s)
        if not (gamma_th > 0 and np.isfinite(cosh_s * cosh_s)):
            return f_lo, f_hi
        # log of p * xi*L*cosh(s) * (c/(4*pi*d))^2 / gate: the envelope at
        # x = s = 0 over the gate, short of its 1/f^2
        log_k = (np.log(p) + (np.log(cfg.efficiency) + np.log(cfg.aperture) + np.log(cosh_s))
                 + 2.0 * np.log(SPEED_OF_LIGHT / (4.0 * np.pi * d))
                 - np.log(gamma_th * (1.0 - GATE_MARGIN)))
        cos_t, sin_t = np.cos(theta), np.sin(theta)
        f_co = cfg.f_co

        def ends(f_m):
            """The f where |x(f)| <= x_max(f_m), as (low, high); (inf, -inf)
            where the envelope cannot reach the gate at f >= f_m."""
            x2 = np.exp(2.0 * (log_k - 2.0 * np.log(f_m))) - s * s
            u = np.sqrt(x2) * (SPEED_OF_LIGHT / (np.pi * cfg.aperture))  # x_max in Hz
            root = np.sqrt(u * u + (f_co * sin_t) ** 2)
            # x(f) = -x_max, or f_co where x(f_co) is above it already
            low = np.where(u < f_co * cos_t, (u * u + f_co * f_co) / (root + u * cos_t), f_co)
            high = (u * cos_t + root) / (sin_t * sin_t)
            live = x2 >= 0.0
            return np.where(live, low, np.inf), np.where(live, high, -np.inf)

        # shown: the last f_m above which the envelope could still reach
        # the gate, the floor of the bisection
        f_a, f_b, shown = f_lo, f_hi, f_lo
        for _ in range(LIVE_BAND_ROUNDS):
            low, high = ends(f_a)
            f_a, f_b = np.maximum(f_a, low), np.minimum(f_b, high)
            f_m = (np.maximum(shown, f_a) + f_b) / 2.0
            low, high = ends(f_m)
            high = np.minimum(f_b, high)
            dead_above = np.maximum(f_m, low) > high
            f_b = np.where(dead_above, np.minimum(f_m, f_b), high)
            shown = np.where(dead_above, shown, f_m)
        bounded = np.isfinite(log_k)
    return np.where(bounded, f_a, f_lo), np.where(bounded, f_b, f_hi)


def gated_link_rows(f, distance, angle, p, cfg: AntennaConfig, gamma_th):
    """Each link's PSD gated by the outage indicator 1(psd >= gamma_th),
    computed only on its live window of the ascending 1-D frequencies f, as
    an iterator that yields one (start, row) pair per link (distance[i],
    angle[i]) in turn: row is the gated PSD at f[start:start + row.size],
    and every other point of f gates to 0.

    The window is `live_band`'s interval, padded by `WINDOW_PAD` points at
    each end; inside it each point takes the full row's value bit for bit.
    The input checks run, and the frequency-only terms are computed, once,
    when the function is called.
    """
    _check_positive("p", p)
    f = np.asarray(f, dtype=float)
    if f.ndim != 1 or np.any(f[1:] < f[:-1]):
        raise ValueError("f must be one ascending row of frequencies")
    k0, beta = _guided(f, cfg.f_co)
    four_pi_f = 4.0 * np.pi * f
    cos_theta = np.cos(angle)
    f_a, f_b = live_band(p, cfg, distance, angle, gamma_th,
                         (f[0], f[-1]) if f.size else (cfg.f_co, cfg.f_co))
    start = np.maximum(np.searchsorted(f, f_a) - WINDOW_PAD, 0)
    stop = np.minimum(np.searchsorted(f, f_b, "right") + WINDOW_PAD, f.size)
    stop = np.where(f_a > f_b, start, stop)

    def rows():
        for a, b, cos_t, d in zip(start, stop, cos_theta, distance):
            row = _link_row(k0[a:b], beta[a:b], four_pi_f[a:b], cos_t, d, p, cfg)
            row[row < gamma_th] = 0.0
            yield a, row

    return rows()


def dbm_per_hz_to_w_per_hz(x_dbm_hz):
    """Convert a PSD given in dBm/Hz to linear W/Hz."""
    return 10.0 ** ((np.asarray(x_dbm_hz, dtype=float) - 30.0) / 10.0)


def w_per_hz_to_dbm_per_hz(x):
    """Convert a linear PSD in W/Hz to dBm/Hz."""
    return 10.0 * np.log10(np.asarray(x, dtype=float)) + 30.0
