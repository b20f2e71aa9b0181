"""Leaky-wave antenna physics and free-space THz link budgets.

All functions are pure and accept scalar or ndarray frequencies; outputs
follow numpy broadcasting. Every link is evaluated by `link_rss_rows`, in
real arithmetic. Frequencies in Hz, distances in m, angles in radians,
PSDs in W/Hz.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields

import numpy as np

# Round value used by the leaky-wave design formulas (f_co = c/2v pairs
# like 1.5 mm -> 100 GHz only work out with c = 3e8 exactly).
SPEED_OF_LIGHT = 3.0e8

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
    gain_exponent 1 = magnitude of the complex gain (as printed in the
                 source model), 2 = power-style |.|^2
    """

    f_co: float = 100e9
    atten: float = 130.0
    aperture: float = 0.09
    efficiency: float = 1.0
    gain_exponent: int = 1

    def __post_init__(self):
        require_typed_fields(self)
        _check_positive("f_co", self.f_co)
        _check_positive("aperture", self.aperture)
        if self.atten < 0:
            raise ValueError(f"atten must be >= 0, got {self.atten}")
        if not 0 < self.efficiency <= 1:
            raise ValueError(f"efficiency must be in (0, 1], got {self.efficiency}")
        if self.gain_exponent not in (1, 2):
            raise ValueError(f"gain_exponent must be 1 or 2, got {self.gain_exponent}")


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


def wavenumber(f):
    """Free-space wavenumber 2*pi*f/c."""
    _check_positive("f", f)
    return 2.0 * np.pi * np.asarray(f, dtype=float) / SPEED_OF_LIGHT


def _guided(f, f_co):
    """(k0(f), beta(f)): the free-space wavenumber and the guided phase
    constant k0*sqrt(1 - (f_co/f)^2), which is zero at cutoff."""
    f = np.asarray(f, dtype=float)
    if np.any(f < f_co):
        raise BelowCutoffError(f"f = {f} below cutoff {f_co}")
    k0 = wavenumber(f)
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
    """Leaky-wave gain |xi * L * sinc(z)|^gain_exponent at real phase offsets
    x, where z = x - j*atten*L/2, as an array of x's shape.

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
    if cfg.gain_exponent == 1:
        np.sqrt(g, out=g)
    g *= (cfg.efficiency * cfg.aperture) ** cfg.gain_exponent
    return g.reshape(shape)


def antenna_gain(f, theta, cfg: AntennaConfig):
    """Effective leaky-wave gain |xi * L * sinc(z)|^gain_exponent.

    z = (-j*atten - k0(f)*cos(theta) + beta(f)) * L/2. The gain peaks near
    f = f_co/sin(theta), where the real part of z vanishes. This is the
    gain factor of `link_rss_rows`, for any broadcastable f and theta.
    """
    theta = np.asarray(theta, dtype=float)
    if not np.all((theta > 0) & (theta < np.pi / 2)):
        raise ValueError(f"theta must be in (0, pi/2), got {theta}")
    k0, beta = _guided(f, cfg.f_co)
    g = sinc_gain(_phase_offset(k0, beta, np.cos(theta), cfg), cfg)
    return float(g[0]) if np.broadcast(k0, theta).ndim == 0 else g


def link_rss_rows(f, aps, p, cfg: AntennaConfig):
    """The received PSD p * G(f, theta) * (c / (4*pi*f*d))^2 of each AP in
    `aps`, as an iterator that yields one fresh row per AP in turn.

    `f` is one row of frequencies that every AP shares (1-D), or one row
    per AP (2-D, one row or len(aps) rows). The input checks run, and the
    frequency-only terms k0, beta and 4*pi*f are computed, once, when the
    function is called; each row then costs one phase offset, one
    `sinc_gain` and its path gain.
    """
    _check_positive("p", p)
    f = np.asarray(f, dtype=float)
    if f.ndim not in (1, 2):
        raise ValueError(f"f must be 1-D or 2-D, got shape {f.shape}")
    k0, beta = _guided(f, cfg.f_co)
    four_pi_f = 4.0 * np.pi * f
    shape = (len(aps), f.shape[-1])
    k0, beta, four_pi_f = (np.broadcast_to(t, shape) for t in (k0, beta, four_pi_f))
    cos_theta = np.cos([ap.angle for ap in aps])

    def rows():
        for i, ap in enumerate(aps):
            row = sinc_gain(_phase_offset(k0[i], beta[i], cos_theta[i], cfg), cfg)
            row *= p
            amp = np.multiply(four_pi_f[i], ap.distance)
            np.divide(SPEED_OF_LIGHT, amp, out=amp)
            amp *= amp
            row *= amp
            yield row

    return rows()


def peak_link_psd(p, cfg: AntennaConfig, f_upper, d_min):
    """The largest link PSD `link_rss_rows` can give at transmit PSD p,
    frequencies in [f_co, f_upper] and distances from d_min:
    p * (xi * L * sinh(s)/s)^e * (c / (4*pi*f_co*d_min))^2, s = atten*L/2.

    The squared sinc (sin^2 x + sinh^2 s) / (x^2 + s^2) is at most
    sinh^2(s)/s^2 (1 at s = 0), its value at x = 0, since sin^2 x <= x^2
    and sinh^2 s >= s^2; the path gain is largest at the cutoff and the
    shortest distance. Raises a ValueError naming the input when a value
    `sinc_gain` squares on the way (the phase offset x, whose size stays
    below k0(f_upper) * L/2, or sinh(s)), the gain scale (xi*L)^e or the
    peak is not finite: such a config would give inf or NaN link rows.
    """
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        s = np.float64(cfg.atten) * cfg.aperture / 2.0
        x_max = np.pi * np.float64(f_upper) * cfg.aperture / SPEED_OF_LIGHT
        scale = np.float64(cfg.efficiency * cfg.aperture) ** cfg.gain_exponent
        # twice the largest offset, a margin for its rounding
        if not (np.isfinite((2.0 * x_max) ** 2 + s * s) and np.isfinite(scale)):
            raise ValueError(f"antenna.aperture: {cfg.aperture:g} m overflows the leaky-wave "
                             "gain's sinc argument or its scale (xi * L)^e")
        sinh_s = np.sinh(s)
        if not np.isfinite(sinh_s * sinh_s):
            raise ValueError(f"antenna.atten: sinh(atten * aperture / 2)^2 overflows at "
                             f"atten = {cfg.atten:g} /m; atten * aperture / 2 is {s:g}")
        sinc = sinh_s / s if s > 0 else 1.0
        gain = sinc**cfg.gain_exponent * scale * p
        path = SPEED_OF_LIGHT / (4.0 * np.pi * np.float64(cfg.f_co) * d_min)
        peak = gain * (path * path)
        if not (np.isfinite(gain) and np.isfinite(peak)):
            raise ValueError(f"p_total, d_min: the peak link PSD overflows at p = {p:g} W/Hz, "
                             f"f_co = {cfg.f_co:g} Hz and d_min = {d_min:g} m")
    return float(peak)


def dbm_per_hz_to_w_per_hz(x_dbm_hz):
    """Convert a PSD given in dBm/Hz to linear W/Hz."""
    return 10.0 ** ((np.asarray(x_dbm_hz, dtype=float) - 30.0) / 10.0)


def w_per_hz_to_dbm_per_hz(x):
    """Convert a linear PSD in W/Hz to dBm/Hz."""
    return 10.0 * np.log10(np.asarray(x, dtype=float)) + 30.0
