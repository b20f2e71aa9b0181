"""Leaky-wave antenna physics and free-space THz link budgets.

All functions are pure and accept scalar or ndarray frequencies; outputs
follow numpy broadcasting. Frequencies in Hz, distances in m, angles in
radians, PSDs in W/Hz.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

# Round value used by the leaky-wave design formulas (f_co = c/2v pairs
# like 1.5 mm -> 100 GHz only work out with c = 3e8 exactly).
SPEED_OF_LIGHT = 3.0e8

# Complex sinc switches to a Taylor expansion below this |z|.
_SINC_TAYLOR_CUTOFF = 1e-4


class BelowCutoffError(ValueError):
    """Raised when a frequency below the waveguide cutoff is requested."""


def require_finite_fields(obj):
    """Reject a dataclass whose float fields hold NaN or an infinity."""
    for f in fields(obj):
        value = getattr(obj, f.name)
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError(f"{f.name} must be finite, got {value}")


def _check_positive(name, value):
    if not np.all(np.asarray(value) > 0):
        raise ValueError(f"{name} must be positive, got {value}")


@dataclass(frozen=True)
class AntennaConfig:
    """Leaky-wave antenna parameters.

    f_co         cutoff frequency [Hz]
    atten        attenuation coefficient along the aperture [1/m]
    aperture     aperture length L [m]
    efficiency   radiation efficiency factor, 0 < xi <= 1
    gain_exponent 1 = magnitude of the complex gain (as printed in the
                 source model), 2 = power-style |.|^2
    """

    f_co: float
    atten: float = 130.0
    aperture: float = 0.09
    efficiency: float = 1.0
    gain_exponent: int = 1

    def __post_init__(self):
        require_finite_fields(self)
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


def phase_constant(f, f_co):
    """Guided phase constant k0(f)*sqrt(1 - (f_co/f)^2); zero at cutoff."""
    f = np.asarray(f, dtype=float)
    if np.any(f < f_co):
        raise BelowCutoffError(f"f = {f} below cutoff {f_co}")
    ratio = f_co / f
    out = wavenumber(f) * np.sqrt(np.maximum(0.0, 1.0 - ratio * ratio))
    return float(out) if out.ndim == 0 else out


def complex_sinc(z):
    """Unnormalized sinc sin(z)/z for complex z, with sinc(0) = 1.

    Arguments below |z| = 1e-4 use the 3-term Taylor series to avoid
    cancellation.
    """
    z_in = np.asarray(z, dtype=complex)
    z = np.atleast_1d(z_in)
    small = np.abs(z) < _SINC_TAYLOR_CUTOFF
    # avoid 0/0 in the vectorized branch; the small entries are overwritten
    safe = np.where(small, 1.0, z)
    out = np.sin(safe)
    out /= safe
    if small.any():
        z2 = z[small] * z[small]
        out[small] = 1.0 - z2 / 6.0 + z2 * z2 / 120.0
    return complex(out[0]) if z_in.ndim == 0 else out


def antenna_gain(f, theta, cfg: AntennaConfig):
    """Effective leaky-wave gain |xi * L * sinc(z)|^gain_exponent.

    z = (-j*atten - k0(f)*cos(theta) + beta(f)) * L/2. The gain peaks near
    f = f_co/sin(theta), where the real part of z vanishes.
    """
    theta = np.asarray(theta, dtype=float)
    if not np.all((theta > 0) & (theta < np.pi / 2)):
        raise ValueError(f"theta must be in (0, pi/2), got {theta}")
    k0 = wavenumber(f)
    beta = phase_constant(f, cfg.f_co)
    z = (-1j * cfg.atten - k0 * np.cos(theta) + beta) * (cfg.aperture / 2.0)
    g = np.abs(cfg.efficiency * cfg.aperture * complex_sinc(z)) ** cfg.gain_exponent
    return float(g) if np.ndim(g) == 0 else g


def path_gain(f, d):
    """Free-space path gain (c / (4*pi*f*d))^2."""
    _check_positive("f", f)
    _check_positive("d", d)
    amp = SPEED_OF_LIGHT / (4.0 * np.pi * np.asarray(f, dtype=float) * d)
    out = amp * amp
    return float(out) if out.ndim == 0 else out


def link_rss(f, ap, p, cfg: AntennaConfig):
    """Received PSD of a single AP-UE link: p * G(f, theta) * |h|^2."""
    _check_positive("p", p)
    return p * antenna_gain(f, ap.angle, cfg) * path_gain(f, ap.distance)


def dbm_per_hz_to_w_per_hz(x_dbm_hz):
    """Convert a PSD given in dBm/Hz to linear W/Hz."""
    return 10.0 ** ((np.asarray(x_dbm_hz, dtype=float) - 30.0) / 10.0)


def w_per_hz_to_dbm_per_hz(x):
    """Convert a linear PSD in W/Hz to dBm/Hz."""
    return 10.0 * np.log10(np.asarray(x, dtype=float)) + 30.0
