import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cfthz import phy
from cfthz.phy import AntennaConfig
from cfthz.selection import Drop
from cfthz.sim import ScenarioConfig
from oracles import link_rss

C = phy.SPEED_OF_LIGHT
EPS = np.finfo(float).eps

# The complex sinc switches to a Taylor expansion below this |z|.
SINC_TAYLOR_CUTOFF = 1e-4

# |xi * L * sinc(z)| at atten=130, L=0.09, f=150 GHz, theta=45 deg,
# f_co=100 GHz; frozen from a 40-digit mpmath evaluation.
GAIN_REGRESSION = 1.9614581640592072


def default_antenna(f_co=100e9, **kw):
    return AntennaConfig(f_co=f_co, **kw)


def complex_sinc(z):
    """Unnormalized sinc sin(z)/z for complex z, with sinc(0) = 1: the
    complex-arithmetic reference for the library's real-form gain.

    Arguments below |z| = 1e-4 use the 3-term Taylor series to avoid
    cancellation.
    """
    z_in = np.asarray(z, dtype=complex)
    z = np.atleast_1d(z_in)
    small = np.abs(z) < SINC_TAYLOR_CUTOFF
    # avoid 0/0 in the vectorized branch; the small entries are overwritten
    safe = np.where(small, 1.0, z)
    out = np.sin(safe)
    out /= safe
    if small.any():
        z2 = z[small] * z[small]
        out[small] = 1.0 - z2 / 6.0 + z2 * z2 / 120.0
    return complex(out[0]) if z_in.ndim == 0 else out


def oracle_link_rss(f, d, theta, p, cfg):
    """p * |xi * L * sinc(z)| * (c / (4*pi*f*d))^2 in complex arithmetic,
    z = (-j*atten - k0*cos(theta) + beta) * L/2, with the guided phase
    constant beta = k0 * sqrt(1 - (f_co/f)^2)."""
    f = np.asarray(f, dtype=float)
    k0 = 2.0 * np.pi * f / C
    ratio = cfg.f_co / f
    beta = k0 * np.sqrt(np.maximum(0.0, 1.0 - ratio * ratio))
    z = (-1j * cfg.atten - k0 * np.cos(theta) + beta) * (cfg.aperture / 2.0)
    gain = np.abs(cfg.efficiency * cfg.aperture * complex_sinc(z))
    amp = C / (4.0 * np.pi * f * d)
    return p * gain * amp * amp


def wavenumber(f):
    """The free-space wavenumber k0(f) that `phy._guided` returns."""
    return phy._guided(f, 0.0)[0]


def phase_constant(f, f_co):
    """The guided phase constant beta(f) that `phy._guided` returns."""
    return phy._guided(f, f_co)[1]


def path_gain(f, d, theta=0.7):
    """The free-space factor (c / (4*pi*f*d))^2 of a `phy.link_psd` row:
    the row of an AP at (d, theta) over p times the antenna gain."""
    cfg, p = default_antenna(), 1e-11
    drop = Drop([d], [theta])
    (row,) = phy.link_psd([f], drop.distance, drop.angle, p, cfg)
    return float(row[0]) / (p * phy.antenna_gain(f, theta, cfg))


class TestPeakFrequency:
    def test_broadside(self):
        assert phy.peak_frequency(np.pi / 2, 100e9) == pytest.approx(100e9)

    def test_thirty_degrees(self):
        assert phy.peak_frequency(np.pi / 6, 100e9) == pytest.approx(200e9)

    def test_forty_five_degrees(self):
        assert phy.peak_frequency(np.pi / 4, 200e9) == pytest.approx(200e9 * np.sqrt(2))

    @pytest.mark.parametrize("theta", [0.0, -0.1, np.pi / 2 + 0.01])
    def test_domain(self, theta):
        with pytest.raises(ValueError):
            phy.peak_frequency(theta, 100e9)


class TestWavenumber:
    def test_definition_point(self):
        assert wavenumber(C / (2 * np.pi)) == pytest.approx(1.0)

    def test_100ghz(self):
        assert wavenumber(100e9) == pytest.approx(2094.3951023931953)

    def test_linearity(self):
        assert wavenumber(2 * 137e9) == pytest.approx(2 * wavenumber(137e9))


class TestPhaseConstant:
    def test_zero_at_cutoff(self):
        assert phase_constant(100e9, 100e9) == 0.0

    def test_sqrt2_point(self):
        f = np.sqrt(2) * 100e9
        assert phase_constant(f, 100e9) == pytest.approx(wavenumber(f) / np.sqrt(2))

    def test_200ghz_value(self):
        # k0 * sqrt(3)/2, independent calculator value
        assert phase_constant(200e9, 100e9) == pytest.approx(3627.5987284684357)

    def test_below_cutoff_raises(self):
        with pytest.raises(phy.BelowCutoffError):
            phase_constant(99e9, 100e9)

    def test_monotone_and_bounded_by_wavenumber(self):
        f = np.linspace(100e9, 300e9, 2001)
        beta = phase_constant(f, 100e9)
        assert np.all(np.diff(beta) > 0)
        assert np.all(beta[1:] < wavenumber(f[1:]))


class TestComplexSinc:
    def test_zero_limit(self):
        assert complex_sinc(0.0) == 1.0

    def test_continuity_near_zero(self):
        for z in [1e-9, 1e-8 * (1 + 1j), -1e-8j]:
            assert abs(complex_sinc(z) - 1.0) < 1e-6

    def test_matches_direct_formula_away_from_zero(self):
        z = 0.3 - 2.1j
        assert complex_sinc(z) == pytest.approx(np.sin(z) / z)

    @staticmethod
    def whole_array_sinc(z):
        """Reference form: both branches over every entry, then a select."""
        z = np.asarray(z, dtype=complex)
        small = np.abs(z) < SINC_TAYLOR_CUTOFF
        safe = np.where(small, 1.0, z)
        out = np.sin(safe) / safe
        z2 = z * z
        taylor = 1.0 - z2 / 6.0 + z2 * z2 / 120.0
        out = np.where(small, taylor, out)
        return complex(out) if out.ndim == 0 else out

    def test_bitwise_equal_to_whole_array_form(self):
        rng = np.random.default_rng(0)
        mag = 10.0 ** rng.uniform(-9, 1, 4000)
        z = mag * np.exp(1j * rng.uniform(0, 2 * np.pi, mag.size))
        z[::7] = mag[::7]  # real entries
        z[::11] = 0.0
        z[1::13] = 1e-4  # exactly at the cutoff: the direct branch
        z[2::13] = np.nextafter(1e-4, 0)
        for arr in (z, z.reshape(40, 100), z[np.abs(z) >= 1e-4], z[np.abs(z) < 1e-4]):
            got = complex_sinc(arr)
            assert got.shape == arr.shape
            assert got.tobytes() == self.whole_array_sinc(arr).tobytes()

    @pytest.mark.parametrize("z", [0.0, 0j, 3e-5 + 2e-5j, 1e-4, 0.3 - 2.1j, 2.0])
    def test_scalar_in_python_complex_out(self, z):
        got = complex_sinc(z)
        assert type(got) is complex
        assert got == self.whole_array_sinc(z)


class TestSincGain:
    """The real-form gain against the complex sinc it replaces."""

    @pytest.mark.parametrize("efficiency", [1, 0.8])
    def test_limit_at_zero_offset_without_attenuation(self, efficiency):
        cfg = default_antenna(atten=0.0, efficiency=efficiency)
        g = phy.sinc_gain(np.array([0.0, -0.0, 0.0]), cfg)
        assert g.tolist() == [efficiency * 0.09] * 3
        assert phy.sinc_gain(0.0, cfg).shape == ()

    @pytest.mark.parametrize("atten", [0.0, 130.0])
    def test_continuous_through_zero_offset(self, atten):
        cfg = default_antenna(atten=atten)
        at_zero = float(phy.sinc_gain(0.0, cfg))
        for x in (1e-9, -1e-7, 9.9e-5, 1.01e-4):
            assert abs(float(phy.sinc_gain(x, cfg)) - at_zero) < 1e-6 * at_zero

    @pytest.mark.parametrize("atten", [0.0, 1e-170, 13.0, 130.0])
    @pytest.mark.parametrize("efficiency", [1, 0.8])
    def test_matches_complex_sinc(self, atten, efficiency):
        cfg = default_antenna(atten=atten, efficiency=efficiency)
        rng = np.random.default_rng(3)
        x = np.concatenate([[0.0, 1e-12, -3e-5, 1e-4], rng.uniform(-300, 300, 2000),
                            np.pi * np.arange(1, 50) + 1e-3])
        z = x - 1j * atten * cfg.aperture / 2
        want = np.abs(cfg.efficiency * cfg.aperture * complex_sinc(z))
        got = phy.sinc_gain(x, cfg)
        assert np.all(np.abs(got - want) <= 8 * EPS * want)

    def test_keeps_shape_and_input(self):
        cfg = default_antenna()
        x = np.linspace(-5.0, 5.0, 12).reshape(3, 4)
        before = x.copy()
        assert phy.sinc_gain(x, cfg).shape == (3, 4)
        assert x.tobytes() == before.tobytes()


class TestLinkRssRows:
    SCENARIO = ScenarioConfig()

    @settings(max_examples=300, deadline=None)
    @given(
        theta=st.floats(1e-6, np.pi / 2, exclude_max=True),
        distance=st.floats(SCENARIO.d_min, SCENARIO.radius),
        f_band=st.floats(*SCENARIO.band),
        atten=st.one_of(st.just(0.0), st.just(130.0), st.floats(0.0, 500.0)),
    )
    @example(theta=np.pi / 6, distance=10.0, f_band=200e9, atten=0.0)
    def test_each_link_matches_complex_oracle(self, theta, distance, f_band, atten):
        # a band frequency, the cutoff, and the exact peak f_co/sin(theta)
        cfg = default_antenna(f_co=self.SCENARIO.antenna.f_co, atten=atten)
        f = np.array([f_band, cfg.f_co, phy.peak_frequency(theta, cfg.f_co)])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            (got,) = phy.link_psd(f, [distance], [theta], self.SCENARIO.p, cfg)
        want = oracle_link_rss(f, distance, theta, self.SCENARIO.p, cfg)
        assert np.all(np.abs(got - want) <= 8 * EPS * want), (got - want) / want / EPS

    def test_one_frequency_row_per_ap(self):
        cfg = default_antenna()
        aps = Drop(4.0 * np.arange(1, 5), 0.3 + 0.2 * np.arange(4))
        f = np.linspace(110e9, 290e9, 12).reshape(4, 3)
        rows = phy.link_psd(f, aps.distance, aps.angle, 1e-11, cfg)
        for d, theta, fi, row in zip(aps.distance, aps.angle, f, rows):
            assert row.tobytes() == link_rss(fi, d, theta, 1e-11, cfg).tobytes()

    def test_rows_are_independent_arrays(self):
        cfg = default_antenna()
        first, second = phy.link_psd(np.array([150e9, 200e9]), [5.0, 5.0], [0.5, 0.5], 1e-11, cfg)
        first[:] = 0.0
        assert np.all(second > 0)

    @pytest.mark.parametrize("f", [
        np.linspace(110e9, 290e9, 5),  # one row every AP shares
        np.array([[120e9], [180e9], [240e9]]),  # one frequency per AP
        np.linspace(110e9, 290e9, 15).reshape(3, 5),  # one row per AP
    ], ids=["shared-row", "per-ap-column", "per-ap-rows"])
    def test_f_broadcasts_against_a_column_of_aps(self, f):
        cfg = default_antenna()
        aps = Drop(4.0 * np.arange(1, 4), 0.3 + 0.2 * np.arange(3))
        got = phy.link_psd(f, aps.distance, aps.angle, 1e-11, cfg)
        assert got.shape == (3, f.shape[-1])
        for d, theta, fi, row in zip(aps.distance, aps.angle, np.broadcast_to(f, got.shape), got):
            assert row.tobytes() == link_rss(fi, d, theta, 1e-11, cfg).tobytes()

    @pytest.mark.parametrize("aps", [([5.0], [0.5]), ([], [])])
    def test_bad_input_rejected_when_called(self, aps):
        # also with no APs; NaN is not at or above the cutoff
        cfg = default_antenna()
        with pytest.raises(phy.BelowCutoffError):
            phy.link_psd(np.array([150e9, 99e9]), *aps, 1e-11, cfg)
        with pytest.raises(ValueError, match="p must be positive"):
            phy.link_psd(np.array([150e9]), *aps, 0.0, cfg)
        with pytest.raises(phy.BelowCutoffError):
            phy.link_psd(np.array([np.nan]), *aps, 1e-11, cfg)
        with pytest.raises(ValueError, match="1-D or 2-D"):
            phy.link_psd(np.ones((1, 1, 2)) * 150e9, *aps, 1e-11, cfg)


class TestAntennaGain:
    def test_peak_with_no_attenuation(self):
        # at f = f_co/sin(theta) and atten = 0, z = 0 and gain = xi * L
        cfg = default_antenna(atten=0.0)
        theta = np.pi / 6
        f = phy.peak_frequency(theta, cfg.f_co)
        assert phy.antenna_gain(f, theta, cfg) == pytest.approx(0.09)

    def test_efficiency_scales_linearly(self):
        cfg1 = default_antenna(efficiency=1.0)
        cfg2 = default_antenna(efficiency=0.5)
        g1 = phy.antenna_gain(150e9, 0.7, cfg1)
        g2 = phy.antenna_gain(150e9, 0.7, cfg2)
        assert g2 == pytest.approx(0.5 * g1)

    def test_frozen_regression_value(self):
        cfg = default_antenna()
        g = phy.antenna_gain(150e9, np.pi / 4, cfg)
        assert g == pytest.approx(GAIN_REGRESSION, rel=1e-12)

    def test_below_cutoff_raises(self):
        with pytest.raises(phy.BelowCutoffError):
            phy.antenna_gain(90e9, 0.5, default_antenna())

    @pytest.mark.parametrize("theta_deg", [30, 45, 60, 80])
    def test_peak_matches_closed_form_at_low_attenuation(self, theta_deg):
        # argmax over a fine grid stays within 1% of f_co/sin(theta)
        cfg = default_antenna(atten=13.0)
        theta = np.radians(theta_deg)
        f = np.arange(cfg.f_co, 300e9, 1e6)
        g = phy.antenna_gain(f, theta, cfg)
        f_peak = f[np.argmax(g)]
        assert abs(f_peak - phy.peak_frequency(theta, cfg.f_co)) < 0.01 * phy.peak_frequency(theta, cfg.f_co)

    def test_purity(self):
        cfg = default_antenna()
        a = phy.antenna_gain(201e9, 0.8, cfg)
        b = phy.antenna_gain(201e9, 0.8, cfg)
        assert a == b


class TestPathGain:
    def test_inverse_square_distance(self):
        assert path_gain(100e9, 20.0) == pytest.approx(path_gain(100e9, 10.0) / 4)

    def test_inverse_square_frequency(self):
        assert path_gain(200e9, 10.0) == pytest.approx(path_gain(100e9, 10.0) / 4)

    def test_value(self):
        assert path_gain(100e9, 10.0) == pytest.approx(5.699316579881501e-10)

    def test_zero_distance_rejected(self):
        with pytest.raises(ValueError):
            path_gain(100e9, 0.0)


class TestLinkRss:
    def test_linearity_in_psd(self):
        cfg = default_antenna()
        assert link_rss(150e9, 12.0, 0.8, 2e-11, cfg) == pytest.approx(
            2 * link_rss(150e9, 12.0, 0.8, 1e-11, cfg)
        )

    def test_product_of_audited_factors(self):
        cfg = default_antenna()
        p = 1.0 / 16e9  # 1 W over 16 GHz
        expected = p * GAIN_REGRESSION * (C / (4 * np.pi * 150e9 * 10.0)) ** 2
        assert link_rss(150e9, 10.0, np.pi / 4, p, cfg) == pytest.approx(expected)

    def test_nonnegative(self):
        cfg = default_antenna()
        f = np.linspace(100e9, 300e9, 101)
        assert np.all(link_rss(f, 30.0, 1.2, 1e-11, cfg) >= 0)


class TestDbConversions:
    def test_gamma_th_table_value(self):
        assert phy.dbm_per_hz_to_w_per_hz(-174.5) == pytest.approx(3.548133892335755e-21)

    def test_round_trip(self):
        x = 2.7e-19
        assert phy.dbm_per_hz_to_w_per_hz(phy.w_per_hz_to_dbm_per_hz(x)) == pytest.approx(x)


def test_default_c_is_round_3e8():
    assert phy.SPEED_OF_LIGHT == 3.0e8
