import numpy as np
import pytest

from cfthz import phy
from cfthz.phy import AntennaConfig
from cfthz.selection import AccessPoint

C = phy.SPEED_OF_LIGHT

# |xi * L * sinc(z)| at atten=130, L=0.09, f=150 GHz, theta=45 deg,
# f_co=100 GHz; frozen from a 40-digit mpmath evaluation.
GAIN_REGRESSION = 1.9614581640592072


def default_antenna(f_co=100e9, **kw):
    return AntennaConfig(f_co=f_co, **kw)


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
        assert phy.wavenumber(C / (2 * np.pi)) == pytest.approx(1.0)

    def test_100ghz(self):
        assert phy.wavenumber(100e9) == pytest.approx(2094.3951023931953)

    def test_linearity(self):
        assert phy.wavenumber(2 * 137e9) == pytest.approx(2 * phy.wavenumber(137e9))


class TestPhaseConstant:
    def test_zero_at_cutoff(self):
        assert phy.phase_constant(100e9, 100e9) == 0.0

    def test_sqrt2_point(self):
        f = np.sqrt(2) * 100e9
        assert phy.phase_constant(f, 100e9) == pytest.approx(
            phy.wavenumber(f) / np.sqrt(2)
        )

    def test_200ghz_value(self):
        # k0 * sqrt(3)/2, independent calculator value
        assert phy.phase_constant(200e9, 100e9) == pytest.approx(3627.5987284684357)

    def test_below_cutoff_raises(self):
        with pytest.raises(phy.BelowCutoffError):
            phy.phase_constant(99e9, 100e9)

    def test_monotone_and_bounded_by_wavenumber(self):
        f = np.linspace(100e9, 300e9, 2001)
        beta = phy.phase_constant(f, 100e9)
        assert np.all(np.diff(beta) > 0)
        assert np.all(beta[1:] < phy.wavenumber(f[1:]))


class TestComplexSinc:
    def test_zero_limit(self):
        assert phy.complex_sinc(0.0) == 1.0

    def test_continuity_near_zero(self):
        for z in [1e-9, 1e-8 * (1 + 1j), -1e-8j]:
            assert abs(phy.complex_sinc(z) - 1.0) < 1e-6

    def test_matches_direct_formula_away_from_zero(self):
        z = 0.3 - 2.1j
        assert phy.complex_sinc(z) == pytest.approx(np.sin(z) / z)

    @staticmethod
    def whole_array_sinc(z):
        """Reference form: both branches over every entry, then a select."""
        z = np.asarray(z, dtype=complex)
        small = np.abs(z) < 1e-4
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
            got = phy.complex_sinc(arr)
            assert got.shape == arr.shape
            assert got.tobytes() == self.whole_array_sinc(arr).tobytes()

    @pytest.mark.parametrize("z", [0.0, 0j, 3e-5 + 2e-5j, 1e-4, 0.3 - 2.1j, 2.0])
    def test_scalar_in_python_complex_out(self, z):
        got = phy.complex_sinc(z)
        assert type(got) is complex
        assert got == self.whole_array_sinc(z)


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

    def test_power_exponent_squares(self):
        cfg1 = default_antenna(gain_exponent=1)
        cfg2 = default_antenna(gain_exponent=2)
        g1 = phy.antenna_gain(170e9, 0.9, cfg1)
        g2 = phy.antenna_gain(170e9, 0.9, cfg2)
        assert g2 == pytest.approx(g1**2)

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
        assert phy.path_gain(100e9, 20.0) == pytest.approx(phy.path_gain(100e9, 10.0) / 4)

    def test_inverse_square_frequency(self):
        assert phy.path_gain(200e9, 10.0) == pytest.approx(phy.path_gain(100e9, 10.0) / 4)

    def test_value(self):
        assert phy.path_gain(100e9, 10.0) == pytest.approx(5.699316579881501e-10)

    def test_zero_distance_rejected(self):
        with pytest.raises(ValueError):
            phy.path_gain(100e9, 0.0)


class TestLinkRss:
    def test_linearity_in_psd(self):
        cfg = default_antenna()
        ap = AccessPoint(0, 12.0, 0.8)
        assert phy.link_rss(150e9, ap, 2e-11, cfg) == pytest.approx(
            2 * phy.link_rss(150e9, ap, 1e-11, cfg)
        )

    def test_product_of_audited_factors(self):
        cfg = default_antenna()
        ap = AccessPoint(0, 10.0, np.pi / 4)
        p = 1.0 / 16e9  # 1 W over 16 GHz
        expected = p * GAIN_REGRESSION * phy.path_gain(150e9, 10.0)
        assert phy.link_rss(150e9, ap, p, cfg) == pytest.approx(expected)

    def test_nonnegative(self):
        cfg = default_antenna()
        ap = AccessPoint(0, 30.0, 1.2)
        f = np.linspace(100e9, 300e9, 101)
        assert np.all(phy.link_rss(f, ap, 1e-11, cfg) >= 0)


class TestDbConversions:
    def test_gamma_th_table_value(self):
        assert phy.dbm_per_hz_to_w_per_hz(-174.5) == pytest.approx(3.548133892335755e-21)

    def test_round_trip(self):
        x = 2.7e-19
        assert phy.dbm_per_hz_to_w_per_hz(phy.w_per_hz_to_dbm_per_hz(x)) == pytest.approx(x)


def test_default_c_is_round_3e8():
    assert phy.SPEED_OF_LIGHT == 3.0e8
