"""Growth-side scalar estimates: curvature melting shift, diffusion length,
and the gravitational scale of substrate height steps."""


import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from neontrap import (diffusion_length, gibbs_thomson_coefficient, gibbs_thomson_shift,
                      gravity_potential_difference)


class TestGibbsThomson:
    def test_coefficient_value(self):
        # 2 * 4.36e-3 * 13.98e-6 * 24.56 / 328 m*K -> nm*K
        expected = 2.0 * 4.36e-3 * 13.98e-6 * 24.56 / 328.0 * 1e9
        assert gibbs_thomson_coefficient() == pytest.approx(expected, rel=1e-12)
        assert gibbs_thomson_coefficient() == pytest.approx(9.13, abs=0.05)

    def test_shift_at_ten_nanometres(self):
        assert gibbs_thomson_shift(10.0) == pytest.approx(-0.913, abs=0.005)
        assert gibbs_thomson_shift(-10.0) == pytest.approx(0.913, abs=0.005)

    @settings(max_examples=40, deadline=None)
    @given(r=st.floats(0.5, 1e4))
    def test_odd_in_curvature(self, r):
        assert gibbs_thomson_shift(-r) == -gibbs_thomson_shift(r)

    def test_zero_curvature_rejected(self):
        with pytest.raises(ValueError):
            gibbs_thomson_shift(0.0)


class TestDiffusionLength:
    def test_hundred_nanometres_at_ten_microseconds(self):
        # sqrt(1e-3 mm^2/s * 10 us) = 100 nm
        assert diffusion_length(10e-6) == pytest.approx(100.0, rel=1e-12)

    def test_square_root_scaling(self):
        t = 3.7e-6
        assert diffusion_length(4.0 * t) \
            == pytest.approx(2.0 * diffusion_length(t), rel=1e-12)

    def test_zero_time(self):
        assert diffusion_length(0.0) == 0.0

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            diffusion_length(-1e-6)


class TestGravity:
    def test_25_nm_step(self):
        # m_Ne g dh = 20.18 u * 9.81 m/s^2 * 25 nm, in meV
        expected = 20.18 * 1.66053906660e-27 * 9.81 * 25e-9 / 1.602176634e-19 * 1e3
        got = gravity_potential_difference(25.0)
        assert got == pytest.approx(expected, rel=1e-6)
        assert got == pytest.approx(5.13e-11, rel=0.05)

    @settings(max_examples=40, deadline=None)
    @given(h=st.floats(0.0, 1e4), s=st.floats(0.5, 4.0))
    def test_linear_in_height(self, h, s):
        v1 = gravity_potential_difference(h)
        v2 = gravity_potential_difference(s * h)
        assert v2 == pytest.approx(s * v1, rel=1e-12, abs=1e-300)

    def test_negative_height_rejected(self):
        with pytest.raises(ValueError):
            gravity_potential_difference(-1.0)

