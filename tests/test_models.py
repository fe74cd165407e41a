"""Model construction, validation, and regime classification."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

import predictorlab as pl
from predictorlab import ModelValidationError

from conftest import any_model


class TestRealPolynomial:
    def test_trailing_zeros_trimmed(self):
        p = pl.RealPolynomial((1.0, 2.0, 0.0, 0.0))
        assert p.coefficients == (1.0, 2.0)
        assert p.degree == 1

    def test_zero_polynomial_rejected(self):
        with pytest.raises(ModelValidationError):
            pl.RealPolynomial((0.0,))

    def test_empty_rejected(self):
        with pytest.raises(ModelValidationError):
            pl.RealPolynomial(())

    def test_nonfinite_rejected(self):
        with pytest.raises(ModelValidationError):
            pl.RealPolynomial((1.0, np.inf))

    def test_roots(self):
        np.testing.assert_allclose(pl.RealPolynomial((1.0, -0.5)).roots(), [2.0])


class TestAr1:
    @pytest.mark.parametrize("r", [-0.9, -0.5, 0.0, 0.3, 0.99])
    def test_valid(self, r):
        assert pl.Ar1(r).r == r

    @pytest.mark.parametrize("r", [1.0, -1.0, 1.5, np.inf, np.nan])
    def test_invalid(self, r):
        with pytest.raises(ModelValidationError):
            pl.Ar1(r)

    def test_regime(self):
        assert pl.regime(pl.Ar1(0.5)) is pl.Regime.SHORT
        assert pl.memory_exponent(pl.Ar1(0.5)) == 0.0


class TestFarima:
    def test_plain_long_memory(self):
        m = pl.Farima(0.3)
        assert pl.regime(m) is pl.Regime.LONG
        assert pl.memory_exponent(m) == 0.3

    def test_d_zero_is_short(self):
        assert pl.regime(pl.Farima(0.0)) is pl.Regime.SHORT

    @pytest.mark.parametrize("d", [-0.1, 0.5, 0.7, np.nan])
    def test_bad_d(self, d):
        with pytest.raises(ModelValidationError):
            pl.Farima(d)

    def test_polys_from_tuples(self):
        m = pl.Farima(0.2, ar_poly=(1.0, -0.5), ma_poly=(1.0, 0.4))
        assert m.ar_poly.coefficients == (1.0, -0.5)
        assert m.ma_poly.coefficients == (1.0, 0.4)

    def test_unit_root_rejected(self):
        with pytest.raises(ModelValidationError):
            pl.Farima(0.2, ar_poly=(1.0, -1.0))

    def test_root_inside_disk_rejected(self):
        with pytest.raises(ModelValidationError):
            pl.Farima(0.2, ma_poly=(1.0, 2.0))

    def test_common_zero_rejected(self):
        with pytest.raises(ModelValidationError):
            pl.Farima(0.2, ar_poly=(1.0, 0.5), ma_poly=(1.0, 0.5))

    def test_negative_normalization_rejected(self):
        with pytest.raises(ModelValidationError):
            pl.Farima(0.2, ma_poly=(-1.0, 0.4))

    def test_hashable(self):
        assert hash(pl.Farima(0.3)) == hash(pl.Farima(0.3))


class TestExplicitModel:
    def test_valid_pair(self):
        m = pl.ExplicitModel(c=(2.0, 1.0), a=(-0.5, 0.25, -0.125))
        assert pl.regime(m) is pl.Regime.SHORT

    def test_nonpositive_head_rejected(self):
        with pytest.raises(ModelValidationError):
            pl.ExplicitModel(c=(-1.0,), a=(1.0,))

    def test_head_identity_enforced(self):
        with pytest.raises(ModelValidationError):
            pl.ExplicitModel(c=(2.0,), a=(-1.0,))

    def test_convolution_identity_enforced(self):
        with pytest.raises(ModelValidationError):
            pl.ExplicitModel(c=(1.0, 0.5), a=(-1.0, 0.9))

    def test_white_noise(self):
        m = pl.ExplicitModel(c=(1.0,), a=(-1.0,))
        assert pl.memory_exponent(m) == 0.0


@given(any_model())
def test_generated_models_classify(model):
    assert pl.regime(model) in (pl.Regime.SHORT, pl.Regime.LONG)
    d = pl.memory_exponent(model)
    assert 0.0 <= d < 0.5


@given(st.floats(min_value=0.0, max_value=0.45))
def test_farima_regime_matches_d(d):
    m = pl.Farima(d)
    assert (pl.regime(m) is pl.Regime.LONG) == (d > 0.0)
