"""Durbin-Levinson recursion and the normal-equations solver."""

import functools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import predictorlab as pl
from predictorlab import DegeneracyError

from conftest import brute_phi, farima_ar1_gamma_oracle, farima_gamma_oracle


class TestDurbinLevinson:
    @pytest.mark.parametrize("r", [-0.9, -0.5, 0.3, 0.5, 0.9])
    @pytest.mark.parametrize("n", [1, 4, 16, 64])
    def test_ar1_exact(self, r, n):
        gamma = pl.autocov(pl.Ar1(r), n)
        table = pl.durbin_levinson(gamma, n)[-1]
        assert abs(table.coefficients[0] - r) < 1e-12
        if n > 1:
            assert np.max(np.abs(table.coefficients[1:])) < 1e-12
        # after order 1 the innovation variance is the unit driving noise
        assert abs(table.sigma2 - 1.0) < 1e-12

    def test_against_dense_solve(self):
        gamma = farima_gamma_oracle(0.3, 64)
        table = pl.durbin_levinson(gamma, 64)[-1]
        np.testing.assert_allclose(table.coefficients, brute_phi(gamma, 64),
                                   atol=1e-10)

    def test_reflection_coefficients_closed_form(self):
        # fractional noise: the order-k reflection coefficient is d/(k-d)
        d = 0.3
        tables = pl.durbin_levinson(farima_gamma_oracle(d, 64), 64)
        refl = np.array([t.coefficients[-1] for t in tables])
        k = np.arange(1, 65, dtype=float)
        np.testing.assert_allclose(refl, d / (k - d), rtol=1e-10)

    def test_sigma2_monotone_decreasing(self):
        tables = pl.durbin_levinson(farima_gamma_oracle(0.3, 32), 32)
        s = np.array([t.sigma2 for t in tables])
        assert np.all(np.diff(s) < 0.0)
        assert np.all(s > 0.0)

    def test_all_orders_returned(self):
        tables = pl.durbin_levinson(farima_gamma_oracle(0.2, 8), 8)
        assert [t.n for t in tables] == list(range(1, 9))
        for t in tables:
            assert len(t.coefficients) == t.n
            assert t.source is pl.PredictorSource.LEVINSON

    def test_degenerate_collapse(self):
        # a perfectly predictable sequence collapses the innovation variance
        with pytest.raises(DegeneracyError) as err:
            pl.durbin_levinson(np.array([1.0, 1.0, 1.0]), 2)
        assert err.value.order == 1

    def test_input_validation(self):
        gamma = farima_gamma_oracle(0.3, 8)
        with pytest.raises(ValueError):
            pl.durbin_levinson(gamma, 0)
        with pytest.raises(ValueError):
            pl.durbin_levinson(gamma, 9)


class TestMultistepNormalSolve:
    def test_m0_equals_levinson(self):
        gamma = farima_gamma_oracle(0.3, 32)
        lev = pl.durbin_levinson(gamma, 32)[-1]
        direct = pl.multistep_normal_solve(gamma, 32, 0)
        # one recursion serves both, so m = 0 is the same arithmetic
        np.testing.assert_array_equal(direct.coefficients, lev.coefficients)
        assert direct.sigma2 == lev.sigma2

    def test_ar1_multistep_closed_form(self):
        gamma = pl.autocov(pl.Ar1(0.5), 6)
        table = pl.multistep_normal_solve(gamma, 4, 2)
        np.testing.assert_allclose(table.coefficients, [0.125, 0.0, 0.0, 0.0],
                                   atol=1e-12)

    @pytest.mark.parametrize("gamma, n, m, atol", [
        *((farima_gamma_oracle(0.25, 40), 32, m, 1e-11) for m in (1, 2, 5)),
        # long memory near d = 1/2 with an AR(1) factor of either sign
        *((farima_ar1_gamma_oracle(0.45, ar, 515), 512, m, 1e-13)
          for ar in (0.6, -0.6) for m in (1, 3)),
    ], ids=["1", "2", "5", "d0.45-ar0.6-m1", "d0.45-ar0.6-m3",
            "d0.45-ar-0.6-m1", "d0.45-ar-0.6-m3"])
    def test_against_dense_solve(self, gamma, n, m, atol):
        table = pl.multistep_normal_solve(gamma, n, m)
        np.testing.assert_allclose(table.coefficients, brute_phi(gamma, n, m),
                                   rtol=0, atol=atol)
        assert table.horizon == m
        assert table.source is pl.PredictorSource.NORMAL_EQUATIONS

    def test_degenerate_collapse_names_order(self):
        # gamma = 1 everywhere: the innovation variance collapses at order 1,
        # which the order-2 two-step solve needs
        with pytest.raises(DegeneracyError) as err:
            pl.multistep_normal_solve(np.array([1.0, 1.0, 1.0, 1.0]), 2, 1)
        assert err.value.order == 1

    def test_gamma_too_short(self):
        with pytest.raises(ValueError):
            pl.multistep_normal_solve(farima_gamma_oracle(0.3, 8), 8, 1)


#: models of the dense-solve comparison, with gamma(0..1029) computed once
_DENSE_MODELS = {
    "ar0.9": pl.Ar1(0.9),
    "ar-0.9": pl.Ar1(-0.9),
    "fn0.45": pl.Farima(0.45),
    "fn0.45-ar0.6": pl.Farima(0.45, ar_poly=(1.0, -0.6)),
    "fn0.45-ar-0.6": pl.Farima(0.45, ar_poly=(1.0, 0.6)),
}


@functools.cache
def _dense_gamma(name):
    return pl.autocov(_DENSE_MODELS[name], 1024 + 5).values


class TestMultistepAgainstDenseSolve:
    """The two-row recursion solves the multistep normal equations, needs
    only Gamma_n to be nonsingular, and holds O(n) memory whatever m is."""

    @pytest.mark.parametrize("name", list(_DENSE_MODELS))
    @pytest.mark.parametrize("n", [1, 2, 64, 1024])
    @pytest.mark.parametrize("m", [1, 2, 3, 5])
    def test_against_dense_solve(self, name, n, m):
        gamma = _dense_gamma(name)
        table = pl.multistep_normal_solve(gamma, n, m)
        np.testing.assert_allclose(table.coefficients, brute_phi(gamma, n, m),
                                   rtol=0, atol=1e-13)

    def test_needs_only_gamma_n_nonsingular(self):
        # cos(0.7 k) is the autocovariance of a random-phase sinusoid, a rank-2
        # process: Gamma_2 is nonsingular, and sigma^2 collapses at order 2
        g = np.cos(0.7 * np.arange(6))
        for n, m, expected in ((2, 1, [1.3399343, -1.5296844]), (1, 2, [-0.5048461])):
            table = pl.multistep_normal_solve(g, n, m)
            np.testing.assert_allclose(table.coefficients, expected, rtol=0, atol=1e-7)
            np.testing.assert_allclose(table.coefficients, brute_phi(g, n, m),
                                       rtol=0, atol=1e-13)
        # where sigma_2^2 itself is returned, the floor applies
        for call in (lambda: pl.multistep_normal_solve(g, 2, 0),
                     lambda: pl.durbin_levinson(g, 2)):
            with pytest.raises(DegeneracyError) as err:
                call()
            assert err.value.order == 2

    def test_nan_residual_refused(self):
        gamma = farima_gamma_oracle(0.3, 8)
        gamma[3] = np.nan
        with pytest.raises(DegeneracyError):
            pl.multistep_normal_solve(gamma, 4, 1)

    def test_long_horizon(self):
        # the recursion runs to order n whatever m is: a horizon of 10^6
        # from eight past values is a dense 8 x 8 solve's answer
        m = 10 ** 6
        gamma = pl.autocov(pl.Farima(0.3), 8 + m).values
        table = pl.multistep_normal_solve(gamma, 8, m)
        np.testing.assert_allclose(table.coefficients, brute_phi(gamma, 8, m),
                                   rtol=1e-10, atol=0)


@settings(deadline=None, max_examples=30)
@given(st.floats(min_value=1e-6, max_value=1e6),
       st.floats(min_value=0.01, max_value=0.45))
def test_scale_invariance(lam, d):
    # predictor coefficients are invariant under gamma -> lam * gamma
    gamma = farima_gamma_oracle(d, 16)
    base = pl.durbin_levinson(gamma, 16)[-1]
    scaled = pl.durbin_levinson(lam * gamma, 16)[-1]
    np.testing.assert_allclose(scaled.coefficients, base.coefficients,
                               rtol=1e-12, atol=1e-14)
    assert abs(scaled.sigma2 - lam * base.sigma2) <= 1e-12 * lam * base.sigma2
