"""Durbin-Levinson recursion and the normal-equations solver."""

import functools
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import predictorlab as pl
from predictorlab import DegeneracyError, levinson

from conftest import (brute_phi, farima_ar1_gamma_oracle, farima_gamma_oracle,
                      levinson_longdouble)


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
        # below CG_MIN_ORDER one recursion serves both, so m = 0 is the same
        # arithmetic
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


#: models of the dense-solve and long-double comparisons, with gamma computed once
_DENSE_MODELS = {
    "ar0.9": pl.Ar1(0.9),
    "ar-0.9": pl.Ar1(-0.9),
    "fn0.45": pl.Farima(0.45),
    "fn0.45-ar0.6": pl.Farima(0.45, ar_poly=(1.0, -0.6)),
    "fn0.45-ar-0.6": pl.Farima(0.45, ar_poly=(1.0, 0.6)),
}


@functools.cache
def _dense_gamma(name, n=1024):
    return pl.autocov(_DENSE_MODELS[name], n + 5).values


class TestMultistepAgainstDenseSolve:
    """The two-row recursion solves the multistep normal equations, needs
    only Gamma_n to be nonsingular, and holds O(n) memory whatever m is;
    from CG_MIN_ORDER up (here n = 1024) CG solves them."""

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


_LONG_DOUBLE_WIDER = np.finfo(np.longdouble).eps < np.finfo(np.float64).eps


class TestConjugateGradients:
    """From CG_MIN_ORDER up the normal equations are solved by preconditioned
    CG with a long-double refinement step; the recursion decides wherever CG
    fails or its answer does not pass the checks."""

    @pytest.mark.skipif(not _LONG_DOUBLE_WIDER,
                        reason="np.longdouble is float64 here: neither the refinement "
                               "nor the reference is more accurate than a float64 solve")
    @pytest.mark.parametrize("name", ["fn0.45", "fn0.45-ar0.6", "fn0.45-ar-0.6",
                                      "ar0.9", "ar-0.9"])
    @pytest.mark.parametrize("m", [0, 3])
    def test_against_long_double_recursion(self, name, m):
        gamma = _dense_gamma(name, 4096)
        table = pl.multistep_normal_solve(gamma, 4096, m)
        np.testing.assert_allclose(table.coefficients, levinson_longdouble(gamma, 4096, m),
                                   rtol=0, atol=1e-15)

    def test_sigma2_is_prediction_error(self):
        gamma = _dense_gamma("fn0.45")
        table = pl.multistep_normal_solve(gamma, 1024, 0)
        lev = pl.durbin_levinson(gamma, 1024)[-1]
        np.testing.assert_allclose(table.sigma2, lev.sigma2, rtol=1e-13)
        assert table.sigma2 == pytest.approx(
            gamma[0] - np.dot(table.coefficients, gamma[1:1025]), rel=1e-14)

    @pytest.mark.parametrize("m", [0, 1])
    @pytest.mark.parametrize("gamma, order", [
        (np.ones(levinson.CG_MIN_ORDER + 2), 1),
        # a random-phase sinusoid: Gamma_n has rank 2
        (np.cos(0.7 * np.arange(levinson.CG_MIN_ORDER + 2)), 2),
    ], ids=["ones", "cos"])
    def test_degenerate_names_recursion_order(self, gamma, order, m):
        # refused before any division by a zero eigenvalue of the preconditioner
        with warnings.catch_warnings(), pytest.raises(DegeneracyError) as err:
            warnings.simplefilter("error", RuntimeWarning)
            pl.multistep_normal_solve(gamma, levinson.CG_MIN_ORDER, m)
        assert err.value.order == order

    def test_breakdown_refused(self):
        # an indefinite operator: p^T A p < 0 at the first step
        assert levinson._pcg(lambda v: -v, lambda v: v, np.ones((1, 4)), 10) is None

    def test_sigma2_floor_applies(self):
        # gamma periodic with period n: Gamma_n is the identity, which CG solves
        # at once, but X_0 = X_{-n}, so sigma_n^2 = 0
        n = levinson.CG_MIN_ORDER
        gamma = np.zeros(n + 1)
        gamma[[0, n]] = 1.0
        with pytest.raises(DegeneracyError) as err:
            pl.multistep_normal_solve(gamma, n, 0)
        assert err.value.order == n

    def test_nan_refused(self):
        gamma = _dense_gamma("fn0.45").copy()
        gamma[3] = np.nan
        with pytest.raises(DegeneracyError):
            pl.multistep_normal_solve(gamma, 1024, 1)

    @pytest.mark.parametrize("m", [0, 2])
    def test_iteration_cap_falls_back(self, m):
        # MA(1) with a zero at 1.001 and n = 1024 needs about 70 iterations,
        # past the cap, so the recursion's table is returned as it is
        gamma = pl.autocov(pl.Farima(0, ma_poly=(1.0, 0.999)), 1024 + m).values
        table = pl.multistep_normal_solve(gamma, 1024, m)
        for x, sigma2 in levinson._levinson(gamma, 1024, m):
            pass
        np.testing.assert_array_equal(table.coefficients, x)
        assert table.sigma2 == (sigma2 if m == 0 else None)


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
