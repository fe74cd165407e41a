"""Coefficient expansions, autocovariances, and the infinite predictor."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import signal
from scipy.special import gamma as Gamma

import predictorlab as pl
from predictorlab import DegeneracyError, TruncationError
from predictorlab.coeffs import (CoeffKind, _convolve_window, _expansion_cached,
                                 _next_fast_len)

from conftest import (any_model, farima_a_oracle, farima_ar1_gamma_oracle,
                      farima_c_oracle, farima_gamma_oracle, series_by_cauchy)


class TestExpansions:
    @pytest.mark.parametrize("d", [0.1, 0.3, 0.45])
    def test_farima_ma_recurrence(self, d):
        c = pl.expand_ma(pl.Farima(d), 200).values
        np.testing.assert_allclose(c, farima_c_oracle(d, 200), rtol=1e-14)

    @pytest.mark.parametrize("d", [0.1, 0.3, 0.45])
    def test_farima_ar_recurrence(self, d):
        a = pl.expand_ar(pl.Farima(d), 200).values
        np.testing.assert_allclose(a, farima_a_oracle(d, 200), rtol=1e-14)

    def test_farima_with_arma_factor_cauchy_oracle(self):
        m = pl.Farima(0.3, ar_poly=(1.0, -0.5), ma_poly=(1.0, 0.4))

        def h(z):
            return (1.0 - z) ** -0.3 * (1.0 + 0.4 * z) / (1.0 - 0.5 * z)
        c = pl.expand_ma(m, 40).values
        np.testing.assert_allclose(c, series_by_cauchy(h, 40), atol=1e-11)
        a = pl.expand_ar(m, 40).values
        np.testing.assert_allclose(a, series_by_cauchy(lambda z: -1.0 / h(z), 40),
                                   atol=1e-11)

    def test_power_of_two_index_cached_unrounded(self):
        # c_0..c_{2^20} is 2^20 + 1 entries; it must not be cached as 2^21
        model = pl.Farima(0.31)
        _expansion_cached.cache_clear()
        pl.expand_ma(model, 1 << 20)
        _expansion_cached(model, (1 << 20) + 1, CoeffKind.MA)
        info = _expansion_cached.cache_info()
        assert (info.misses, info.hits) == (1, 1)

    @pytest.mark.parametrize("model", [
        pl.Farima(0.3), pl.Farima(0.45), pl.Ar1(0.7),
        # factored models: one recurrence at every length
        pl.Farima(0.3, ar_poly=(1.0, -0.5)),
        pl.Farima(0.45, ar_poly=(1.0, -0.5), ma_poly=(1.0, 0.4)),
        pl.Farima(0.0, ma_poly=(1.0, 0.9)),
    ])
    @pytest.mark.parametrize("kind", list(CoeffKind))
    def test_prefix_independent_of_cached_length(self, model, kind):
        long = _expansion_cached(model, 1 << 18, kind)
        # lengths on both sides of 4096
        for short_len in (17, (1 << 12) - 1, (1 << 12) + 1):
            short = _expansion_cached(model, short_len, kind)
            np.testing.assert_array_equal(long[:short_len], short)

    def test_ar1_closed_forms(self):
        c = pl.expand_ma(pl.Ar1(0.5), 10).values
        np.testing.assert_array_equal(c, 0.5 ** np.arange(11))
        a = pl.expand_ar(pl.Ar1(0.5), 10).values
        expected = np.zeros(11)
        expected[0], expected[1] = -1.0, 0.5
        np.testing.assert_array_equal(a, expected)

    def test_explicit_model_padding(self):
        m = pl.ExplicitModel(c=(2.0, 1.0), a=(-0.5, 0.25, -0.125))
        c = pl.expand_ma(m, 5).values
        np.testing.assert_array_equal(c, [2.0, 1.0, 0.0, 0.0, 0.0, 0.0])

    def test_ma_head_positive_enforced(self):
        seq = pl.expand_ma(pl.Farima(0.3), 5)
        assert seq.kind is pl.CoeffKind.MA
        assert seq[0] == 1.0
        assert seq.truncation_length == 5

    def test_negative_length_rejected(self):
        with pytest.raises(ValueError):
            pl.expand_ma(pl.Farima(0.3), -1)

    def test_decay_normalization_pair(self):
        # c_n n^{1-d} -> ell and a_n n^{1+d} pi/(d sin(pi d)) -> 1/ell, where
        # ell = 1/Gamma(d) for the plain fractional model
        d = 0.3
        m = pl.Farima(d)
        n = 1 << 16
        c = pl.expand_ma(m, n).values
        a = pl.expand_ar(m, n).values
        ell = 1.0 / Gamma(d)
        c_side = c[n] * n ** (1.0 - d)
        a_side = a[n] * n ** (1.0 + d) * np.pi / (d * np.sin(np.pi * d))
        assert abs(c_side - ell) / ell < 1e-3
        assert abs(a_side - 1.0 / ell) * ell < 1e-3
        assert abs(c_side * a_side - 1.0) < 1e-3


def assert_exact_autocov(got, ref):
    """got within 1e-13 gamma(0) of ref, and its bound covers its error."""
    err = np.max(np.abs(got.values - ref))
    assert err <= 1e-13 * ref[0]
    assert got.tail_estimate >= err


class TestAutocov:
    @pytest.mark.parametrize("N", [128, 8192])
    @pytest.mark.parametrize("d", [0.05, 0.1, 0.25, 0.3, 0.4, 0.45])
    def test_farima_gamma_ratio_oracle(self, d, N):
        assert_exact_autocov(pl.autocov(pl.Farima(d), N), farima_gamma_oracle(d, N))

    @pytest.mark.parametrize("ar", [0.6, -0.6])
    @pytest.mark.parametrize("d", [0.2, 0.45])
    def test_ar1_factor_closed_form(self, d, ar):
        got = pl.autocov(pl.Farima(d, ar_poly=(1.0, -ar)), 512)
        assert_exact_autocov(got, farima_ar1_gamma_oracle(d, ar, 512))

    def test_undecayed_factor_raises(self):
        # 1/(1 - 0.999999 z) is still of order one at the 2^20 cap
        with pytest.raises(TruncationError):
            pl.autocov(pl.Farima(0.3, ar_poly=(1.0, -0.999999)), 4)

    def test_ar1_closed_form(self):
        r = 0.5
        got = pl.autocov(pl.Ar1(r), 10).values
        expected = r ** np.arange(11) / (1.0 - r * r)
        np.testing.assert_allclose(got, expected, rtol=1e-12)

    def test_white_noise(self):
        got = pl.autocov(pl.Farima(0.0), 4).values
        np.testing.assert_allclose(got, [1.0, 0.0, 0.0, 0.0, 0.0], atol=1e-15)

    def test_degenerate_sequences_rejected(self):
        with pytest.raises(DegeneracyError):
            pl.AutocovSeq(np.array([0.0, 0.0]))
        with pytest.raises(DegeneracyError):
            pl.AutocovSeq(np.array([1.0, 2.0]))
        with pytest.raises(DegeneracyError):
            pl.AutocovSeq(np.array([1.0, 1.0, 1.0]))

    @pytest.mark.parametrize("model", [
        pl.Farima(0.0, ma_poly=pl.RealPolynomial((1.0, 0.9))),
    ], ids=["short"])
    def test_matches_full_length_convolution(self, model):
        # reference: the full-length scipy convolution sliced to the lags
        N, M = 300, 1 << 12
        c = pl.expand_ma(model, M).values
        ref = signal.fftconvolve(c, c[::-1])[M:M + N + 1]
        got = pl.autocov(model, N).values
        assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))


class TestInfinitePredictor:
    def test_phi_is_scaled_ar(self):
        m = pl.Farima(0.3)
        c = pl.expand_ma(m, 0)
        a = pl.expand_ar(m, 50)
        phi = pl.infinite_predictor(c, a, 50)
        np.testing.assert_array_equal(phi, c[0] * a.values[1:])

    def test_ar1_phi(self):
        phi = pl.phi_for_model(pl.Ar1(0.5), 5)
        np.testing.assert_array_equal(phi, [0.5, 0.0, 0.0, 0.0, 0.0])

    def test_short_ar_sequence_rejected(self):
        m = pl.Farima(0.3)
        with pytest.raises(ValueError):
            pl.infinite_predictor(pl.expand_ma(m, 0), pl.expand_ar(m, 5), 10)

    def test_tail_sum_against_direct_summation(self):
        d = 0.3
        N = 1 << 20
        phi = pl.phi_for_model(pl.Farima(d), N)
        # restore the analytic remainder beyond N onto the direct sum as well
        direct = np.sum(np.abs(phi[100:])) + abs(phi[-1]) * (N / d - 0.5)
        got = pl.tail_sum_phi(phi[:1 << 17], 100, d)
        assert abs(got - direct) / direct < 5e-3

    @pytest.mark.parametrize("d", [0.05, 0.3, 0.45])
    def test_tail_sum_against_gamma_ratio(self, d):
        # fractional noise's tail sum_{k>n} phi_k is Gamma(n+1-d) /
        # (Gamma(1-d) Gamma(n+1)), the product of (k - d)/k over k <= n
        phi = pl.phi_for_model(pl.Farima(d), 1 << 17)
        k = np.arange(1, 4097)
        ratio = np.cumprod((k - d) / k)
        for n in (16, 256, 4096):
            assert pl.tail_sum_phi(phi, n, d) == pytest.approx(ratio[n - 1], rel=1e-12, abs=0)

    def test_tail_sum_decay_shape(self):
        # tail(n) ~ C n^{-d}: check the log-log slope over a decade
        d = 0.3
        phi = pl.phi_for_model(pl.Farima(d), 1 << 17)
        t100 = pl.tail_sum_phi(phi, 100, d)
        t1000 = pl.tail_sum_phi(phi, 1000, d)
        slope = np.log(t1000 / t100) / np.log(10.0)
        assert abs(slope + d) < 0.02

    def test_tail_sum_short_memory_exact(self):
        phi = np.array([0.5, 0.25, 0.125])
        assert pl.tail_sum_phi(phi, 1) == pytest.approx(0.375)


@settings(deadline=None, max_examples=40)
@given(any_model())
def test_convolution_identity(model):
    # c * a must reproduce the defining inverse-series identity -delta_0;
    # an explicitly given finite pair carries it only on its common range
    c = pl.expand_ma(model, 64).values
    a = pl.expand_ar(model, 64).values
    conv = np.convolve(c, a)[:65]
    if isinstance(model, pl.ExplicitModel):
        n_check = min(len(model.c), len(model.a))
    else:
        n_check = 65
    expected = np.zeros(n_check)
    expected[0] = -1.0
    np.testing.assert_allclose(conv[:n_check], expected, atol=1e-10)


@st.composite
def _windows(draw):
    """(len_x, len_y, lo, count) with the window inside the linear convolution."""
    len_x = draw(st.integers(min_value=1, max_value=300))
    len_y = draw(st.integers(min_value=1, max_value=300))
    total = len_x + len_y - 1
    lo = draw(st.integers(min_value=0, max_value=total - 1))
    count = draw(st.integers(min_value=1, max_value=total - lo))
    return len_x, len_y, lo, count


@settings(deadline=None, max_examples=200)
@given(_windows(), st.integers(min_value=0, max_value=2 ** 32 - 1))
@example((1, 1, 0, 1), 0)      # len(x) = 1, lo = 0, count = 1
@example((1, 40, 0, 40), 1)    # len(x) = 1, the whole convolution
@example((37, 5, 0, 1), 2)     # lo = 0, count = 1
@example((37, 5, 40, 1), 3)    # count = 1 at the last entry
@example((64, 64, 63, 64), 4)  # the Hankel kernel window, lo = V - 1
def test_convolve_window_matches_direct(window, seed):
    len_x, len_y, lo, count = window
    rng = np.random.default_rng(seed)
    x, y = rng.uniform(-1.0, 1.0, len_x), rng.uniform(-1.0, 1.0, len_y)
    got = _convolve_window(x, y, lo, count)
    assert got.shape == (count,)
    np.testing.assert_allclose(got, np.convolve(x, y)[lo:lo + count], rtol=0, atol=1e-12)


def test_next_fast_len_matches_scipy():
    from scipy.fft import next_fast_len
    for n in [*range(1, 5000), 2 ** 20 + 1, 3 * 2 ** 21 - 7, 10 ** 7 + 3]:
        assert _next_fast_len(n) == next_fast_len(n, real=True)
