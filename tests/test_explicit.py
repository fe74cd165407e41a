"""Explicit-series machinery: beta, Hankel kernel, d_k/delta_k, predictors."""

import dataclasses
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st
from scipy import signal

import predictorlab as pl
from predictorlab import TruncationError, TruncationPolicy, explicit
from predictorlab.asymptotics import check_routes, fk0
from predictorlab.explicit import _HankelFFT

from conftest import (exact_phi, farima_a_oracle, farima_c_oracle, farima_gamma_oracle,
                      farima_models, hosking_phi)


class TestBeta:
    def test_ar1_finite_support_exact(self):
        beta = pl.beta_for_model(pl.Ar1(0.5), 10)
        expected = np.zeros(11)
        expected[0], expected[1] = -0.75, 0.5
        np.testing.assert_array_equal(beta.values, expected)
        assert beta.exact
        assert beta.tail_estimate == 0.0

    def test_white_noise(self):
        beta = pl.beta_for_model(pl.ExplicitModel(c=(1.0,), a=(-1.0,)), 5)
        expected = np.zeros(6)
        expected[0] = -1.0
        np.testing.assert_array_equal(beta.values, expected)

    def test_long_memory_asymptote(self):
        # n beta_n approaches sin(pi d)/pi; within 2% at n = 10^4
        d = 0.3
        beta = pl.beta_for_model(pl.Farima(d), 10 ** 4)
        target = np.sin(np.pi * d) / np.pi
        assert abs(10 ** 4 * beta[10 ** 4] - target) / target < 0.02

    def test_long_memory_eventual_positivity(self):
        beta = pl.beta_for_model(pl.Farima(0.3), 512)
        assert np.all(beta.values[1:] > 0.0)

    def test_against_direct_truncated_sum(self):
        d, M = 0.3, 1 << 21
        c = farima_c_oracle(d, M + 100)
        a = farima_a_oracle(d, M + 100)
        beta = pl.beta_for_model(pl.Farima(d), 100)
        for i in (0, 1, 5, 100):
            direct = float(np.dot(c[:M], a[i:i + M]))
            # the direct sum still misses ~1/M of tail; compare at that scale
            assert abs(beta[i] - direct) < 5e-7
        # the closed form leaves rounding alone
        assert 0.0 < beta.tail_estimate < 1e-14

    @pytest.mark.parametrize("model", [
        pl.Farima(0.3, ar_poly=(1, -0.5)),
        pl.Farima(0.25, ar_poly=(1, -0.5), ma_poly=(1, 0.4)),
        pl.Farima(0.4, ar_poly=(1, 0.6)),
        pl.Farima(0.3, ma_poly=(1, 0.9)),
    ], ids=["ar", "arma", "ar-d0.4", "ma"])
    def test_factored_against_direct_truncated_sum(self, model):
        # c and a through the ARMA recurrences applied to the binomial
        # oracles, a route independent of the kernel correlation
        M = 1 << 21
        ma, ar = model.ma_poly.coefficients, model.ar_poly.coefficients
        c = signal.lfilter(ma, ar, farima_c_oracle(model.d, M + 100))
        a = signal.lfilter(ar, ma, farima_a_oracle(model.d, M + 100))
        beta = pl.beta_for_model(model, 100)
        for i in (0, 1, 5, 100):
            direct = float(np.dot(c[:M], a[i:i + M]))
            assert abs(beta[i] - direct) < 5e-7
        # the factors are cut where they are dead, so rounding is what is left
        assert 0.0 < beta.tail_estimate < 1e-13

    def test_undecayed_factor_raises(self, monkeypatch):
        # s = 1/(1 + 0.9999999 z) is still of order one at the 2^20 cap
        model = pl.Farima(0.3, ma_poly=(1, 0.9999999))
        assert pl.beta_for_model(model, 16).tail_estimate > 1.0

        def no_ladder(*args):
            raise AssertionError("beta's share alone exceeds tol_tail; no run should start")
        monkeypatch.setattr("predictorlab.explicit._solve_run", no_ladder)
        with pytest.raises(TruncationError, match="ARMA factor has not decayed") as info:
            pl.finite_predictor_explicit(model, 4)
        assert "increase" not in str(info.value)

    @pytest.mark.parametrize("model", [
        # AR expansion decays like 0.9^n without underflowing: no exact support
        pl.Farima(0.0, ma_poly=pl.RealPolynomial((1.0, 0.9))),
    ], ids=["short-inexact"])
    def test_matches_full_length_convolution(self, model):
        # reference: scipy's "valid" correlation, padded to the full length
        L = 300
        beta = pl.beta_for_model(model, L)
        assert not beta.exact
        M = beta.inner_len
        c = pl.expand_ma(model, M).values
        a = pl.expand_ar(model, M + L).values
        ref = signal.fftconvolve(a, c[::-1], mode="valid")
        assert np.max(np.abs(beta.values - ref)) <= 1e-14 * np.max(np.abs(ref))


@settings(deadline=None, max_examples=10, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(model=farima_models(d_min=0.01, d_max=0.3),
       n=st.integers(min_value=1, max_value=16))
def test_factored_explicit_matches_levinson(model, n):
    # ARMA(1,1) x FARIMA: the kernel-correlated beta feeds the explicit route
    res = pl.finite_predictor_explicit(model, n)
    check_routes(res, pl.durbin_levinson(pl.autocov(model, n), n)[-1].coefficients)


class TestHankelApply:
    def test_unit_vector_extracts_column(self):
        beta = pl.beta_for_model(pl.Farima(0.3), 200)
        V = 32
        x = np.zeros(V)
        x[0] = 1.0
        y = pl.hankel_apply(beta, 10, x)
        np.testing.assert_allclose(y, beta.values[10:10 + V], rtol=1e-12)

    def test_ar1_annihilates_beyond_support(self):
        beta = pl.beta_for_model(pl.Ar1(0.5), 100)
        y = pl.hankel_apply(beta, 2, np.random.default_rng(0).normal(size=32))
        np.testing.assert_array_equal(y, np.zeros(32))

    @pytest.mark.parametrize("V", [16, 64, 256])
    def test_fast_equals_direct(self, V):
        beta = pl.beta_for_model(pl.Farima(0.35), 4 * V + 64)
        x = np.random.default_rng(V).normal(size=V)
        fast = pl.hankel_apply(beta, 7, x, method="fft")
        direct = pl.hankel_apply(beta, 7, x, method="direct")
        np.testing.assert_allclose(fast, direct, rtol=1e-12, atol=1e-15)

    @pytest.mark.parametrize("n_out", ["1", "V", "2V+3"])
    @pytest.mark.parametrize("V", [1, 2, 3, 5, 64])
    def test_windows_against_direct_sums(self, V, n_out):
        n_out = {"1": 1, "V": V, "2V+3": 2 * V + 3}[n_out]
        rng = np.random.default_rng(100 * V + n_out)
        offset = 3
        beta_vals = rng.uniform(-1.0, 1.0, offset + 2 * V - 1)
        a_vals = rng.uniform(-1.0, 1.0, n_out + V)
        x = rng.uniform(-1.0, 1.0, (2, V))
        eng = _HankelFFT(beta_vals, offset, V, a_vals=a_vals, n_out=n_out)
        kernel = np.array([[beta_vals[offset + j + v] for v in range(V)] for j in range(V)])
        np.testing.assert_allclose(eng.apply(x), x @ kernel.T, rtol=0, atol=1e-12)
        # t_j = sum_{u<V} a_{j+u} x_u for j = 1..n_out
        corr = np.array([[a_vals[j + u] for u in range(V)] for j in range(1, n_out + 1)])
        np.testing.assert_allclose(eng.a_correlate_from(eng.forward(x)), x @ corr.T,
                                   rtol=0, atol=1e-12)

    def test_insufficient_beta_rejected(self):
        beta = pl.beta_for_model(pl.Farima(0.3), 50)
        with pytest.raises(ValueError):
            pl.hankel_apply(beta, 10, np.ones(32))


class TestDVectors:
    def test_ar1_terminates_immediately(self):
        beta = pl.beta_for_model(pl.Ar1(0.5), 1 << 14)
        dv = pl.d_vectors(beta, 2, TruncationPolicy(V=64))
        assert dv.k_used == 1
        np.testing.assert_array_equal(dv.vectors[0], np.zeros(64))

    def test_scaling_limits(self):
        # n d_k(n, 0) approaches f_k(0) sin^k(pi d)
        d, n = 0.3, 2048
        model = pl.Farima(d)
        pol = TruncationPolicy(K=2)
        beta = pl.beta_for_model(model, n + 2 * pol.resolve_scales(model, n)[-1])
        dv = pl.d_vectors(beta, n, pol)
        for k in (1, 2):
            target = fk0(k)[k - 1] * np.sin(np.pi * d) ** k
            assert abs(n * dv.vectors[k - 1][0] - target) / target < 0.005

    def test_positivity_and_upper_bound(self):
        # long-memory kernel iterates stay positive and below the
        # f_k(0) (r sin pi d)^k / n envelope with r = 1.05
        r, eps = 1.05, 1e-3
        for d in (0.1, 0.3):
            model = pl.Farima(d)
            pol = TruncationPolicy(K=3)
            for n in (512, 2048):
                L = n + 2 * pol.resolve_scales(model, n)[-1]
                dv = pl.d_vectors(pl.beta_for_model(model, L), n, pol)
                f = fk0(dv.k_used)
                for k in range(1, dv.k_used + 1):
                    head = dv.vectors[k - 1][:32]
                    assert np.all(head > 0.0)
                    bound = f[k - 1] * (r * np.sin(np.pi * d)) ** k / n
                    assert np.max(head) <= bound * (1.0 + eps)

    @pytest.mark.parametrize("d", [0.1, 0.3])
    def test_single_scale_tail_covers_ladder_correction(self, d):
        # one scale is left uncorrected, so its reported residual must cover
        # what a four-level ladder still moves
        model, n = pl.Farima(d), 64
        ladder = TruncationPolicy(K=8, levels=4)
        beta = pl.beta_for_model(model, n + 2 * ladder.resolve_scales(model, n)[-1])
        one = pl.d_vectors(beta, n, TruncationPolicy(K=8, levels=1))
        ref = pl.d_vectors(beta, n, ladder)
        k, w = min(one.k_used, ref.k_used), ref.vectors.shape[1]
        moved = float(np.max(np.abs(one.vectors[:k, :w] - ref.vectors[:k, :w])))
        assert moved > 0.0
        assert one.tail_estimate >= moved


class TestDeltaBlock:
    def test_v0_reproduces_d_vectors(self):
        model = pl.Farima(0.3)
        pol = TruncationPolicy(V=256, K=3, levels=2)
        beta = pl.beta_for_model(model, 32 + 4 * 256)
        block = pl.delta_block(beta, 32, 2, pol)
        dv = pl.d_vectors(beta, 32, pol)
        kk = min(block.k_used, dv.k_used)
        np.testing.assert_allclose(block.values[:kk, :, 0], dv.vectors[:kk],
                                   rtol=1e-10, atol=1e-15)

    def test_first_stage_is_beta_slice(self):
        # delta_1(n, u, v) = beta_{n+u+v}; at n = 32, u = 2, v = 3 that is beta_37
        model = pl.Farima(0.3)
        beta = pl.beta_for_model(model, 32 + 4 * 256)
        block = pl.delta_block(beta, 32, 3, TruncationPolicy(V=256, K=2, levels=2))
        assert block.values[0, 2, 3] == pytest.approx(beta[37], rel=1e-12)

    def test_symmetry(self):
        model = pl.Farima(0.35)
        beta = pl.beta_for_model(model, 16 + 4 * 512)
        block = pl.delta_block(beta, 16, 5, TruncationPolicy(V=512, K=4, levels=2))
        vals = block.values
        for u in range(6):
            for v in range(6):
                assert vals[:, u, v] == pytest.approx(vals[:, v, u], abs=1e-10)

    def test_negative_vmax_rejected(self):
        beta = pl.beta_for_model(pl.Farima(0.3), 1024)
        with pytest.raises(ValueError):
            pl.delta_block(beta, 8, -1)


class TestFinitePredictor:
    @pytest.mark.parametrize("r", [-0.9, -0.5, 0.3, 0.5, 0.9])
    @pytest.mark.parametrize("n", [1, 4, 16, 64])
    def test_ar1_exact(self, r, n):
        res = pl.finite_predictor_explicit(pl.Ar1(r), n)
        expected = np.zeros(n)
        expected[0] = r
        np.testing.assert_allclose(res.table.coefficients, expected, atol=1e-10)
        # the series terminates after the first stage: every later term is 0
        for s in res.series:
            assert np.all(s.terms[1:] == 0.0)

    @pytest.mark.parametrize("d", [0.1, 0.3])
    def test_farima_against_exact_oracle(self, d):
        n = 64
        res = pl.finite_predictor_explicit(pl.Farima(d), n)
        np.testing.assert_allclose(res.table.coefficients, exact_phi(d, n),
                                   atol=1e-7)

    def test_first_term_identity(self):
        # g_1(n, j) = c_0 a_j bitwise; in the factored case the series reads
        # a past 4096 terms and the identity's a stops at 16, so both must be
        # one expansion, whatever its length
        for model, policy in [
            (pl.Farima(0.3), TruncationPolicy()),
            (pl.Farima(0.45, ar_poly=(1, -0.5), ma_poly=(1, 0.4)),
             TruncationPolicy(V=4096, levels=2, tol_tail=1)),
        ]:
            res = pl.finite_predictor_explicit(model, 16, policy)
            c0 = pl.expand_ma(model, 0)[0]
            a = pl.expand_ar(model, 16).values
            for j, s in enumerate(res.series, start=1):
                assert s.terms[0] == c0 * a[j]

    def test_reported_residual_is_the_checked_one(self):
        # tol_term alone sets the stop tolerance here, so tol_tail only moves
        # the check: the largest reported residual passes it, one ulp below
        # raises, and the error carries that same residual
        model, n = pl.Farima(0.3), 8
        policy = TruncationPolicy(V=256, levels=3, tol_term=1e-14, tol_tail=1.0)
        res = pl.finite_predictor_explicit(model, n, policy)
        resid = max(s.tail_estimate for s in res.series)
        pl.finite_predictor_explicit(model, n, dataclasses.replace(policy, tol_tail=resid))
        below = dataclasses.replace(policy, tol_tail=float(np.nextafter(resid, 0.0)))
        with pytest.raises(TruncationError) as info:
            pl.finite_predictor_explicit(model, n, below)
        assert info.value.achieved == resid

    def test_beta_of_another_model_rejected(self):
        # long enough to be used as given, but built for another d
        beta = pl.beta_for_model(pl.Farima(0.1), 2 ** 19 + 100)
        with pytest.raises(ValueError, match=r"Farima\(d=0\.1.*Farima\(d=0\.3"):
            pl.finite_predictor_explicit(pl.Farima(0.3), 8, beta=beta)
        with pytest.raises(ValueError, match="beta was built for"):
            pl.finite_predictor_multistep(pl.Farima(0.3), 8, 2, beta=beta)

    def test_multistep_m0_same_path(self):
        res0 = pl.finite_predictor_explicit(pl.Farima(0.3), 32)
        resm = pl.finite_predictor_multistep(pl.Farima(0.3), 32, 0)
        np.testing.assert_array_equal(res0.table.coefficients,
                                      resm.table.coefficients)

    def test_ar1_multistep_closed_form(self):
        res = pl.finite_predictor_multistep(pl.Ar1(0.5), 4, 2)
        np.testing.assert_allclose(res.table.coefficients, [0.125, 0, 0, 0],
                                   atol=1e-10)

    @pytest.mark.parametrize("m", [1, 2, 5])
    def test_farima_multistep_against_normal_solve(self, m):
        model = pl.Farima(0.3)
        n = 32
        res = pl.finite_predictor_multistep(model, n, m)
        gamma = pl.autocov(model, n + m)
        want = pl.multistep_normal_solve(gamma, n, m).coefficients
        np.testing.assert_allclose(res.table.coefficients, want, atol=1e-6)

    @pytest.mark.parametrize("V, m", [(6, 3), (5, 2)])
    def test_single_scale_residual_at_uneven_half(self, V, m):
        # the half run cannot go below m + 1, so it sits at 4 and 3, not at
        # V/2; the residual must still cover the true error
        model, n = pl.Farima(0.3), 8
        res = pl.finite_predictor_multistep(model, n, m,
                                            TruncationPolicy(V=V, levels=1, tol_tail=1.0))
        want = pl.multistep_normal_solve(pl.autocov(model, n + m), n, m).coefficients
        err = float(np.max(np.abs(res.table.coefficients - want)))
        assert max(s.tail_estimate for s in res.series) >= err

    @pytest.mark.parametrize("V, m", [(4, 3), (1, 0)])
    def test_single_scale_without_half_run_raises(self, V, m):
        # max(V // 2, m + 1) is V itself: no second cutoff to measure against
        with pytest.raises(ValueError, match="half run"):
            pl.finite_predictor_multistep(pl.Farima(0.3), 8, m,
                                          TruncationPolicy(V=V, levels=1, tol_tail=1.0))

    def test_short_memory_residual_covers_rounding(self):
        # an inexact short-memory beta is cut where its factors are dead, so
        # rounding is all its error, and the residual must cover it
        model, n = pl.Farima(0.0, ma_poly=(1.0, 0.9)), 16
        with pytest.warns(UserWarning, match="contraction"):
            res = pl.finite_predictor_multistep(model, n, 0)
        want = pl.durbin_levinson(pl.autocov(model, n), n)[-1].coefficients
        err = float(np.max(np.abs(res.table.coefficients - want)))
        assert max(s.tail_estimate for s in res.series) >= err

    def test_truncation_gate_raises(self):
        with pytest.raises(TruncationError):
            pl.finite_predictor_explicit(
                pl.Farima(0.3), 64, TruncationPolicy(V=64, levels=1))

    @pytest.mark.parametrize("tol_tail", [float("nan"), 0.0, -1.0])
    def test_tol_tail_must_be_positive(self, tol_tail):
        # a NaN cap would pass every comparison and switch the gate off
        with pytest.raises(ValueError, match="tol_tail"):
            TruncationPolicy(tol_tail=tol_tail)

    def test_exhausted_depth_raises_with_its_error(self):
        # K = 2 kernel applies (one solve iteration) cannot reach the default
        # tol_tail at n = 4, and the raised residual covers what the missing
        # iterations change
        model, n = pl.Farima(0.3), 4
        relaxed = pl.finite_predictor_explicit(model, n, TruncationPolicy(K=2, tol_tail=1e6))
        err = float(np.max(np.abs(relaxed.table.coefficients - exact_phi(0.3, n))))
        assert err >= 1.0e-3
        with pytest.raises(TruncationError, match="levels or K") as info:
            pl.finite_predictor_explicit(model, n, TruncationPolicy(K=2))
        assert info.value.achieved >= err

    @pytest.mark.parametrize("model, n", [
        *((pl.Farima(d), n) for d in (0.1, 0.3) for n in (4, 64)),
        # ||H|| is about 0.83 here, above sin(0.3 pi) = 0.809
        (pl.Farima(0.3, ma_poly=(1.0, 0.9)), 1),
    ], ids=lambda v: v if isinstance(v, int) else repr(v))
    def test_residual_covers_series_depth(self, model, n):
        # with the cap out of the way, the largest reported residual at a
        # short depth budget K covers how far phi is from the default K's;
        # the reference pins the default levels, so that pure fractional
        # noise runs the ladder on both sides, which then differ only in K
        ladder = TruncationPolicy(levels=TruncationPolicy().resolve_levels(model))
        want = pl.finite_predictor_explicit(model, n, ladder).table.coefficients
        for K in (2, 3, 5, 8, 12):
            res = pl.finite_predictor_explicit(model, n, TruncationPolicy(K=K, tol_tail=1e6))
            moved = float(np.max(np.abs(res.table.coefficients - want)))
            assert max(s.tail_estimate for s in res.series) >= moved, K

    def test_input_validation(self):
        with pytest.raises(ValueError):
            pl.finite_predictor_explicit(pl.Farima(0.3), 0)
        with pytest.raises(ValueError):
            pl.finite_predictor_multistep(pl.Farima(0.3), 4, -1)


def _outcome(fn):
    """fn()'s result, or the type and message of what it raised."""
    try:
        return fn()
    except TruncationError as exc:
        return type(exc), str(exc)


def _serial_and_two_lanes(monkeypatch, fn):
    monkeypatch.setenv("PREDICTORLAB_THREADS", "1")
    serial = _outcome(fn)
    monkeypatch.setenv("PREDICTORLAB_THREADS", "2")
    return serial, _outcome(fn)


def _assert_same_fields(a, b):
    assert type(a) is type(b)
    if isinstance(a, tuple):  # both raised
        assert a == b
        return
    names = [f.name for f in dataclasses.fields(a) if not f.name.startswith("_")]
    if isinstance(a, pl.SeriesTerms):
        names.append("terms")  # computed on read
    for name in names:
        x, y = getattr(a, name), getattr(b, name)
        if isinstance(x, np.ndarray):
            np.testing.assert_array_equal(x, y, strict=True)
        else:
            assert x == y, name


_LANE_MODELS = [pl.Farima(0.1), pl.Farima(0.3), pl.Farima(0.3, ar_poly=(1.0, -0.5)),
                pl.Ar1(0.5)]

#: long and short memory, AR- and MA-factored, and an exact-support kernel
_SOLVE_MODELS = [pl.Farima(0.1), pl.Farima(0.3), pl.Farima(0.4),
                 pl.Farima(0.3, ar_poly=(1.0, -0.5)), pl.Farima(0.2, ma_poly=(1.0, 0.5)),
                 pl.Farima(0.0, ma_poly=(1.0, 0.5)), pl.Ar1(0.5)]


class TestLanes:
    """The cutoff ladder on two lanes gives bitwise the serial result."""

    @pytest.mark.parametrize("model", _LANE_MODELS, ids=repr)
    @pytest.mark.parametrize("m", [0, 1])
    @pytest.mark.parametrize("levels", [None, 1])
    @pytest.mark.parametrize("K", [None, 2])
    def test_multistep_serial_equals_two_lanes(self, monkeypatch, model, m, levels, K):
        # K = 2 binds at the default tol_tail: every long-memory model raises,
        # the same way on both lanes; AR(1) needs one stage and stays exact
        policy = (TruncationPolicy(V=256, levels=levels, tol_tail=1.0) if K is None
                  else TruncationPolicy(V=256, K=K, levels=levels))
        serial, lanes = _serial_and_two_lanes(
            monkeypatch, lambda: pl.finite_predictor_multistep(model, 16, m, policy))
        if K is not None and isinstance(model, pl.Farima):
            assert serial[0] is TruncationError
            assert serial == lanes
            return
        if K is not None:
            want = np.zeros(16)
            want[0] = model.r ** (m + 1)
            np.testing.assert_array_equal(serial.table.coefficients, want)
        _assert_same_fields(serial.table, lanes.table)
        assert len(serial.series) == len(lanes.series) == 16
        for a, b in zip(serial.series, lanes.series):
            _assert_same_fields(a, b)

    @pytest.mark.parametrize("model", _LANE_MODELS, ids=repr)
    @pytest.mark.parametrize("levels", [None, 1])
    def test_delta_block_serial_equals_two_lanes(self, monkeypatch, model, levels):
        beta = pl.beta_for_model(model, 16 + 2 * (256 << 5))
        for K in (None, 6):
            policy = TruncationPolicy(V=256, K=K, levels=levels)
            _assert_same_fields(*_serial_and_two_lanes(
                monkeypatch, lambda: pl.delta_block(beta, 16, 2, policy)))
            _assert_same_fields(*_serial_and_two_lanes(
                monkeypatch, lambda: pl.d_vectors(beta, 16, policy)))

    def test_concurrent_calls_under_fast_switching(self, monkeypatch):
        # eight calls on four threads, each with its own lane, switching
        # every microsecond: a lost per-cutoff record would change a result
        model, policy = pl.Farima(0.3), TruncationPolicy(V=256, tol_tail=1.0)
        monkeypatch.setenv("PREDICTORLAB_THREADS", "1")
        want = pl.finite_predictor_multistep(model, 16, 0, policy)
        monkeypatch.setenv("PREDICTORLAB_THREADS", "2")
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                futures = [pool.submit(pl.finite_predictor_multistep, model, 16, 0, policy)
                           for _ in range(8)]
                got = [f.result(timeout=120) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        for res in got:
            _assert_same_fields(want.table, res.table)
            for a, b in zip(want.series, res.series):
                _assert_same_fields(a, b)

    @pytest.mark.parametrize("model", _SOLVE_MODELS, ids=repr)
    @pytest.mark.parametrize("m", [0, 2])
    def test_solve_serial_equals_two_lanes(self, monkeypatch, model, m):
        # the value path is the solve; the terms read on demand follow
        policy = TruncationPolicy(V=512, levels=3, tol_tail=1.0)
        serial, lanes = _serial_and_two_lanes(
            monkeypatch, lambda: pl.finite_predictor_multistep(model, 8, m, policy))
        _assert_same_fields(serial.table, lanes.table)
        for a, b in zip(serial.series, lanes.series):
            _assert_same_fields(a, b)

    def test_worker_lane_error_surfaces(self, monkeypatch):
        class LaneFailure(RuntimeError):
            pass

        real = explicit._solve_run
        raised_on = []

        def failing(*args):
            if args[5] == 256:  # the coarsest cutoff, run on the worker lane
                raised_on.append(threading.get_ident())
                raise LaneFailure("coarse run failed")
            return real(*args)

        monkeypatch.setattr(explicit, "_solve_run", failing)
        monkeypatch.setenv("PREDICTORLAB_THREADS", "2")
        before = set(threading.enumerate())
        with pytest.raises(LaneFailure, match="coarse run failed"):
            pl.finite_predictor_multistep(pl.Farima(0.3), 16, 0,
                                          TruncationPolicy(V=256, tol_tail=1.0))
        assert raised_on and raised_on[0] != threading.get_ident()
        assert set(threading.enumerate()) <= before


class TestSolve:
    """The series solve against the stage-by-stage Neumann sum."""

    @pytest.mark.parametrize("model", _SOLVE_MODELS, ids=repr)
    @pytest.mark.parametrize("m", [0, 2])
    def test_matches_neumann_sum(self, monkeypatch, model, m):
        # every ladder run of the solve is within its own depth bound of the
        # Neumann sum at a tight per-term tolerance, and so the eliminated
        # phi is within the reported residual of the summed one
        n, policy = 16, TruncationPolicy(V=512, levels=3, tol_tail=1.0)
        real, runs = explicit._solve_run, []

        def neumann(beta_vals, a_vals, c_head, n, m, V, K, tol_stop, s_floor):
            terms, left = explicit._g_terms_run(beta_vals, a_vals, c_head, n, m, V,
                                                20000, 1e-15)
            return explicit._phi_from_terms(terms), left, len(terms)

        def both(*args):
            solved, summed = real(*args), neumann(*args)
            runs.append((solved, summed))
            return solved

        monkeypatch.setattr(explicit, "_solve_run", both)
        res = pl.finite_predictor_multistep(model, n, m, policy)
        # an exactly supported kernel runs one cutoff
        assert len(runs) == (1 if pl.beta_for_model(model, 1).exact else 3)
        for (phi, bound, _), (want, left, _) in runs:
            # beyond that, the two sums round differently by a few ulp
            ulps = 4.0 * np.finfo(float).eps * np.max(np.abs(want))
            assert np.max(np.abs(phi - want)) <= bound + left + ulps
        monkeypatch.setattr(explicit, "_solve_run", neumann)
        summed = pl.finite_predictor_multistep(model, n, m, policy)
        diff = np.abs(res.table.coefficients - summed.table.coefficients)
        assert np.all(diff <= [s.tail_estimate for s in res.series])

    def test_budget_below_one_iteration_sums_the_series(self):
        # K = 1 leaves no room for a solve iteration, so the run is the
        # Neumann sum cut after g_1, whose geometric tail the residual reports
        model, n = pl.Farima(0.3), 4
        res = pl.finite_predictor_explicit(model, n, TruncationPolicy(K=1, tol_tail=1e6))
        assert res.series[0].k_used == 0
        g1 = [s.terms[0] for s in res.series]
        assert all(len(s.terms) == 1 for s in res.series)
        assert max(s.tail_estimate for s in res.series) >= np.max(
            np.abs(exact_phi(0.3, n) - g1))


class TestMomentForm:
    """Pure fractional noise under the default policy: the moment form."""

    @pytest.mark.parametrize("m", [0, 2])
    @pytest.mark.parametrize("n", [1, 8, 64, 512])
    @pytest.mark.parametrize("d", [0.05, 0.1, 0.2, 0.3, 0.4, 0.45])
    def test_residual_covers_true_error(self, d, n, m):
        # every weight's reported residual covers its true error: against
        # Hosking's closed form at m = 0, and the normal equations on the
        # Gamma-ratio autocovariances at m = 2; at d = 0.45 the cutoff
        # ladder cannot meet the default tol_tail
        res = pl.finite_predictor_multistep(pl.Farima(d), n, m)
        want = (hosking_phi(d, n) if m == 0 else
                pl.multistep_normal_solve(farima_gamma_oracle(d, n + m), n, m).coefficients)
        err = np.abs(res.table.coefficients - want)
        assert np.all(err <= [s.tail_estimate for s in res.series])

    def test_strong_memory_against_closed_form(self):
        res = pl.finite_predictor_explicit(pl.Farima(0.4), 512)
        assert np.max(np.abs(res.table.coefficients - hosking_phi(0.4, 512))) < 1e-10

    @pytest.mark.parametrize("m", [0, 2])
    def test_pinned_control_runs_the_ladder(self, monkeypatch, m):
        # pinning any one of V, K and levels, each to the value the default
        # policy resolves, runs the cutoff ladder: one result, bitwise, whose
        # per-term record is the one the moment form reports
        model, n = pl.Farima(0.1), 8
        moment = pl.finite_predictor_multistep(model, n, m)
        assert all(s.k_used == 0 for s in moment.series)

        def no_moment(*args):
            raise AssertionError("a pinned control must run the ladder")
        monkeypatch.setattr(explicit, "_moment_run", no_moment)
        default = TruncationPolicy()
        scales = default.resolve_scales(model, n)
        K = explicit._depth_controls(model, default, scales)[3]
        first, *rest = [pl.finite_predictor_multistep(model, n, m, policy)
                        for policy in (TruncationPolicy(V=scales[0]), TruncationPolicy(K=K),
                                       TruncationPolicy(levels=len(scales)))]
        assert first.series[0].k_used > 0
        for res in rest:
            _assert_same_fields(first.table, res.table)
            for a, b in zip(first.series, res.series):
                _assert_same_fields(a, b)
        for a, b in zip(first.series, moment.series):
            np.testing.assert_array_equal(a.terms, b.terms, strict=True)

    def test_residual_gate_names_no_ladder_control(self):
        with pytest.raises(TruncationError, match="quadrature") as info:
            pl.finite_predictor_explicit(pl.Farima(0.3), 8, TruncationPolicy(tol_tail=1e-14))
        assert "increase" not in str(info.value)

    def test_grid_above_node_cap_refused_up_front(self, monkeypatch):
        def no_moment(*args):
            raise AssertionError("the grid must be refused before it is built")
        monkeypatch.setattr(explicit, "_moment_run", no_moment)
        with pytest.raises(TruncationError, match="nodes"):
            pl.finite_predictor_explicit(pl.Farima(0.49), 8)


class TestProjectionIterates:
    def test_ar1_constant_after_first(self):
        # a finite-support kernel makes every term after the first vanish,
        # so the iterate budget may terminate early
        ps = pl.projection_iterates(pl.Ar1(0.5), 8, 1, K=6)
        assert 1 <= len(ps) <= 6
        np.testing.assert_array_equal(ps, np.full(len(ps), 0.5))

    def test_converges_to_predictor(self):
        # the K-term partial sum settles on the coefficient up to the
        # inner-truncation floor of the single finest-cutoff run
        model = pl.Farima(0.3)
        ps = pl.projection_iterates(model, 32, 1, K=90)
        assert len(ps) == 90
        assert abs(ps[-1] - exact_phi(0.3, 32)[0]) < 2e-4

    def test_geometric_decay_rate(self):
        # the iterate error decays cleanly geometrically, contracting per
        # double-stage at least as fast as the large-n envelope sin^2(pi d)
        model = pl.Farima(0.3)
        n, j = 32, 1
        ps = pl.projection_iterates(model, n, j, K=48)
        err = np.abs(ps - ps[-1])[:40]
        ratios = err[12:28:2] / err[10:26:2]
        assert float(ratios.max() / ratios.min()) < 1.01
        assert 0.05 < float(np.mean(ratios)) < 1.05 * np.sin(np.pi * 0.3) ** 2

    @pytest.mark.parametrize("model", [pl.Ar1(0.5), pl.Farima(0.3)], ids=["ar1", "farima"])
    @pytest.mark.parametrize("m", [0, 2])
    def test_cumulative_reported_terms(self, model, m):
        # the iterates are the running sums of the terms the predictor
        # reports when it runs K stages with no early stop; after K = 12
        # stages its ladder residual is above the default tol_tail, which
        # the iterates are not checked against
        n, K = 8, 12
        forced = TruncationPolicy(K=K, tol_term=1e-300, tol_tail=1.0)
        series = pl.finite_predictor_multistep(model, n, m, forced).series
        for j in (1, 3, n):
            np.testing.assert_array_equal(pl.projection_iterates(model, n, j, m, K),
                                          np.cumsum(series[j - 1].terms), strict=True)

    def test_bad_j_rejected(self):
        with pytest.raises(ValueError):
            pl.projection_iterates(pl.Farima(0.3), 8, 9)


@settings(deadline=None, max_examples=15)
@given(st.integers(min_value=0, max_value=200),
       st.data())
def test_hankel_property_random_vectors(n, data):
    V = data.draw(st.sampled_from([16, 64, 256]))
    beta = pl.beta_for_model(pl.Farima(0.3), n + 2 * V + 8)
    x = np.array(data.draw(st.lists(
        st.floats(min_value=-10, max_value=10, allow_nan=False),
        min_size=V, max_size=V)))
    fast = pl.hankel_apply(beta, n, x, method="fft")
    direct = pl.hankel_apply(beta, n, x, method="direct")
    np.testing.assert_allclose(fast, direct, rtol=1e-12, atol=1e-12)
