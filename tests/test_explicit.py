"""Explicit-series machinery: beta, Hankel kernel, d_k/delta_k, predictors."""

import dataclasses
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st
from scipy import signal

import predictorlab as pl
from predictorlab import TruncationError, TruncationPolicy, explicit
from predictorlab.asymptotics import check_routes, fk0
from predictorlab.cli import main
from predictorlab.explicit import _HankelFFT

from conftest import (exact_phi, farima_a_oracle, farima_c_oracle, farima_dk_oracle,
                      farima_gamma_oracle, farima_models, hosking_phi)


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

        def no_run(*args):
            raise AssertionError("beta's share alone exceeds tol_tail; no run should start")
        for name in ("_solve_run", "_moment_system"):
            monkeypatch.setattr(explicit, name, no_run)
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

class TestDeltaBlock:
    @pytest.mark.parametrize("model", [pl.Farima(0.3), pl.Farima(0.3, ma_poly=(1.0, 0.5)),
                                       pl.Farima(0.3, ar_poly=(1.0, -0.5))], ids=repr)
    @pytest.mark.parametrize("K", [3, None])
    def test_v0_reproduces_d_vectors(self, model, K):
        # the block's v = 0 column is d_k, stage for stage, with and without
        # a stage budget
        pol = TruncationPolicy(V=256, K=K)
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
        block = pl.delta_block(beta, 32, 3, TruncationPolicy(V=256, K=2))
        assert block.values[0, 2, 3] == pytest.approx(beta[37], rel=1e-12)

    def test_symmetry(self):
        model = pl.Farima(0.35)
        beta = pl.beta_for_model(model, 16 + 4 * 512)
        block = pl.delta_block(beta, 16, 5, TruncationPolicy(V=512, K=4))
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
        # a past its corner and the identity's a stops at 16, so both must be
        # one expansion, whatever its length
        for model, policy in [
            (pl.Farima(0.3), TruncationPolicy()),
            (pl.Farima(0.45, ar_poly=(1, -0.5), ma_poly=(1, 0.4)),
             TruncationPolicy(V=4096, tol_tail=1)),
        ]:
            res = pl.finite_predictor_explicit(model, 16, policy)
            c0 = pl.expand_ma(model, 0)[0]
            a = pl.expand_ar(model, 16).values
            for j, s in enumerate(res.series, start=1):
                assert s.terms[0] == c0 * a[j]

    def test_reported_residual_is_the_checked_one(self):
        # tol_tail only moves the check: on the nodes, for pure and for
        # MA-factored noise, the largest reported residual passes it, one ulp
        # below raises, and the error carries that same residual
        n = 8
        policy = TruncationPolicy(V=256, tol_term=1e-14, tol_tail=1.0)
        for model in (pl.Farima(0.3), pl.Farima(0.3, ma_poly=(1.0, 0.5))):
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

    def test_short_memory_residual_covers_rounding(self):
        # an inexact short-memory beta is cut where its factors are dead, so
        # rounding is all its error, and the residual must cover it
        model, n = pl.Farima(0.0, ma_poly=(1.0, 0.9)), 16
        res = pl.finite_predictor_multistep(model, n, 0)
        want = pl.durbin_levinson(pl.autocov(model, n), n)[-1].coefficients
        err = float(np.max(np.abs(res.table.coefficients - want)))
        assert max(s.tail_estimate for s in res.series) >= err

    def test_truncation_gate_raises(self):
        # the quadrature's residual for an MA-factored model is about 1e-9
        with pytest.raises(TruncationError, match="quadrature"):
            pl.finite_predictor_explicit(
                pl.Farima(0.3, ma_poly=(1.0, 0.5)), 64, TruncationPolicy(tol_tail=1e-12))

    @pytest.mark.parametrize("tol_tail", [float("nan"), 0.0, -1.0])
    def test_tol_tail_must_be_positive(self, tol_tail):
        # a NaN cap would pass every comparison and switch the gate off
        with pytest.raises(ValueError, match="tol_tail"):
            TruncationPolicy(tol_tail=tol_tail)

    def test_exhausted_depth_raises_with_its_error(self):
        # K = 2 kernel applies (one solve iteration) cannot reach the default
        # tol_tail for this short-memory model at n = 4, and the raised
        # residual covers what the missing iterations change
        model, n = pl.Farima(0.0, ma_poly=(1.0, 0.5, 0.3)), 4
        want = pl.multistep_normal_solve(pl.autocov(model, n), n, 0).coefficients
        relaxed = pl.finite_predictor_explicit(model, n, TruncationPolicy(K=2, tol_tail=1e6))
        err = float(np.max(np.abs(relaxed.table.coefficients - want)))
        assert err >= 1.0e-6
        with pytest.raises(TruncationError, match="increase K") as info:
            pl.finite_predictor_explicit(model, n, TruncationPolicy(K=2))
        assert info.value.achieved >= err

    @pytest.mark.parametrize("model, n", [
        *((pl.Farima(0.0, ma_poly=ma), n) for ma in ((1.0, 0.5, 0.3), (1.0, 0.9))
          for n in (1, 4, 64)),
        (pl.Farima(0.0, ma_poly=(1.0, 0.99)), 2),
    ], ids=lambda v: v if isinstance(v, int) else repr(v))
    def test_residual_covers_series_depth(self, model, n):
        # with the cap out of the way, the largest reported residual at a
        # short depth budget K covers how far phi is from the default K's
        want = pl.finite_predictor_explicit(model, n).table.coefficients
        for K in (2, 3, 5, 8, 12):
            res = pl.finite_predictor_explicit(model, n, TruncationPolicy(K=K, tol_tail=1e6))
            moved = float(np.max(np.abs(res.table.coefficients - want)))
            assert max(s.tail_estimate for s in res.series) >= moved, K

    def test_input_validation(self):
        with pytest.raises(ValueError):
            pl.finite_predictor_explicit(pl.Farima(0.3), 0)
        with pytest.raises(ValueError):
            pl.finite_predictor_multistep(pl.Farima(0.3), 4, -1)


def _assert_same_fields(a, b):
    assert type(a) is type(b)
    names = [f.name for f in dataclasses.fields(a) if not f.name.startswith("_")]
    if isinstance(a, pl.SeriesTerms):
        names.append("terms")  # computed on read
    for name in names:
        x, y = getattr(a, name), getattr(b, name)
        if isinstance(x, np.ndarray):
            np.testing.assert_array_equal(x, y, strict=True)
        else:
            assert x == y, name


def _neumann_sum(terms):
    """The series summed term by term, odd-k and even-k terms apart: they
    live on different index geometries (j and n+1-j)."""
    return terms[0::2].sum(axis=0) + terms[1::2].sum(axis=0)


#: short memory, AR- and MA-factored, and an exact-support kernel: the
#: series solve serves all of them
_SOLVE_MODELS = [pl.Farima(0.0, ma_poly=(1.0, 0.5)), pl.Farima(0.0, ma_poly=(1.0, 0.5, 0.3)),
                 pl.Farima(0.0, ma_poly=(1.0, 0.9)), pl.Farima(0.0, ar_poly=(1.0, -0.5)),
                 pl.Farima(0.0, ar_poly=(1.0, -0.5), ma_poly=(1.0, 0.4)), pl.Ar1(0.5)]


def test_concurrent_calls_under_fast_switching():
    # eight calls on four threads, switching every microsecond, share the
    # beta, factor and expansion caches: a lost or torn cache entry would
    # change a result
    model, policy = pl.Farima(0.3, ma_poly=(1.0, 0.5)), TruncationPolicy(V=256, tol_tail=1.0)
    want = pl.finite_predictor_multistep(model, 16, 0, policy)
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


class TestSolve:
    """The series solve against the stage-by-stage Neumann sum."""

    @pytest.mark.parametrize("model", _SOLVE_MODELS, ids=repr)
    @pytest.mark.parametrize("m", [0, 2])
    def test_matches_neumann_sum(self, monkeypatch, model, m):
        # the solve is within its own depth bound of the Neumann sum at a
        # tight per-term tolerance, and so within the reported residual of
        # the summed phi
        n, policy = 16, TruncationPolicy(V=512, tol_tail=1.0)
        real, runs = explicit._solve_run, []

        def neumann(beta_vals, a_vals, c_head, n, m, V, K, tol_stop, s_floor):
            terms, left = explicit._g_terms_run(beta_vals, a_vals, c_head, n, m, V,
                                                20000, 1e-15)
            return _neumann_sum(terms), left, len(terms)

        def both(*args):
            solved, summed = real(*args), neumann(*args)
            runs.append((solved, summed))
            return solved

        monkeypatch.setattr(explicit, "_solve_run", both)
        res = pl.finite_predictor_multistep(model, n, m, policy)
        # short memory runs one cutoff
        assert len(runs) == 1
        for (phi, bound, _), (want, left, _) in runs:
            # beyond that, the two sums round differently by a few ulp
            ulps = 4.0 * np.finfo(float).eps * np.max(np.abs(want))
            assert np.max(np.abs(phi - want)) <= bound + left + ulps
        monkeypatch.setattr(explicit, "_solve_run", neumann)
        summed = pl.finite_predictor_multistep(model, n, m, policy)
        diff = np.abs(res.table.coefficients - summed.table.coefficients)
        assert np.all(diff <= [s.tail_estimate for s in res.series])

    def test_budget_below_one_iteration_raises(self):
        # K = 1 leaves no room for a solve iteration, so the residual has no
        # bound, whatever tol_tail allows; a kernel with nothing to solve
        # (AR(1): an exactly zero right-hand side) stays exact
        policy = TruncationPolicy(K=1, tol_tail=1e6)
        with pytest.raises(TruncationError, match="K = 1 leaves no room"):
            pl.finite_predictor_explicit(pl.Farima(0.0, ma_poly=(1.0, 0.5, 0.3)), 4, policy)
        res = pl.finite_predictor_explicit(pl.Ar1(0.5), 4, policy)
        np.testing.assert_array_equal(res.table.coefficients, [0.5, 0.0, 0.0, 0.0])

    def test_indefinite_system_raises(self, monkeypatch):
        # conjugate gradients that meet I - H^2 as indefinite leave a
        # residual with no norm estimate below 1: an error naming K
        def indefinite(eng, r, a_norm, K, tol_stop, s_floor):
            return np.zeros_like(r), np.zeros_like(r), 1.0, 1.0, 1
        monkeypatch.setattr(explicit, "_cg", indefinite)
        with pytest.raises(TruncationError, match="indefinite within K = 64"):
            pl.finite_predictor_explicit(pl.Farima(0.0, ma_poly=(1.0, 0.9)), 4,
                                         TruncationPolicy(K=64))


#: short memory: AR(1) and AR(2) (exact support), ARMA(1, 1), and MA(1)
#: whose AR expansion decays slowly and very slowly
_SHORT_MODELS = [pl.Ar1(0.7), pl.Farima(0.0, ar_poly=(1.0, -0.5, 0.3)),
                 pl.Farima(0.0, ma_poly=(1.0, 0.9)),
                 pl.Farima(0.0, ar_poly=(1.0, -0.5), ma_poly=(1.0, 0.4)),
                 pl.Farima(0.0, ma_poly=(1.0, 0.99))]


class TestShortMemory:
    """d = 0: one solve at the cutoff the kernel's support sets."""

    @pytest.mark.parametrize("model", _SHORT_MODELS, ids=repr)
    @pytest.mark.parametrize("n", [1, 2, 4, 16])
    @pytest.mark.parametrize("m", [0, 2])
    def test_residual_covers_normal_solve(self, model, n, m):
        # every weight is within its reported residual of the normal
        # equations on the exact autocovariances, beyond the few ulp those
        # round by
        res = pl.finite_predictor_multistep(model, n, m)
        want = pl.multistep_normal_solve(pl.autocov(model, n + m), n, m).coefficients
        ulps = 4.0 * np.finfo(float).eps * np.max(np.abs(want))
        err = np.abs(res.table.coefficients - want)
        assert np.all(err <= np.array([s.tail_estimate for s in res.series]) + ulps)

    @pytest.mark.parametrize("model", _SHORT_MODELS, ids=repr)
    @pytest.mark.parametrize("n", [1, 2, 4, 16])
    @pytest.mark.parametrize("m", [0, 2])
    def test_residual_covers_own_rounding(self, model, n, m):
        # a solve whose depth bound and beta's share are zero or tiny still
        # rounds; the residual covers that too, with nothing added
        res = pl.finite_predictor_multistep(model, n, m)
        want = pl.multistep_normal_solve(pl.autocov(model, n + m), n, m).coefficients
        err = np.abs(res.table.coefficients - want)
        assert np.all(err <= [s.tail_estimate for s in res.series])

    @pytest.mark.parametrize("model", _SHORT_MODELS, ids=repr)
    def test_one_path_whatever_the_policy(self, capsys, model):
        # a pinned V, even one below the horizon, leaves the weights bitwise
        # as they are
        n, m = 8, 3
        default = pl.finite_predictor_multistep(model, n, m)
        iterates = pl.projection_iterates(model, n, 2, m, K=6)
        # the record stops at its tolerance, the iterates at K
        record = default.series[1].terms[:6]
        np.testing.assert_array_equal(iterates[:len(record)], np.cumsum(record))
        for pins in ({"V": 4}, {"V": 64}):
            policy = TruncationPolicy(**pins)
            res = pl.finite_predictor_multistep(model, n, m, policy)
            _assert_same_fields(default.table, res.table)
            for a, b in zip(default.series, res.series):
                _assert_same_fields(a, b)
            np.testing.assert_array_equal(
                pl.projection_iterates(model, n, 2, m, K=6, policy=policy), iterates)
        argv = ["predict", "--n", "4", "--terms", "--source", "explicit", "--vmax", "4",
                "--model"]
        if isinstance(model, pl.Ar1):
            argv += ["ar1", "--r", str(model.r)]
        else:
            argv += ["farima", "--d", "0"] + [
                f"--{name}={','.join(map(str, poly.coefficients))}"
                for name, poly in (("arpoly", model.ar_poly), ("mapoly", model.ma_poly))]
        assert main(argv) == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("model", _SHORT_MODELS, ids=repr)
    def test_d_vectors_reach_the_support(self, model):
        # V is only the output window: d_2(n, u) = sum_w beta_{n+u+w}
        # beta_{n+w} runs over the kernel's whole support, and the block's
        # v = 0 column is d_k
        n, V = 2, 16
        beta = pl.beta_for_model(model, 0)
        policy = TruncationPolicy(V=V, K=2)
        dv = pl.d_vectors(beta, n, policy)
        block = pl.delta_block(beta, n, 2, policy)
        assert dv.vectors.shape[1] == V and block.values.shape[1:] == (V, 3)
        # beta's share, of a beta long enough for the support
        assert 4.0 * beta.tail_estimate <= dv.tail_estimate < 1e-12
        k = min(dv.k_used, block.k_used)
        np.testing.assert_allclose(block.values[:k, :, 0], dv.vectors[:k],
                                   rtol=1e-10, atol=1e-15)
        full = pl.beta_for_model(model, 4 * beta.inner_len + 4 * V).values
        W = beta.inner_len + V
        d2 = full[n + np.add.outer(np.arange(V), np.arange(W))] @ full[n:n + W]
        if dv.k_used == 1:  # the first stage is exactly zero
            assert not np.any(dv.vectors)
        else:
            np.testing.assert_allclose(dv.vectors[1], d2, rtol=0,
                                       atol=1e-13 * np.max(np.abs(d2)))


#: the ARMA factors of the calibration grid: AR, MA and ARMA, with roots of
#: either sign, one AR(1) root at 0.9 and two of degree two
_FACTORS = [{"ar_poly": (1.0, -0.5)}, {"ar_poly": (1.0, 0.5)}, {"ar_poly": (1.0, -0.9)},
            {"ar_poly": (1.0, -0.5, 0.3)}, {"ma_poly": (1.0, 0.5)}, {"ma_poly": (1.0, -0.5)},
            {"ma_poly": (1.0, -0.5, 0.3)}, {"ar_poly": (1.0, -0.5), "ma_poly": (1.0, 0.4)},
            {"ar_poly": (1.0, 0.6), "ma_poly": (1.0, -0.6)}]
_FACTOR_IDS = ["-".join(f"{k[:2]}{','.join(map(str, v[1:]))}" for k, v in f.items())
               for f in _FACTORS]


def _normal_solve_with_allowance(model, n, m):
    """(normal-equation weights, what rounding the autocovariances by eps
    relative can move them by): eps gamma(0) (1 + ||phi||_1) / lambda_min
    of the Toeplitz matrix, the first-order perturbation bound."""
    gamma = pl.autocov(model, n + m).values
    want = pl.multistep_normal_solve(pl.autocov(model, n + m), n, m).coefficients
    lags = np.abs(np.subtract.outer(np.arange(n), np.arange(n)))
    lam = np.linalg.eigvalsh(gamma[lags])[0]
    return want, np.finfo(float).eps * gamma[0] * (1.0 + np.sum(np.abs(want))) / lam


def _factored_dk_oracle(model, k, n, u):
    """d_k(n, u) for k <= 2 of a factored model from rho_j = sum_p r_p
    s_{p-j}, r = ma/ar and s = ar/ma expanded by scipy's filter:
    beta_i = c sum_j rho_j / (i + j - d), so d_1 is that sum at i = n + u
    and d_2 = c^2 sum_{j,l} rho_j rho_l (psi(A) - psi(B)) / (A - B) with
    A = n + u + j - d, B = n + l - d (psi'(A) where A = B)."""
    from scipy.special import digamma, polygamma
    d, T = model.d, 2048
    ma, ar = model.ma_poly.coefficients, model.ar_poly.coefficients
    impulse = np.zeros(T)
    impulse[0] = 1.0
    r, s = signal.lfilter(ma, ar, impulse), signal.lfilter(ar, ma, impulse)
    rho, j = np.correlate(r, s, "full"), np.arange(1 - T, T)
    keep = np.abs(rho) > 1e-30
    rho, j = rho[keep], j[keep]
    c = np.sin(np.pi * d) / np.pi
    if k == 1:
        return c * float(np.sum(rho / (n + u + j - d)))
    A = (n + u + j - d)[:, None]
    B = (n + j - d)[None, :]
    diff = A - B
    same = diff == 0.0
    ratio = np.where(same, polygamma(1, A + 0.0 * B),
                     (digamma(A) - digamma(B)) / np.where(same, 1.0, diff))
    return c * c * float(rho @ ratio @ rho)


class TestMomentForm:
    """Pure fractional noise under the default policy: the moment form."""

    @pytest.mark.parametrize("m", [0, 2])
    @pytest.mark.parametrize("n", [1, 2, 8, 64, 512])
    @pytest.mark.parametrize("d", [0.05, 0.1, 0.2, 0.3, 0.4, 0.45, 0.47, 0.48])
    def test_residual_covers_true_error(self, d, n, m):
        # every weight's reported residual covers its true error: against
        # Hosking's closed form at m = 0, and the normal equations on the
        # Gamma-ratio autocovariances at m = 2
        res = pl.finite_predictor_multistep(pl.Farima(d), n, m)
        want = (hosking_phi(d, n) if m == 0 else
                pl.multistep_normal_solve(farima_gamma_oracle(d, n + m), n, m).coefficients)
        err = np.abs(res.table.coefficients - want)
        assert np.all(err <= [s.tail_estimate for s in res.series])

    def test_strong_memory_against_closed_form(self):
        res = pl.finite_predictor_explicit(pl.Farima(0.4), 512)
        assert np.max(np.abs(res.table.coefficients - hosking_phi(0.4, 512))) < 1e-10

    @pytest.mark.parametrize("n", [1, 2, 8])
    @pytest.mark.parametrize("d", [0.05, 0.1, 0.3, 0.45])
    def test_short_past_against_closed_form(self, d, n):
        # the grid's left end reaches as far toward t = 0 as the t^(n-d)
        # endpoint needs at small n
        res = pl.finite_predictor_explicit(pl.Farima(d), n)
        assert np.max(np.abs(res.table.coefficients - hosking_phi(d, n))) <= 1e-13

    def test_near_half_served_against_levinson(self):
        # d = 0.48 is within the node cap, and agrees with Durbin-Levinson
        model, n = pl.Farima(0.48), 64
        res = pl.finite_predictor_explicit(model, n)
        want = pl.durbin_levinson(pl.autocov(model, n), n)[-1].coefficients
        assert np.max(np.abs(res.table.coefficients - want)) <= 1e-12

    @pytest.mark.parametrize("model", [pl.Farima(0.3), pl.Farima(0.3, ma_poly=(1.0, 0.5)),
                                       pl.Farima(0.3, ar_poly=(1.0, -0.5))], ids=repr)
    @pytest.mark.parametrize("m", [0, 3])
    def test_pinned_controls_stay_on_the_nodes(self, monkeypatch, model, m):
        # V and K, pinned alone or together, even to a V below the horizon,
        # leave every long-memory model on the nodes: the default's table,
        # bitwise, the iterates, and d_k on the window V, the default's
        # first V entries (up to the rounding of a matrix product of another
        # shape)
        n = 8
        beta = pl.beta_for_model(model, 0)
        default = pl.finite_predictor_multistep(model, n, m)
        dv = pl.d_vectors(beta, n)
        iterates = pl.projection_iterates(model, n, 2, m, K=6)

        def no_solve(*args):
            raise AssertionError("long memory must stay on the nodes")
        for name in ("_solve_run", "_g_terms_run", "_delta_run"):
            monkeypatch.setattr(explicit, name, no_solve)
        for pins in ({"V": 4}, {"K": 2}, {"V": 4, "K": 2}):
            policy = TruncationPolicy(**pins)
            res = pl.finite_predictor_multistep(model, n, m, policy)
            _assert_same_fields(default.table, res.table)
            assert len(res.series[0].terms) <= policy.resolve_k(model)
            np.testing.assert_array_equal(
                pl.projection_iterates(model, n, 2, m, K=6, policy=policy), iterates)
            window = pl.d_vectors(beta, n, policy)
            V = policy.resolve_v(n, model)
            assert window.vectors.shape == (min(dv.k_used, policy.resolve_k(model)), V)
            np.testing.assert_allclose(window.vectors, dv.vectors[:window.k_used, :V],
                                       rtol=1e-14, atol=0.0)

    @pytest.mark.parametrize("m", [0, 2])
    @pytest.mark.parametrize("n", [1, 8, 64])
    @pytest.mark.parametrize("d, factors", [
        *((d, {}) for d in (0.05, 0.1, 0.3, 0.45)),
        # a factored record at d = 0.45 takes about a thousand stages
        *((d, f) for f in _FACTORS for d in (0.1, 0.3))],
        ids=[*(f"pure-{d}" for d in (0.05, 0.1, 0.3, 0.45)),
             *(f"{i}-{d}" for i in _FACTOR_IDS for d in (0.1, 0.3))])
    def test_record_sums_to_table(self, d, factors, n, m):
        # the per-term record is the Neumann sum of the same quadrature, so
        # its running sums reach the table they stop against
        model = pl.Farima(d, **factors)
        res = pl.finite_predictor_multistep(model, n, m)
        record = np.array([s.terms for s in res.series])
        assert record.shape[1] <= TruncationPolicy().resolve_k(model)
        assert np.max(np.abs(record.sum(axis=1) - res.table.coefficients)) <= 1e-10

    @pytest.mark.parametrize("m", [0, 2])
    @pytest.mark.parametrize("n", [1, 2, 8, 512])
    @pytest.mark.parametrize("d", [0.1, 0.3, 0.45])
    @pytest.mark.parametrize("factors", _FACTORS, ids=_FACTOR_IDS)
    def test_factored_residual_covers_normal_solve(self, factors, d, n, m):
        # AR, MA and ARMA factors on the nodes: every weight is within its
        # reported residual of the normal equations, beyond what those move
        # by when the autocovariances round (a few e-13 at gamma(0) = 255,
        # AR(1) at 0.9 and d = 0.45), and every error is far below 1e-10
        model = pl.Farima(d, **factors)
        res = pl.finite_predictor_multistep(model, n, m)
        want, allowance = _normal_solve_with_allowance(model, n, m)
        err = np.abs(res.table.coefficients - want)
        assert np.all(err <= np.array([s.tail_estimate for s in res.series]) + allowance)
        assert np.max(err) <= 1e-10

    @pytest.mark.parametrize("model, n", [
        (pl.Farima(0.4, ar_poly=(1.0, -0.5)), 512),
        (pl.Farima(0.3, ma_poly=(1.0, 0.99)), 1),
        (pl.Farima(0.3, ma_poly=(1.0, -0.99)), 64),
        (pl.Farima(0.1, ma_poly=(1.0, -0.99)), 8),
        (pl.Farima(0.45, ma_poly=(1.0, -0.98)), 8),
        (pl.Farima(0.45, ma_poly=(1.0, 0.97)), 1),
    ], ids=repr)
    def test_factored_served_against_levinson(self, model, n):
        # an AR factor at strong memory and a long past; MA roots of modulus
        # near 1/0.99, which put rho's negative end, and so the corner, past
        # 3500 entries at small n: every system stays under the cap, and the
        # weights agree with Levinson to rounding
        res = pl.finite_predictor_explicit(model, n)
        want = pl.durbin_levinson(pl.autocov(model, n), n)[-1].coefficients
        err = np.abs(res.table.coefficients - want)
        assert np.all(err <= [s.tail_estimate for s in res.series])
        assert np.max(err) <= 1e-12

    def test_corner_above_node_cap_refused_up_front(self, monkeypatch):
        # an MA root still nearer the circle needs a corner of about 40000
        # at n = 8: refused before any system is built
        def no_system(*args, **kwargs):
            raise AssertionError("the system must be refused before it is built")
        monkeypatch.setattr(explicit, "_moment_system", no_system)
        with pytest.raises(TruncationError, match="corner"):
            pl.finite_predictor_explicit(pl.Farima(0.3, ma_poly=(1.0, 0.999)), 8)

    @pytest.mark.parametrize("n", [1, 8, 64, 1024])
    @pytest.mark.parametrize("d", [0.05, 0.1, 0.2, 0.3, 0.4, 0.45])
    def test_d_vectors_against_closed_forms(self, monkeypatch, d, n):
        # d_1 and d_2 on the nodes, with no cutoff: within the reported
        # residual of their closed forms, at the cutoff's length in u
        def no_solve(*args):
            raise AssertionError("d_k of fractional noise must run on the nodes")
        monkeypatch.setattr(explicit, "_delta_run", no_solve)
        model, policy = pl.Farima(d), TruncationPolicy(K=2)
        dv = pl.d_vectors(pl.beta_for_model(model, 0), n, policy)
        assert dv.vectors.shape == (2, policy.resolve_v(n, model))
        err = max(abs(dv.vectors[k - 1][u] - farima_dk_oracle(d, k, n, u))
                  for k in (1, 2) for u in (0, 5))
        assert err <= dv.tail_estimate

    @pytest.mark.parametrize("n", [1, 8, 64])
    @pytest.mark.parametrize("d", [0.1, 0.3, 0.45])
    @pytest.mark.parametrize("factors", _FACTORS[::2], ids=_FACTOR_IDS[::2])
    def test_factored_d_vectors_against_closed_forms(self, monkeypatch, factors, d, n):
        # with beta_i = c sum_j rho_j / (i + j - d), d_2(n, u) is a double
        # sum over rho of digamma differences (partial fractions, as for
        # pure noise); d_k of a factored model, corner and nodes, is within
        # its reported residual of it
        def no_solve(*args):
            raise AssertionError("d_k of long memory must run on the nodes")
        monkeypatch.setattr(explicit, "_delta_run", no_solve)
        model, policy = pl.Farima(d, **factors), TruncationPolicy(K=2, V=64)
        dv = pl.d_vectors(pl.beta_for_model(model, 0), n, policy)
        assert dv.vectors.shape == (2, 64)
        for k in (1, 2):
            for u in (0, 5, 63):
                want = _factored_dk_oracle(model, k, n, u)
                assert abs(dv.vectors[k - 1][u] - want) <= dv.tail_estimate

    def test_delta_block_symmetric_corner(self, monkeypatch):
        def no_solve(*args):
            raise AssertionError("delta_k of fractional noise must run on the nodes")
        monkeypatch.setattr(explicit, "_delta_run", no_solve)
        block = pl.delta_block(pl.beta_for_model(pl.Farima(0.35), 0), 16, 4,
                               TruncationPolicy(K=4))
        corner = block.values[:, :5, :5]
        assert block.k_used == 4
        assert np.max(np.abs(corner - np.transpose(corner, (0, 2, 1)))) <= 1e-10

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
        # the iterate error contracts per double-stage at least as fast as
        # the large-n envelope sin^2(pi d); the quadrature resolves the
        # kernel's continuous spectrum, on which the ratio creeps toward the
        # envelope rather than settling on one value
        n, j = 32, 1
        envelope = 1.05 * np.sin(np.pi * 0.3) ** 2
        for model in (pl.Farima(0.3, ma_poly=(1.0, 0.5)), pl.Farima(0.3)):
            ps = pl.projection_iterates(model, n, j, K=48)
            err = np.abs(ps - ps[-1])[:40]
            ratios = err[12:28:2] / err[10:26:2]
            assert 0.05 < float(np.mean(ratios)) < envelope

    @pytest.mark.parametrize("model", [pl.Ar1(0.5), pl.Farima(0.3, ma_poly=(1.0, 0.5))],
                             ids=["ar1", "farima"])
    @pytest.mark.parametrize("m", [0, 2])
    def test_cumulative_reported_terms(self, model, m):
        # the iterates are the running sums of the terms the predictor
        # reports when it runs K stages with no early stop, on the nodes for
        # the factored long-memory model and at the one cutoff for AR(1)
        n, K = 8, 12
        forced = TruncationPolicy(K=K, tol_term=1e-300, tol_tail=1.0)
        series = pl.finite_predictor_multistep(model, n, m, forced).series
        for j in (1, 3, n):
            np.testing.assert_array_equal(pl.projection_iterates(model, n, j, m, K, forced),
                                          np.cumsum(series[j - 1].terms), strict=True)

    @pytest.mark.parametrize("m", [0, 2])
    def test_cumulative_quadrature_terms(self, m):
        # on the quadrature the iterates are the running sums of the first K
        # terms of the default result's record, whose stop rule runs longer
        model, n, K = pl.Farima(0.3), 8, 12
        series = pl.finite_predictor_multistep(model, n, m).series
        assert len(series[0].terms) > K
        for j in (1, 3, n):
            np.testing.assert_array_equal(pl.projection_iterates(model, n, j, m, K),
                                          np.cumsum(series[j - 1].terms[:K]), strict=True)

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
