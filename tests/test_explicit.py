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

from conftest import (arma_phi_mpmath, exact_phi, farima_a_oracle, farima_c_oracle,
                      farima_dk_oracle, farima_gamma_oracle, farima_models, hosking_phi)


class TestBeta:
    def test_ar1_finite_support_exact(self):
        beta = pl.beta_for_model(pl.Ar1(0.5), 10)
        expected = np.zeros(11)
        expected[0], expected[1] = -0.75, 0.5
        np.testing.assert_array_equal(beta.values, expected)
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
        monkeypatch.setattr(explicit, "_moment_system", no_run)
        with pytest.raises(TruncationError, match="ARMA factor has not decayed") as info:
            pl.finite_predictor_explicit(model, 4)
        assert "increase" not in str(info.value)

    @pytest.mark.parametrize("model", [
        # AR expansion decays like 0.9^n without underflowing: no finite support
        pl.Farima(0.0, ma_poly=pl.RealPolynomial((1.0, 0.9))),
        # and a corner of k0 = 3 entries ahead of the MA recurrence
        pl.Farima(0.0, ar_poly=(1.0, -0.5, 0.3, -0.1), ma_poly=(1.0, 0.4)),
    ], ids=["short-inexact", "short-corner"])
    def test_matches_full_length_convolution(self, model):
        # reference: scipy's "valid" correlation of expansions long enough
        # to have underflowed, against the closed form
        L, M = 300, 8192
        beta = pl.beta_for_model(model, L)
        c = pl.expand_ma(model, M)
        a = pl.expand_ar(model, M + L)
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


@pytest.mark.parametrize("model", [pl.Farima(0.3), pl.Farima(0.3, ar_poly=(1.0, -0.5)),
                                   pl.Farima(0.0, ar_poly=(1.0, -0.5), ma_poly=(1.0, 0.4))],
                         ids=repr)
def test_explicit_at_large_n_matches_normal_solve(model):
    # at n = 2^14 the read-out is one long FFT correlation over many blocks
    # of the nodes' powers, or of the MA recurrence; every weight is within
    # 1e-9 and within its own residual of the normal equations
    n = 2 ** 14
    res = pl.finite_predictor_explicit(model, n)
    want = pl.multistep_normal_solve(pl.autocov(model, n), n, 0).coefficients
    err = np.abs(res.table.coefficients - want)
    assert np.max(err) < 1e-9
    assert np.all(err <= [s.tail_estimate for s in res.series])


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

    def test_insufficient_beta_rejected(self):
        beta = pl.beta_for_model(pl.Farima(0.3), 50)
        with pytest.raises(ValueError):
            pl.hankel_apply(beta, 10, np.ones(32))


class TestDVectors:
    def test_ar1_terminates_immediately(self):
        dv = pl.d_vectors(pl.Ar1(0.5), 2, TruncationPolicy(V=64))
        assert dv.k_used == 1
        np.testing.assert_array_equal(dv.vectors[0], np.zeros(64))

    def test_residual_above_tol_tail_raises(self):
        # d_k check their own residual, as the weights do: the quadrature's
        # is about 2.7e-10 at d = 0.3, n = 512
        with pytest.raises(TruncationError, match="quadrature's own error") as info:
            pl.d_vectors(pl.Farima(0.3), 512, TruncationPolicy(K=2, V=8, tol_tail=1e-12))
        assert 1e-10 < info.value.achieved < 1e-9

    def test_undecayed_factor_refused_before_any_stage(self, monkeypatch):
        # beta's share is checked before the grids and their stages are
        # built, and the refusal names beta, as the weights' does
        def no_stages(*args):
            raise AssertionError("the refusal needs no stage")
        monkeypatch.setattr(explicit, "_stages", no_stages)
        with pytest.raises(TruncationError, match="beta's own error"):
            pl.d_vectors(pl.Farima(0.3, ar_poly=(1, -0.999999)), 512)

    def test_scaling_limits(self):
        # n d_k(n, 0) approaches f_k(0) sin^k(pi d)
        d, n = 0.3, 2048
        model = pl.Farima(d)
        dv = pl.d_vectors(model, n, TruncationPolicy(K=2))
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
                dv = pl.d_vectors(model, n, pol)
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
        block = pl.delta_block(model, 32, 2, pol)
        dv = pl.d_vectors(model, 32, pol)
        kk = min(block.k_used, dv.k_used)
        np.testing.assert_allclose(block.values[:kk, :, 0], dv.vectors[:kk],
                                   rtol=1e-10, atol=1e-15)

    def test_first_stage_is_beta_slice(self):
        # delta_1(n, u, v) = beta_{n+u+v}; at n = 32, u = 2, v = 3 that is beta_37
        model = pl.Farima(0.3)
        beta = pl.beta_for_model(model, 32 + 4 * 256)
        block = pl.delta_block(model, 32, 3, TruncationPolicy(V=256, K=2))
        assert block.values[0, 2, 3] == pytest.approx(beta[37], rel=1e-12)

    def test_symmetry(self):
        block = pl.delta_block(pl.Farima(0.35), 16, 5, TruncationPolicy(V=512, K=4))
        vals = block.values
        for u in range(6):
            for v in range(6):
                assert vals[:, u, v] == pytest.approx(vals[:, v, u], abs=1e-10)

    def test_negative_vmax_rejected(self):
        with pytest.raises(ValueError):
            pl.delta_block(pl.Farima(0.3), 8, -1)

    @pytest.mark.parametrize("model, n, v_max", [
        (pl.Farima(0.35), 8, 0),
        # a corner of 338 kernel rows beside the nodes
        (pl.Farima(0.3, ma_poly=(1.0, 0.9)), 1, 1),
        (pl.Farima(0.0, ma_poly=(1.0, 0.9)), 1, 0),
    ], ids=["pure", "corner", "short"])
    def test_stages_across_block_boundaries(self, model, n, v_max):
        # the stages run in blocks of _RECORD_BLOCK: a run over several
        # blocks ends at the first stage whose window is below tol_term, and
        # starts as the K = 3 run does
        policy = TruncationPolicy(V=16, K=500)
        block = pl.delta_block(model, n, v_max, policy)
        assert explicit._RECORD_BLOCK + 1 < block.k_used < policy.K
        sup = np.max(np.abs(block.values), axis=(1, 2))
        assert np.all(sup[:-1] >= policy.tol_term) and sup[-1] < policy.tol_term
        head = pl.delta_block(model, n, v_max, dataclasses.replace(policy, K=3))
        scale = np.max(np.abs(head.values))
        np.testing.assert_allclose(block.values[:3], head.values, rtol=0, atol=1e-14 * scale)
        if model.d == 0.0:
            # every stage is the kernel applied to the last, over the whole
            # kernel as far as it is above 1e-18 of its largest entry
            full = pl.beta_for_model(model, 1 << 12)
            W = int(np.nonzero(np.abs(full.values) > 1e-18 * scale)[0][-1]) + 1 - n
            x = full.values[n:n + W]
            for k in range(block.k_used):
                np.testing.assert_allclose(block.values[k, :, 0], x[:16], rtol=0,
                                           atol=1e-13 * scale)
                x = pl.hankel_apply(full, n, x, method="direct")


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
            a = pl.expand_ar(model, 16)
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


#: short memory: AR(1) and AR(2) (finite support), ARMA(1, 1), MA(1) whose
#: AR expansion decays slowly and very slowly, and a grid with q from 1 to 3
#: and p from 0 to 3: MA roots at +-1/0.999, a double-sided pair near the
#: circle, MA(3), ARMA(1, 2), ARMA(2, 3), and AR(3) x MA(1), whose corner of
#: k0 = 3 entries meets offset N = 2 at n = 1; AR(7) x MA(3) has a corner of
#: U0 = 3 rows beside a state of q = 3 there, whose columns reach furthest
#: into beta
_AR7 = (1.0, -0.3, 0.1, -0.05, 0.02, -0.01, 0.005, -0.002)
_SHORT_MODELS = [pl.Ar1(0.7), pl.Farima(0.0, ar_poly=(1.0, -0.5, 0.3)),
                 pl.Farima(0.0, ma_poly=(1.0, 0.9)),
                 pl.Farima(0.0, ar_poly=(1.0, -0.5), ma_poly=(1.0, 0.4)),
                 pl.Farima(0.0, ma_poly=(1.0, 0.99)),
                 pl.Farima(0.0, ma_poly=(1.0, 0.999)), pl.Farima(0.0, ma_poly=(1.0, -0.999)),
                 pl.Farima(0.0, ma_poly=(1.0, 0.0, -0.998001)),
                 pl.Farima(0.0, ma_poly=(1.0, 0.5, 0.3, -0.2)),
                 pl.Farima(0.0, ar_poly=(1.0, 0.6), ma_poly=(1.0, -1.2, 0.35)),
                 pl.Farima(0.0, ar_poly=(1.0, -0.5, 0.3), ma_poly=(1.0, 0.4, -0.3, 0.2)),
                 pl.Farima(0.0, ar_poly=(1.0, -0.5, 0.3, -0.1), ma_poly=(1.0, 0.4)),
                 pl.Farima(0.0, ar_poly=_AR7, ma_poly=(1.0, 0.3, 0.2, 0.1))]


class TestShortMemory:
    """d = 0: one solve on the kernel's corner plus state, in closed form."""

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
        # the closed form truncates nothing but still rounds; the residual
        # covers that, with nothing added
        res = pl.finite_predictor_multistep(model, n, m)
        want = pl.multistep_normal_solve(pl.autocov(model, n + m), n, m).coefficients
        err = np.abs(res.table.coefficients - want)
        assert np.all(err <= [s.tail_estimate for s in res.series])

    @pytest.mark.parametrize("model", _SHORT_MODELS, ids=repr)
    @pytest.mark.parametrize("m", [0, 2])
    def test_long_past_covers_normal_solve(self, model, m):
        # at n = 512 the normal equations round by up to 5e-13 for MA roots
        # near the circle (against MA(1)'s closed form below, the closed form
        # is 2e-16 off), so the comparison allows what rounding the
        # autocovariances by eps relative moves them by
        res = pl.finite_predictor_multistep(model, 512, m)
        want, allowance = _normal_solve_with_allowance(model, 512, m)
        err = np.abs(res.table.coefficients - want)
        assert np.all(err <= np.array([s.tail_estimate for s in res.series]) + allowance)

    @pytest.mark.parametrize("n", [16, 512])
    @pytest.mark.parametrize("theta", [0.9, 0.99, -0.99, 0.999, -0.999])
    def test_ma1_against_its_closed_form(self, theta, n):
        # phi_j = -(-theta)^j (1 - theta^(2(n+1-j))) / (1 - theta^(2(n+1))),
        # evaluated at 40 digits: every weight within its residual
        import mpmath as mp
        with mp.workdps(40):
            t = mp.mpf(theta)
            want = np.array([float(-(-t) ** j * (1 - t ** (2 * (n + 1 - j)))
                                   / (1 - t ** (2 * (n + 1)))) for j in range(1, n + 1)])
        res = pl.finite_predictor_explicit(pl.Farima(0.0, ma_poly=(1.0, theta)), n)
        err = np.abs(res.table.coefficients - want)
        assert np.all(err <= [s.tail_estimate for s in res.series])

    @pytest.mark.parametrize("n", [1, 2, 4, 16])
    @pytest.mark.parametrize("m", [0, 2])
    @pytest.mark.parametrize("ar, ma", [
        ((1.0,), (1.0, 0.999)), ((1.0,), (1.0, -0.999)), ((1.0,), (1.0, 0.5, 0.3, -0.2)),
        ((1.0, -0.5, 0.3), (1.0, 0.4, -0.3, 0.2)), ((1.0, -0.5, 0.3, -0.1), (1.0, 0.4)),
        (_AR7, (1.0, 0.3, 0.2, 0.1))],
        ids=["ma1+", "ma1-", "ma3", "arma23", "corner", "corner-ma3"])
    def test_closed_form_against_mpmath(self, ar, ma, n, m):
        # every weight is within its reported residual of a 30-digit solve of
        # the normal equations; q >= 2 on purpose, where a transposed Y
        # would be far off, and N < k0 for the corners at n = 1 (beside a
        # state of q = 3 for AR(7) x MA(3))
        res = pl.finite_predictor_multistep(pl.Farima(0.0, ar_poly=ar, ma_poly=ma), n, m)
        err = np.abs(res.table.coefficients - arma_phi_mpmath(ar, ma, n, m))
        assert np.all(err <= [s.tail_estimate for s in res.series])

    @pytest.mark.parametrize("model", _SHORT_MODELS, ids=repr)
    def test_one_path_whatever_the_policy(self, capsys, model):
        # a pinned V, even one below the horizon, or a pinned K leaves the
        # weights, residuals, record and iterates bitwise as they are
        n, m = 8, 3
        default = pl.finite_predictor_multistep(model, n, m)
        iterates = pl.projection_iterates(model, n, 2, m, K=6)
        # the record stops at its tolerance, the iterates at K
        record = default.series[1].terms[:6]
        np.testing.assert_array_equal(iterates[:len(record)], np.cumsum(record))
        for pins in ({"V": 4}, {"V": 64}, {"K": 1}, {"K": 2}):
            policy = TruncationPolicy(**pins)
            res = pl.finite_predictor_multistep(model, n, m, policy)
            _assert_same_fields(default.table, res.table)
            for a, b in zip(default.series, res.series):
                _assert_same_fields(a, b)
            np.testing.assert_array_equal(
                pl.projection_iterates(model, n, 2, m, K=6, policy=policy), iterates)
        argv = ["predict", "--n", "4", "--terms", "--source", "explicit", "--model"]
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
        # beta_{n+w} runs over the whole kernel, and the block's v = 0
        # column is d_k
        n, V = 2, 16
        beta = pl.beta_for_model(model, 0)
        policy = TruncationPolicy(V=V, K=2)
        dv = pl.d_vectors(model, n, policy)
        block = pl.delta_block(model, n, 2, policy)
        assert dv.vectors.shape[1] == V and block.values.shape[1:] == (V, 3)
        # beta's share: its rounding
        assert 4.0 * beta.tail_estimate <= dv.tail_estimate < 1e-12
        k = min(dv.k_used, block.k_used)
        np.testing.assert_allclose(block.values[:k, :, 0], dv.vectors[:k],
                                   rtol=1e-10, atol=1e-15)
        # a window narrower than the corner plus state still gets the beta
        # its system reads, and is the wide window's first entry
        narrow = pl.delta_block(model, n, 0, TruncationPolicy(V=1, K=2))
        np.testing.assert_allclose(narrow.values, block.values[:narrow.k_used, :1, :1],
                                   rtol=1e-10, atol=1e-15)
        # the kernel as far as it is above 1e-18 of its largest entry
        # (0.999^i gets there by i = 41400)
        full = pl.beta_for_model(model, 1 << 17).values
        W = int(np.nonzero(np.abs(full) > 1e-18 * np.max(np.abs(full)))[0][-1]) + 1 - n
        d2 = full[n + np.add.outer(np.arange(V), np.arange(W))] @ full[n:n + W]
        if dv.k_used == 1:  # the first stage is exactly zero
            assert not np.any(dv.vectors)
        else:
            np.testing.assert_allclose(dv.vectors[1], d2, rtol=0,
                                       atol=1e-13 * np.max(np.abs(d2)))

    def test_undecayed_root_refused_by_its_rounding(self):
        # MA root at 1/0.9999999: no factor is expanded, but I - M^2 is
        # ill-conditioned enough that the rounding bound exceeds tol_tail
        with pytest.raises(TruncationError, match="closed form's rounding") as info:
            pl.finite_predictor_explicit(pl.Farima(0.0, ma_poly=(1.0, 0.9999999)), 4)
        assert "increase" not in str(info.value)

    def test_corner_above_cap_refused_up_front(self, monkeypatch):
        # an ExplicitModel whose a ends at 5000 entries has a corner of 4998
        # rows at n = 1: refused before any system is built
        def no_system(*args, **kwargs):
            raise AssertionError("the system must be refused before it is built")
        monkeypatch.setattr(explicit, "_short_system", no_system)
        model = pl.ExplicitModel(c=(1.0,), a=(-1.0,) + (0.0,) * 4998 + (1e-3,))
        with pytest.raises(TruncationError, match="corner of 4998"):
            pl.finite_predictor_explicit(model, 1)
        with pytest.raises(TruncationError, match="corner of 4999"):
            pl.d_vectors(model, 1)


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
        default = pl.finite_predictor_multistep(model, n, m)
        dv = pl.d_vectors(model, n)
        iterates = pl.projection_iterates(model, n, 2, m, K=6)

        def no_solve(*args):
            raise AssertionError("long memory must stay on the nodes")
        for name in ("_short_setup", "_short_system"):
            monkeypatch.setattr(explicit, name, no_solve)
        for pins in ({"V": 4}, {"K": 2}, {"V": 4, "K": 2}):
            policy = TruncationPolicy(**pins)
            res = pl.finite_predictor_multistep(model, n, m, policy)
            _assert_same_fields(default.table, res.table)
            assert len(res.series[0].terms) <= policy.resolve_k(model)
            np.testing.assert_array_equal(
                pl.projection_iterates(model, n, 2, m, K=6, policy=policy), iterates)
            window = pl.d_vectors(model, n, policy)
            V = policy.resolve_v(n, model)
            assert window.vectors.shape == (min(dv.k_used, policy.resolve_k(model)), V)
            np.testing.assert_allclose(window.vectors, dv.vectors[:window.k_used, :V],
                                       rtol=1e-14, atol=0.0)

    @pytest.mark.parametrize("d, factors, n, m", [
        *(pytest.param(d, f, n, m, id=f"{name}-{n}-{m}") for m in (0, 2) for n in (1, 8, 64)
          for name, d, f in [
              *((f"pure-{d}", d, {}) for d in (0.05, 0.1, 0.3, 0.45)),
              # a factored record at d = 0.45 takes about a thousand stages
              *((f"{i}-{d}", d, f) for i, f in zip(_FACTOR_IDS, _FACTORS) for d in (0.1, 0.3)),
              # and short memory's, on its corner plus state
              *((f"{i}-0.0", 0.0, f) for i, f in zip(_FACTOR_IDS, _FACTORS))]),
        # at n = 4096 the stages are read over several blocks: an MA root
        # near the circle, with a corner of 341 rows, and short memory on
        # the state of an MA root at 1/0.99999
        pytest.param(0.45, {"ma_poly": (1.0, 0.992)}, 4096, 0, id="corner-0.45-4096-0"),
        pytest.param(0.0, {"ma_poly": (1.0, 0.99999)}, 4096, 0, id="ma1-0.0-4096-0")])
    def test_record_sums_to_table(self, d, factors, n, m):
        # the per-term record is the Neumann sum of the same system (the
        # quadrature, or short memory's corner plus state), so its running
        # sums reach the table they stop against
        model = pl.Farima(d, **factors)
        res = pl.finite_predictor_multistep(model, n, m)
        record = np.array([s.terms for s in res.series])
        assert record.shape[1] <= TruncationPolicy().resolve_k(model)
        if n == 4096:
            assert record.shape[1] > 2 * explicit._RECORD_BLOCK
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
        monkeypatch.setattr(explicit, "_short_system", no_solve)
        model, policy = pl.Farima(d), TruncationPolicy(K=2)
        dv = pl.d_vectors(model, n, policy)
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
        monkeypatch.setattr(explicit, "_short_system", no_solve)
        model, policy = pl.Farima(d, **factors), TruncationPolicy(K=2, V=64)
        dv = pl.d_vectors(model, n, policy)
        assert dv.vectors.shape == (2, 64)
        for k in (1, 2):
            for u in (0, 5, 63):
                want = _factored_dk_oracle(model, k, n, u)
                assert abs(dv.vectors[k - 1][u] - want) <= dv.tail_estimate

    def test_delta_block_symmetric_corner(self, monkeypatch):
        def no_solve(*args):
            raise AssertionError("delta_k of fractional noise must run on the nodes")
        monkeypatch.setattr(explicit, "_short_system", no_solve)
        block = pl.delta_block(pl.Farima(0.35), 16, 4, TruncationPolicy(K=4))
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
        # reports, on the nodes for the factored long-memory model, which run
        # K stages with no early stop, and on AR(1)'s corner, whose record
        # reaches the table exactly at g_1 and stops there: every later term
        # is an exact zero
        n, K = 8, 12
        forced = TruncationPolicy(K=K, tol_term=1e-300, tol_tail=1.0)
        series = pl.finite_predictor_multistep(model, n, m, forced).series
        for j in (1, 3, n):
            iterates = pl.projection_iterates(model, n, j, m, K, forced)
            terms = series[j - 1].terms
            assert len(iterates) == K
            np.testing.assert_array_equal(iterates[:len(terms)], np.cumsum(terms), strict=True)
            np.testing.assert_array_equal(iterates[len(terms):], iterates[len(terms) - 1])

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
