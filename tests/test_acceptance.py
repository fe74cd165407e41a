"""Acceptance gate: one check per advertised guarantee, one printed line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
PASS/FAIL lines on a green run; pytest shows them automatically for failures.
"""

import time

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import predictorlab as pl
from predictorlab import TruncationPolicy, fk0, semigroup_integral

from conftest import any_model, farima_gamma_oracle


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    line = f"criterion {num} ({name}): {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" [{detail}]"
    print(line)
    assert ok, line


def test_criterion_1_ar1_exactness():
    start = time.perf_counter()
    worst = 0.0
    clean_tail = True
    for r in (-0.9, -0.5, 0.3, 0.5, 0.9):
        model = pl.Ar1(r)
        for n in (1, 4, 16, 64):
            expected = np.zeros(n)
            expected[0] = r
            res = pl.finite_predictor_explicit(model, n)
            gamma = pl.autocov(model, n)
            lev = pl.durbin_levinson(gamma, n)[-1].coefficients
            worst = max(worst,
                        float(np.max(np.abs(res.table.coefficients - expected))),
                        float(np.max(np.abs(lev - expected))))
            clean_tail &= all(np.all(s.terms[1:] == 0.0) for s in res.series)
    elapsed = time.perf_counter() - start
    ok = worst < 1e-10 and clean_tail and elapsed < 1.0
    _report(1, "ar1 exactness", ok,
            f"max dev {worst:.2e}, later terms all zero: {clean_tail}, "
            f"{elapsed:.2f}s")


def test_criterion_2_oracle_equivalence():
    worst = 0.0
    for d in (0.1, 0.25, 0.4):
        model = pl.Farima(d)
        gamma = farima_gamma_oracle(d, 512)
        for n in (8, 32, 128, 512):
            phi_exp = pl.finite_predictor_explicit(model, n).table.coefficients
            phi_lev = pl.durbin_levinson(gamma, n)[-1].coefficients
            worst = max(worst, float(np.max(np.abs(phi_exp - phi_lev))))
    _report(2, "oracle equivalence", worst < 1e-6, f"max dev {worst:.2e}")


def test_criterion_3_multistep_equivalence():
    model = pl.Farima(0.3)
    worst = 0.0
    for m in (1, 2, 5):
        phi_exp = pl.finite_predictor_multistep(model, 32, m).table.coefficients
        gamma = pl.autocov(model, 32 + m)
        phi_ne = pl.multistep_normal_solve(gamma, 32, m).coefficients
        worst = max(worst, float(np.max(np.abs(phi_exp - phi_ne))))

    res = pl.finite_predictor_multistep(pl.Ar1(0.5), 4, 2)
    ar_dev = float(np.max(np.abs(res.table.coefficients
                                 - np.array([0.125, 0.0, 0.0, 0.0]))))
    ok = worst < 1e-6 and ar_dev < 1e-10
    _report(3, "multistep equivalence", ok,
            f"max dev {worst:.2e}, two-step closed form dev {ar_dev:.2e}")


def test_criterion_4_convergence_rate():
    model = pl.Farima(0.3)
    devs = {}
    limits = {}
    for j in (1, 2):
        report = pl.rate_experiment(model, j, [128, 256, 512])
        devs[j] = abs(report.extrapolated - report.theoretical_limit) \
            / abs(report.theoretical_limit)
        limits[j] = report.theoretical_limit
    ok = devs[1] < 0.05 and devs[2] < 0.05 and abs(limits[1] - 0.09) < 1e-6
    _report(4, "convergence rate", ok,
            f"j=1 dev {devs[1]:.2%}, j=2 dev {devs[2]:.2%}")


def test_criterion_5_baxter_ratio():
    model = pl.Farima(0.3)
    n_list = [16, 32, 64, 128, 256, 512]
    report = pl.baxter_experiment(model, n_list)
    ratios = {n: ratio for (n, _, _, ratio) in report.entries}
    octave_var = abs(ratios[512] - ratios[256]) / ratios[256]
    tail = [e for e in report.entries if e[0] >= 128]
    logn = np.log([e[0] for e in tail])
    slope_lhs = float(np.polyfit(logn, np.log([e[1] for e in tail]), 1)[0])
    slope_rhs = float(np.polyfit(logn, np.log([e[2] for e in tail]), 1)[0])
    ok = np.isfinite(report.sup_ratio) and octave_var < 0.25 \
        and abs(slope_lhs + 0.3) < 0.05 and abs(slope_rhs + 0.3) < 0.05
    _report(5, "baxter ratio", ok,
            f"sup {report.sup_ratio:.3f}, octave var {octave_var:.2%}, "
            f"slopes {slope_lhs:.4f}/{slope_rhs:.4f}")


def test_criterion_6_kernel_scaling():
    model = pl.Farima(0.3)
    vals = {}
    for u in (0, 5):
        rep = pl.dk_scaling_experiment(model, [1, 2, 3], u, [2048])
        for k, _, n_dk, target in rep.entries:
            vals[(k, u)] = (n_dk, target)
    dev = max(abs(v - t) / t for v, t in vals.values())
    u_dev = max(abs(vals[(k, 0)][0] - vals[(k, 5)][0]) / vals[(k, 0)][1]
                for k in (1, 2, 3))
    ok = dev < 0.03 and u_dev < 0.02
    _report(6, "kernel scaling", ok,
            f"max target dev {dev:.2%}, max u dev {u_dev:.2%}")


def test_criterion_7_arcsin_identities():
    K = 60
    f = fk0(K + 2)
    series_ok = True
    for x in (0.1, 0.5, 0.8):
        ks_odd = np.arange(1, K + 1, 2)
        ks_even = np.arange(2, K + 1, 2)
        # next same-parity term bounds each remainder (term ratio < x^2),
        # plus a machine-epsilon floor for summation roundoff
        tail_odd = f[K] * x ** (K + 1) / (1.0 - x * x) + 5e-15
        tail_even = f[K + 1] * x ** (K + 2) / (1.0 - x * x) + 5e-15
        odd = float(np.sum(f[ks_odd - 1] * x ** ks_odd))
        even = float(np.sum(f[ks_even - 1] * x ** ks_even))
        series_ok &= abs(odd - np.arcsin(x) / np.pi) <= tail_odd
        series_ok &= abs(even - (np.arcsin(x) / np.pi) ** 2) <= tail_even
    semi_dev = max(abs(semigroup_integral(i, j) - f[i + j - 1])
                   for i, j in ((1, 1), (1, 2), (2, 2), (1, 3), (2, 3)))
    ok = series_ok and semi_dev < 1e-6
    _report(7, "arcsin identities", ok,
            f"series within tail: {series_ok}, semigroup dev {semi_dev:.2e}")


def test_criterion_8_structural_invariants():
    fast_policy = TruncationPolicy(V=512, tol_tail=1.0)
    base = settings(deadline=None, derandomize=True, database=None,
                    suppress_health_check=[HealthCheck.too_slow])

    @settings(base, max_examples=40)
    @given(model=any_model())
    def check_convolution(model):
        N = 24
        c = pl.expand_ma(model, N)
        a = pl.expand_ar(model, N)
        if isinstance(model, pl.ExplicitModel):
            N = min(len(model.c), len(model.a)) - 1
        conv = np.convolve(c, a)[:N + 1]
        target = np.zeros(N + 1)
        target[0] = -1.0
        assert np.max(np.abs(conv - target)) <= 1e-10

    @settings(base, max_examples=25)
    @given(n=st.integers(min_value=0, max_value=100),
           V=st.sampled_from([16, 64, 256]), data=st.data())
    def check_hankel(n, V, data):
        beta = pl.beta_for_model(pl.Farima(0.35), n + 2 * V + 4)
        x = np.array(data.draw(st.lists(
            st.floats(min_value=-100, max_value=100, allow_nan=False),
            min_size=V, max_size=V)))
        fast = pl.hankel_apply(beta, n, x, method="fft")
        direct = pl.hankel_apply(beta, n, x, method="direct")
        np.testing.assert_allclose(fast, direct, rtol=1e-12, atol=1e-12)

    @settings(base, max_examples=10)
    @given(d=st.floats(min_value=0.05, max_value=0.45),
           n=st.integers(min_value=4, max_value=24))
    def check_delta_symmetry(d, n):
        # both index orders are stored only on the u, v <= v_max corner
        model = pl.Farima(d)
        pol = TruncationPolicy(V=128, K=3)
        block = pl.delta_block(model, n, 4, pol).values
        corner = block[:, :5, :5]
        assert np.max(np.abs(corner - np.transpose(corner, (0, 2, 1)))) <= 1e-10

    @settings(base, max_examples=25)
    @given(model=any_model(), n=st.integers(min_value=1, max_value=12))
    def check_first_term(model, n):
        res = pl.finite_predictor_explicit(model, n, fast_policy)
        c0 = pl.expand_ma(model, 0)[0]
        a = pl.expand_ar(model, n)
        assert all(res.series[j - 1].terms[0] == c0 * a[j]
                   for j in range(1, n + 1))

    @settings(base, max_examples=25)
    @given(d=st.floats(min_value=0.0, max_value=0.45),
           lam=st.floats(min_value=1e-6, max_value=1e6),
           n=st.integers(min_value=1, max_value=24))
    def check_scale_invariance(d, lam, n):
        gamma = farima_gamma_oracle(d, n)
        base_t = pl.durbin_levinson(gamma, n)[-1]
        scaled = pl.durbin_levinson(lam * gamma, n)[-1]
        np.testing.assert_allclose(scaled.coefficients, base_t.coefficients,
                                   rtol=1e-12, atol=1e-12)
        assert scaled.sigma2 == pytest.approx(lam * base_t.sigma2, rel=1e-10)

    checks = [("convolution identity", check_convolution),
              ("hankel fast vs naive", check_hankel),
              ("delta symmetry", check_delta_symmetry),
              ("first series term", check_first_term),
              ("levinson scale invariance", check_scale_invariance)]
    failed = []
    for label, fn in checks:
        try:
            fn()
        except Exception as exc:
            print(f"  property '{label}' failed: {type(exc).__name__}: {exc}")
            failed.append(label)
    _report(8, "structural invariants", not failed,
            "all property checks held" if not failed
            else "failed: " + ", ".join(failed))
