import numpy as np
import pytest
from scipy.special import gamma as Gamma

import oracle


@pytest.mark.parametrize("r", [-0.9, -0.3, 0.5, 0.95])
@pytest.mark.parametrize("n, m", [(1, 0), (8, 0), (64, 0), (8, 2), (64, 3)])
def test_toeplitz_solve_reproduces_ar1_closed_form(r, n, m):
    got = oracle.predictor(oracle.ar1_autocov(r, n + m), n, m)
    np.testing.assert_allclose(got, oracle.ar1_predictor(r, n, m), rtol=0, atol=1e-12)


def test_fractional_noise_autocov_matches_gamma_ratio_closed_form():
    d = 0.3
    k = np.arange(0, 50)
    closed = (Gamma(1 - 2 * d) * Gamma(k + d)
              / (Gamma(d) * Gamma(1 - d) * Gamma(k + 1 - d)))
    np.testing.assert_allclose(oracle.fractional_noise_autocov(d, 49), closed, rtol=1e-12)


def test_ar_factor_with_zero_memory_is_ar1():
    np.testing.assert_allclose(oracle.farima_autocov(0.0, 40, ar=0.6),
                               oracle.ar1_autocov(0.6, 40), rtol=1e-12)


def test_infinite_predictor_is_limit_of_finite_predictors():
    d = 0.2
    phi_inf = oracle.infinite_predictor(d, 8)
    phi_n = oracle.predictor(oracle.fractional_noise_autocov(d, 4096), 4096)
    np.testing.assert_allclose(phi_n[:8], phi_inf, rtol=2e-3)


def test_kernel_iterates_match_brute_force_sums():
    d, n, u = 0.3, 16, 3
    w = np.arange(1 << 18)
    beta = lambda i: oracle.kernel_beta(d, i)
    d2 = np.array([np.sum(beta(n + v + w) * beta(n + w)) for v in range(64)])
    # brute force d_2 leaves a tail ~ (sin(pi d)/pi)^2 / 2^18
    assert oracle.kernel_dk(d, 2, n, u) == pytest.approx(d2[u], abs=1e-6)
    assert oracle.kernel_dk(d, 1, n, u) == beta(n + u)
    # d_3 converges with the explicit-term count: halving it moves nothing
    full = oracle.kernel_dk(d, 3, n, u)
    half = oracle._DK_TERMS
    try:
        oracle._DK_TERMS = half // 2
        assert oracle.kernel_dk(d, 3, n, u) == pytest.approx(full, rel=1e-12)
    finally:
        oracle._DK_TERMS = half
