"""Shared oracles and strategies for the test suite.

The FARIMA oracles use closed forms independent of the library's series
machinery: multiplicative recurrences for the binomial expansions and the
Gamma-ratio formula for the autocovariance, so predictor coefficients can
be cross-checked through a route that never touches the code under test.
"""

from __future__ import annotations

import math

import numpy as np
from hypothesis import strategies as st
from scipy.special import gamma as Gamma

import predictorlab as pl


def farima_c_oracle(d: float, N: int) -> np.ndarray:
    """MA coefficients of (1-z)^{-d}: c_0 = 1, c_n = c_{n-1} (n-1+d)/n."""
    out = np.empty(N + 1)
    out[0] = 1.0
    for n in range(1, N + 1):
        out[n] = out[n - 1] * (n - 1 + d) / n
    return out


def farima_a_oracle(d: float, N: int) -> np.ndarray:
    """AR coefficients of -(1-z)^{d}: a_0 = -1, a_n = a_{n-1} (n-1-d)/n."""
    out = np.empty(N + 1)
    out[0] = -1.0
    for n in range(1, N + 1):
        out[n] = out[n - 1] * (n - 1 - d) / n
    return out


def farima_gamma_oracle(d: float, N: int) -> np.ndarray:
    """Autocovariances of the unit-innovation fractional noise:
    gamma(0) = Gamma(1-2d)/Gamma(1-d)^2, gamma(k) = gamma(k-1) (k-1+d)/(k-d)."""
    out = np.empty(N + 1)
    out[0] = Gamma(1.0 - 2.0 * d) / Gamma(1.0 - d) ** 2
    for k in range(1, N + 1):
        out[k] = out[k - 1] * (k - 1 + d) / (k - d)
    return out


def farima_ar1_gamma_oracle(d: float, ar: float, N: int) -> np.ndarray:
    """Autocovariances of (1-z)^{-d} / (1 - ar z) with unit innovations:
    gamma(k) = sum_h ar^|h| gamma0(k+h) / (1 - ar^2), gamma0 the fractional
    noise's, summed over |h| <= H with |ar|^H below 1e-20."""
    H = int(np.ceil(np.log(1e-20) / np.log(abs(ar))))
    gamma0 = farima_gamma_oracle(d, N + H)
    h = np.arange(-H, H + 1)
    lags = np.abs(np.arange(N + 1)[:, None] + h[None, :])
    return gamma0[lags] @ ar ** np.abs(h) / (1.0 - ar * ar)


def exact_phi(d: float, n: int) -> np.ndarray:
    """Finite predictor coefficients phi_{n,j} from the Gamma-ratio
    autocovariance through Durbin-Levinson; exact to machine rounding."""
    return pl.durbin_levinson(farima_gamma_oracle(d, n), n)[-1].coefficients


def hosking_phi(d: float, n: int) -> np.ndarray:
    """Finite predictor coefficients of fractional noise in closed form
    (Hosking, Fractional differencing, Biometrika 1981):
    phi_{n,j} = -C(n,j) Gamma(j-d) Gamma(n-d-j+1) / (Gamma(-d) Gamma(n-d+1)),
    positive for 0 < d < 1/2, from log-Gamma values only."""
    return np.array([math.exp(math.lgamma(n + 1) - math.lgamma(j + 1) - math.lgamma(n - j + 1)
                              + math.lgamma(j - d) + math.lgamma(n - d - j + 1)
                              - math.lgamma(-d) - math.lgamma(n - d + 1))
                     for j in range(1, n + 1)])


def brute_phi(gamma_vals: np.ndarray, n: int, m: int = 0) -> np.ndarray:
    """Normal-equations solve by dense linear algebra (no Toeplitz tricks)."""
    g = np.asarray(gamma_vals, dtype=float)
    G = np.array([[g[abs(i - j)] for j in range(n)] for i in range(n)])
    rhs = g[m + 1:m + n + 1]
    return np.linalg.solve(G, rhs)


def series_by_cauchy(fn, N: int, radius: float = 0.9) -> np.ndarray:
    """Taylor coefficients of an analytic function by FFT on a circle.

    The radius trades aliasing (wants small) against noise amplification by
    radius^{-n} (wants close to 1); 0.9 keeps both below ~1e-12 for n <= 60.
    """
    M = 1 << max(12, (2 * N).bit_length())
    z = radius * np.exp(2j * np.pi * np.arange(M) / M)
    vals = np.array([fn(zi) for zi in z])
    coeffs = np.fft.fft(vals) / M
    return (coeffs[:N + 1] / radius ** np.arange(N + 1)).real


# hypothesis strategies -----------------------------------------------------

def _ar1_models():
    return st.floats(min_value=-0.95, max_value=0.95,
                     allow_nan=False).map(lambda r: pl.Ar1(r=round(r, 6)))


def farima_models(d_min: float = 0.0, d_max: float = 0.45):
    """Strategy over ARMA(1,1) x FARIMA models with d_min <= d <= d_max."""
    ds = st.floats(min_value=d_min, max_value=d_max, allow_nan=False)
    qs = st.floats(min_value=-0.6, max_value=0.6, allow_nan=False)

    def build(d, qa, qm):
        qa, qm = round(qa, 6), round(qm, 6)
        if abs(qa - qm) < 1e-4:
            # identical factors would share a zero; keep them apart
            qm = -qm if abs(qm) > 1e-4 else 0.3
        return pl.Farima(round(d, 6), ar_poly=(1.0, qa), ma_poly=(1.0, qm))
    return st.builds(build, ds, qs, qs)


def _explicit_models():
    heads = st.floats(min_value=0.25, max_value=4.0, allow_nan=False)
    tails = st.lists(st.floats(min_value=-0.4, max_value=0.4, allow_nan=False),
                     min_size=0, max_size=3)

    def build(c0, rest):
        c = np.array([c0] + [round(v, 6) * c0 for v in rest])
        # invert the series so the pair satisfies the defining identity
        a = np.zeros(len(c))
        a[0] = -1.0 / c[0]
        for k in range(1, len(c)):
            a[k] = -np.dot(c[1:k + 1], a[k - 1::-1]) / c[0]
        return pl.ExplicitModel(c=tuple(c), a=tuple(a))
    return st.builds(build, heads, tails)


def any_model():
    """Strategy over valid models of all three variants."""
    return st.one_of(_ar1_models(), farima_models(), _explicit_models())
