"""Shared oracles, strategies and fixtures for the test suite.

The FARIMA oracles use closed forms independent of the library's series
machinery: multiplicative recurrences for the binomial expansions and the
Gamma-ratio formula for the autocovariance, so predictor coefficients can
be cross-checked through a route that never touches the code under test.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import strategies as st
from scipy.special import digamma, polygamma
from scipy.special import gamma as Gamma

import predictorlab as pl
from predictorlab import asymptotics


@pytest.fixture(autouse=True)
def _empty_sweep_store():
    """Start every test on an empty store of cross-checked sweep weights, so
    a test that patches a route reaches it whatever ran before."""
    asymptotics._sweep_store = (None, {}, np.empty(0))


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


def farima_dk_oracle(d: float, k: int, n: int, u: int) -> float:
    """d_k(n, u), the k-th iterate of fractional noise's offset-n kernel
    beta_i = c / (i - d), c = sin(pi d)/pi, in closed form for k <= 2:
    d_1 = c / (n + u - d), and by partial fractions
    d_2 = c^2 (psi(n+u-d) - psi(n-d)) / u, or c^2 psi'(n-d) at u = 0."""
    c = math.sin(math.pi * d) / math.pi
    if k == 1:
        return c / (n + u - d)
    if k != 2:
        raise ValueError(f"closed form for k <= 2, got {k}")
    if u == 0:
        return c * c * float(polygamma(1, n - d))
    return c * c * float(digamma(n + u - d) - digamma(n - d)) / u


def brute_phi(gamma_vals: np.ndarray, n: int, m: int = 0) -> np.ndarray:
    """Normal-equations solve by dense linear algebra (no Toeplitz tricks)."""
    g = np.asarray(gamma_vals, dtype=float)
    G = np.array([[g[abs(i - j)] for j in range(n)] for i in range(n)])
    rhs = g[m + 1:m + n + 1]
    return np.linalg.solve(G, rhs)


def levinson_longdouble(gamma_vals: np.ndarray, n: int, m: int = 0) -> np.ndarray:
    """Levinson's recursion for the normal equations Gamma_n x =
    gamma(m+1..m+n), run in np.longdouble from the float64 gamma: a reference
    about three digits closer to the exact solution than a float64 solve
    where long double is the 80-bit x87 format."""
    g = np.asarray(gamma_vals[:n + m + 1], dtype=np.longdouble)
    phi = np.zeros(n, dtype=np.longdouble)
    x = np.zeros(n, dtype=np.longdouble)
    sigma2 = g[0]
    for k in range(1, n + 1):
        lags = g[k - 1:0:-1]
        back = phi[k - 2::-1] if k > 1 else phi[:0]
        if m:
            mu = (g[m + k] - np.dot(x[:k - 1], lags)) / sigma2
            x[:k - 1] -= mu * back
            x[k - 1] = mu
        refl = (g[k] - np.dot(phi[:k - 1], lags)) / sigma2
        phi[:k - 1] -= refl * back
        phi[k - 1] = refl
        sigma2 *= 1 - refl * refl
    return (x if m else phi).astype(float)


def arma_phi_mpmath(ar, ma, n: int, m: int = 0, dps: int = 30) -> np.ndarray:
    """phi^m_{n,.} of Farima(0, ar, ma) from the normal equations solved in
    mpmath at ``dps`` digits.  The autocovariances are gamma(k) =
    sum_v c_v c_{v+k} over c = ma/ar, run by its recurrence until max(p, 1)
    terms in a row are below 10^-(dps + 10): a finite sum for pure MA."""
    import mpmath as mp
    with mp.workdps(dps):
        ar_m, ma_m = [mp.mpf(x) for x in ar], [mp.mpf(x) for x in ma]
        tiny, run = mp.mpf(10) ** -(dps + 10), max(len(ar) - 1, 1)
        c: list = []
        while len(c) < len(ma) or any(abs(x) >= tiny for x in c[-run:]):
            k = len(c)
            val = ma_m[k] if k < len(ma_m) else mp.mpf(0)
            val -= mp.fsum(ar_m[i] * c[k - i] for i in range(1, min(k, len(ar) - 1) + 1))
            c.append(val / ar_m[0])
        c += [mp.mpf(0)] * (n + m + 1)
        gamma = [mp.fsum(c[v] * c[v + k] for v in range(len(c) - n - m - 1))
                 for k in range(n + m + 1)]
        toeplitz = mp.matrix([[gamma[abs(i - j)] for j in range(n)] for i in range(n)])
        x = mp.lu_solve(toeplitz, mp.matrix(gamma[m + 1:m + n + 1]))
        return np.array([float(x[i]) for i in range(n)])


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
