"""Reference values for the benchmark's correctness check.

Everything here is built from closed forms and SciPy only; nothing imports
predictorlab, so a bug in either of the library's routes cannot also sit in
the reference it is measured against.

* Fractional noise (1-z)^{-d} with unit innovations:
  gamma(0) = Gamma(1-2d) / Gamma(1-d)^2, gamma(k) = gamma(k-1) (k-1+d)/(k-d).
* An AR(1) factor 1/(1 - r z) on top of it:
  gamma_X(k) = sum_h r^|h| gamma_Y(k+h) / (1 - r^2).
* AR(1) itself: gamma(k) = r^k / (1 - r^2); the m-step predictor from the
  last n values is r^(m+1) on lag 1 and zero elsewhere.
* Predictors: the Toeplitz normal equations solved by scipy.linalg.solve_toeplitz,
  with the right-hand side shifted by m for an m-step horizon.
* The kernel of the explicit series for fractional noise:
  beta_i = sin(pi d) / (pi (i - d)) (Gauss's 2F1 sum), whence
  d_1(n, u) = beta_{n+u}, d_2 in digammas, d_3 by a summed series whose
  tail is closed by a midpoint integral.
"""

from __future__ import annotations

import numpy as np
from scipy import integrate
from scipy.linalg import solve_toeplitz
from scipy.special import digamma, gammaln, polygamma

#: an AR(1) factor's two-sided weights r^|h| are dropped below this
_GEOMETRIC_FLOOR = 1e-20

#: terms of the d_3 series summed explicitly before the tail integral
_DK_TERMS = 1 << 16


def fractional_noise_autocov(d: float, N: int) -> np.ndarray:
    """gamma(0..N) of (1-z)^{-d} with unit innovation variance."""
    out = np.empty(N + 1)
    out[0] = np.exp(gammaln(1.0 - 2.0 * d) - 2.0 * gammaln(1.0 - d))
    if N:
        k = np.arange(1, N + 1, dtype=float)
        out[1:] = out[0] * np.cumprod((k - 1.0 + d) / (k - d))
    return out


def farima_autocov(d: float, N: int, ar: float = 0.0) -> np.ndarray:
    """gamma(0..N) of (1-z)^{-d} / (1 - ar z); ar = 0 is plain fractional noise."""
    if ar == 0.0:
        return fractional_noise_autocov(d, N)
    H = int(np.ceil(np.log(_GEOMETRIC_FLOOR) / np.log(abs(ar))))
    base = fractional_noise_autocov(d, N + H)
    # lags k+h for h in [-H, H] fold to |k+h|
    lags = np.abs(np.arange(N + 1)[:, None] + np.arange(-H, H + 1)[None, :])
    weights = ar ** np.abs(np.arange(-H, H + 1))
    return base[lags] @ weights / (1.0 - ar * ar)


def ar1_autocov(r: float, N: int) -> np.ndarray:
    return r ** np.arange(N + 1, dtype=float) / (1.0 - r * r)


def predictor(gamma: np.ndarray, n: int, m: int = 0) -> np.ndarray:
    """phi^m_{n,1..n}: weights of X_{-1}..X_{-n} in the best predictor of X_m."""
    return solve_toeplitz(gamma[:n], gamma[m + 1:m + n + 1])


def ar1_predictor(r: float, n: int, m: int = 0) -> np.ndarray:
    out = np.zeros(n)
    out[0] = r ** (m + 1)
    return out


def infinite_predictor(d: float, N: int) -> np.ndarray:
    """phi_1..phi_N of the infinite past for fractional noise: minus the
    coefficients of (1-z)^d."""
    k = np.arange(1, N + 1, dtype=float)
    return -np.cumprod((k - 1.0 - d) / k)


def kernel_beta(d: float, i) -> np.ndarray:
    return np.sin(np.pi * d) / (np.pi * (np.asarray(i, dtype=float) - d))


def _d2(d: float, n: int, w: np.ndarray) -> np.ndarray:
    """d_2(n, w) = sum_v beta_{n+w+v} beta_{n+v}, summed in closed form."""
    s2 = (np.sin(np.pi * d) / np.pi) ** 2
    w = np.asarray(w, dtype=float)
    out = np.empty(w.shape)
    zero = w == 0
    out[zero] = s2 * polygamma(1, n - d)
    wp = w[~zero]
    out[~zero] = s2 * (digamma(n + wp - d) - digamma(n - d)) / wp
    return out


def kernel_dk(d: float, k: int, n: int, u: int) -> float:
    """d_k(n, u) for k = 1, 2, 3: the k-th iterate of the offset-n Hankel
    kernel of fractional noise, without inner truncation."""
    if k == 1:
        return float(kernel_beta(d, n + u))
    if k == 2:
        return float(_d2(d, n, np.array([u]))[0])
    if k != 3:
        raise ValueError(f"kernel_dk covers k <= 3, got {k}")
    s = np.sin(np.pi * d) / np.pi
    w = np.arange(_DK_TERMS, dtype=float)
    head = float(np.sum(kernel_beta(d, n + u + w) * _d2(d, n, w)))
    # beyond the explicit terms psi(x) = log(x - 1/2) to O(x^-2), and the
    # smooth summand is replaced by its midpoint integral from X = W - 1/2,
    # taken over t = X/x in (0, 1] where only a log singularity is left
    psi0 = digamma(n - d)
    X = _DK_TERMS - 0.5

    def integrand(t):
        x = X / t
        return (s ** 3 * (np.log(n + x - d - 0.5) - psi0) / (x * (n + u + x - d))
                * X / (t * t))
    tail, _ = integrate.quad(integrand, 0.0, 1.0, epsabs=0.0, epsrel=1e-12, limit=200)
    return head + tail
