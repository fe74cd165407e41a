"""Levinson's recursion for the finite predictor's normal equations.

The classical route to finite predictor coefficients, used as the independent
oracle against the explicit series representation.  One loop (Levinson,
J. Math. Phys. 1947) serves every horizon in O(n^2) operations: it carries the
one-step predictor phi_k with sigma_k^2 = sigma_{k-1}^2 (1 - phi_{k,k}^2), and
for a horizon m > 0 extends the multistep solution by the reversed phi_k.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .coeffs import AutocovSeq, _convolve_window
from .errors import DegeneracyError

__all__ = [
    "PredictorSource",
    "PredictorTable",
    "durbin_levinson",
    "multistep_normal_solve",
]

#: innovation variance below this multiple of gamma(0) is treated as degenerate
DEGENERACY_FLOOR = 1e-14


class PredictorSource(str, enum.Enum):
    LEVINSON = "levinson"
    NORMAL_EQUATIONS = "normal-equations"
    EXPLICIT_SERIES = "explicit-series"


@dataclass(frozen=True, eq=False)
class PredictorTable:
    """Finite predictor coefficients for one order.

    ``coefficients[j-1]`` is the weight phi^m_{n,j} of X_{-j} in the best
    linear predictor of X_m from X_{-n}..X_{-1}; m = 0 is one-step prediction.
    ``sigma2`` is the prediction-error variance (populated for m = 0).
    """

    n: int
    horizon: int
    coefficients: np.ndarray
    source: PredictorSource
    sigma2: float | None = None

    def __post_init__(self):
        coeffs = np.asarray(self.coefficients, dtype=float)
        coeffs.setflags(write=False)
        object.__setattr__(self, "coefficients", coeffs)
        if len(coeffs) != self.n:
            raise ValueError(f"expected {self.n} coefficients, got {len(coeffs)}")


def _checked_gamma(gamma, n: int, m: int) -> np.ndarray:
    g = gamma.values if isinstance(gamma, AutocovSeq) else np.asarray(gamma, dtype=float)
    if n < 1:
        raise ValueError(f"order n must be >= 1, got {n}")
    if m < 0:
        raise ValueError(f"horizon m must be >= 0, got {m}")
    if len(g) < n + m + 1:
        raise ValueError(f"need gamma(0..{n + m}), got length {len(g)}")
    if not g[0] > 0.0:
        raise DegeneracyError("gamma(0) must be positive", order=0)
    return g


def _levinson(g: np.ndarray, n: int, m: int):
    """Solve toeplitz(g[0..k-1]) x_k = g[m+1..m+k] for k = 1..n.

    Yields (x_k, sigma2) per order, x_k a view the next order overwrites;
    at m = 0 x_k is phi_k and sigma2 its innovation variance.  For m > 0,
    x_k = [x_{k-1}, 0] + mu [-reversed(phi_{k-1}), 1], as the latter solves
    the order-k system for sigma_{k-1}^2 e_k; phi stops at order n - 1.
    Raises DegeneracyError at the first order whose sigma^2 is below the floor.
    """
    # scalars as Python floats; order k's lags gamma(k-1..1) are rev[n-k+1:], contiguous
    gl, gm, rev = g[:n + 1].tolist(), g[m + 1:m + n + 1].tolist(), g[n:0:-1].copy()
    phi = np.zeros(n)
    x = np.zeros(n) if m else phi
    sigma2, floor = gl[0], DEGENERACY_FLOOR * gl[0]
    for k in range(1, n + 1):
        head, lags = phi[:k - 1], rev[n - k + 1:]
        back = head[::-1]
        if m:
            mu = (gm[k - 1] - float(np.dot(x[:k - 1], lags))) / sigma2
            x[:k - 1] -= mu * back
            x[k - 1] = mu
        if not m or k < n:
            # reflection coefficient phi_{k,k}
            refl = (gl[k] - float(np.dot(head, lags))) / sigma2
            head -= refl * back
            phi[k - 1] = refl
            sigma2 *= 1.0 - refl * refl
            if sigma2 < floor:
                raise DegeneracyError(f"innovation variance collapsed at order {k}: "
                                      f"sigma^2 = {sigma2:.3e} < {floor:.3e}", order=k)
        yield x[:k], sigma2


def durbin_levinson(gamma, n: int) -> list[PredictorTable]:
    """Run the Durbin-Levinson recursion up to order n.

    Parameters
    ----------
    gamma : AutocovSeq or array
        Autocovariances gamma(0..N) with N >= n.
    n : int
        Final order, n >= 1.

    Returns
    -------
    list of PredictorTable
        Tables for orders 1..n (the final table is the last element).
        Each table carries sigma2; sigma_k^2 = sigma_{k-1}^2 (1 - phi_{k,k}^2).

    Raises
    ------
    DegeneracyError
        If an innovation variance falls below the degeneracy floor
        (loss of positive definiteness), naming the failing order.
    """
    g = _checked_gamma(gamma, n, 0)
    return [PredictorTable(n=len(phi), horizon=0, coefficients=phi.copy(),
                           source=PredictorSource.LEVINSON, sigma2=sigma2)
            for phi, sigma2 in _levinson(g, n, 0)]


def multistep_normal_solve(gamma, n: int, m: int) -> PredictorTable:
    """Solve the multistep prediction normal equations.

    Solves ``Gamma_n x = [gamma(m+1), ..., gamma(m+n)]^T`` by Levinson's
    recursion, where Gamma_n is the order-n autocovariance Toeplitz matrix;
    x holds the weights of the best linear predictor of X_m from the n past
    values.  At m = 0 it is bitwise ``durbin_levinson(gamma, n)[-1]``.

    Parameters
    ----------
    gamma : AutocovSeq or array of length >= n+m+1
    n : int
        Number of past observations, n >= 1.
    m : int
        Horizon; m = 0 reproduces one-step prediction.

    Raises
    ------
    DegeneracyError
        An innovation variance below the degeneracy floor, naming the order,
        or a solution residual above 1e-10 * gamma(0) or NaN.
    """
    g = _checked_gamma(gamma, n, m)
    for x, sigma2 in _levinson(g, n, m):  # ends at order n, keeping no list of the others
        pass
    rhs = g[m + 1:m + n + 1]
    # Gamma_n x is the middle of the convolution of x with gamma(n-1..1, 0..n-1)
    lags = np.concatenate((g[n - 1:0:-1], g[:n]))
    residual = float(np.max(np.abs(_convolve_window(lags, x, n - 1, n) - rhs)))
    if not residual <= 1e-10 * g[0]:  # a NaN residual fails too
        raise DegeneracyError(f"normal-equations residual {residual:.3e} exceeds "
                              "1e-10 * gamma(0)", order=n)
    return PredictorTable(n=n, horizon=m, coefficients=x.copy(),
                          source=PredictorSource.NORMAL_EQUATIONS,
                          sigma2=sigma2 if m == 0 else None)
