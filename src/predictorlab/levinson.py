"""Durbin-Levinson recursion and Toeplitz normal-equation solves.

This is the classical route to finite predictor coefficients, used as the
independent oracle against the explicit series representation.  The recursion
produces every intermediate order together with the innovation variances
sigma_k^2 = sigma_{k-1}^2 (1 - phi_{k,k}^2); the multistep solver goes through
a dense Cholesky factorization of the autocovariance Toeplitz matrix, which is
plenty at desk scale and keeps the code obviously correct.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve, toeplitz

from .coeffs import AutocovSeq
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


def _gamma_values(gamma) -> np.ndarray:
    if isinstance(gamma, AutocovSeq):
        return gamma.values
    return np.asarray(gamma, dtype=float)


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
    g = _gamma_values(gamma)
    if n < 1:
        raise ValueError(f"order n must be >= 1, got {n}")
    if len(g) < n + 1:
        raise ValueError(f"need gamma(0..{n}), got length {len(g)}")
    if not g[0] > 0.0:
        raise DegeneracyError("gamma(0) must be positive", order=0)

    tables: list[PredictorTable] = []
    phi = np.zeros(n)
    sigma2 = g[0]
    floor = DEGENERACY_FLOOR * g[0]
    for k in range(1, n + 1):
        # reflection coefficient phi_{k,k}
        acc = g[k] - np.dot(phi[:k - 1], g[k - 1:0:-1])
        refl = acc / sigma2
        prev = phi[:k - 1].copy()
        phi[:k - 1] = prev - refl * prev[::-1]
        phi[k - 1] = refl
        sigma2 = sigma2 * (1.0 - refl * refl)
        if sigma2 < floor:
            raise DegeneracyError(
                f"innovation variance collapsed at order {k}: "
                f"sigma^2 = {sigma2:.3e} < {floor:.3e}", order=k)
        tables.append(PredictorTable(n=k, horizon=0,
                                     coefficients=phi[:k].copy(),
                                     source=PredictorSource.LEVINSON,
                                     sigma2=float(sigma2)))
    return tables


def multistep_normal_solve(gamma, n: int, m: int) -> PredictorTable:
    """Solve the multistep prediction normal equations directly.

    Solves ``Gamma_n x = [gamma(m+1), ..., gamma(m+n)]^T`` by Cholesky, where
    Gamma_n is the order-n autocovariance Toeplitz matrix; x holds the weights
    of the best linear predictor of X_m from the n past values.

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
        Singular or non-positive-definite Gamma_n (carries a condition
        estimate), or a solution residual above 1e-10 * gamma(0).
    """
    g = _gamma_values(gamma)
    if n < 1:
        raise ValueError(f"order n must be >= 1, got {n}")
    if m < 0:
        raise ValueError(f"horizon m must be >= 0, got {m}")
    if len(g) < n + m + 1:
        raise ValueError(f"need gamma(0..{n + m}), got length {len(g)}")

    mat = toeplitz(g[:n])
    rhs = g[m + 1:m + n + 1]
    try:
        factor = cho_factor(mat)
    except np.linalg.LinAlgError as exc:
        raise DegeneracyError(
            f"Toeplitz system of order {n} not positive definite "
            f"(condition estimate {np.linalg.cond(mat):.3e})",
            order=n, condition=float(np.linalg.cond(mat))) from exc
    x = cho_solve(factor, rhs)

    residual = float(np.max(np.abs(mat @ x - rhs)))
    if residual > 1e-10 * g[0]:
        raise DegeneracyError(
            f"normal-equations residual {residual:.3e} exceeds 1e-10 * gamma(0) "
            f"(condition estimate {np.linalg.cond(mat):.3e})",
            order=n, condition=float(np.linalg.cond(mat)))
    sigma2 = None
    if m == 0:
        sigma2 = float(g[0] - np.dot(x, rhs))
    return PredictorTable(n=n, horizon=m, coefficients=x,
                          source=PredictorSource.NORMAL_EQUATIONS, sigma2=sigma2)
