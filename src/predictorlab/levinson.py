"""Solvers for the finite predictor's Toeplitz normal equations.

The classical route to finite predictor coefficients, used as the independent
oracle against the explicit series representation.  Levinson's recursion
(Levinson, J. Math. Phys. 1947) serves every horizon in O(n^2) operations: it
carries the one-step predictor phi_k with sigma_k^2 = sigma_{k-1}^2
(1 - phi_{k,k}^2), and for a horizon m > 0 extends the multistep solution by
the reversed phi_k.  ``durbin_levinson`` always runs it, as does
``multistep_normal_solve`` below order CG_MIN_ORDER.

From CG_MIN_ORDER up, ``multistep_normal_solve`` first runs conjugate
gradients on Gamma_n, O(n log n) per iteration: the product with Gamma_n is a
circulant embedding applied by FFT, and T. Chan's optimal circulant
preconditioner (SIAM J. Sci. Stat. Comput. 9, 1988; R. Chan and Ng, SIAM
Review 38, 1996) keeps the iteration count in the tens for a positive
spectral density.  One refinement step follows, its residual computed in
np.longdouble.  Where CG breaks down, exceeds its iteration cap, leaves a
residual above the check's or implies an innovation variance below the
degeneracy floor, the recursion runs instead, so every error it raises, and
the order it names, is unchanged.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .coeffs import AutocovSeq, _convolve_window, _next_fast_len
from .errors import DegeneracyError

__all__ = [
    "PredictorSource",
    "PredictorTable",
    "durbin_levinson",
    "multistep_normal_solve",
]

#: innovation variance below this multiple of gamma(0) is treated as degenerate
DEGENERACY_FLOOR = 1e-14

#: order from which multistep_normal_solve tries CG before the recursion.  On
#: a 2-core x86-64 VM (numpy 2.4) one Farima(0.3) solve took 1.8 ms by the
#: recursion against 2.2 ms by CG at n = 256, 3.5 against 2.8 ms at n = 512,
#: 7.4 against 3.8 ms at n = 1024 and 107 against 21 ms at n = 8192
CG_MIN_ORDER = 512

#: relative residual (2-norm) at which the solve and its correction each stop:
#: together about 1e-16, 15-20 iterations on long memory near d = 1/2
_CG_TOL = 1e-8

#: largest residual of an accepted solution, as a multiple of gamma(0)
_RESIDUAL_TOL = 1e-10


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


def _cg_max_iter(n: int) -> int:
    """CG iterations allowed at order n, both runs together.  One iteration
    cost the recursion's whole order-n solve over 23 at n = 512, 37 at 1024,
    116 at 8192 and 166 at 16384 (same VM), about 1.2 sqrt(n): a solve that
    hits the cap and falls back takes at most about twice the recursion's time."""
    return 5 * math.isqrt(n) // 4


def _embedding_spectrum(g: np.ndarray, n: int, npts: int) -> np.ndarray:
    """Eigenvalues of the length-npts circulant holding Gamma_n in its top
    left corner (npts >= 2n - 1), in g's precision."""
    col = np.zeros(npts, dtype=g.dtype)
    col[:n] = g[:n]
    col[npts - n + 1:] = g[n - 1:0:-1]
    return np.fft.rfft(col).real  # col is symmetric, so its spectrum is real


def _pcg(apply, precondition, b: np.ndarray, max_iter: int):
    """Preconditioned conjugate gradients on each row of b until its residual
    is below _CG_TOL times its norm.  Returns (solutions, iterations used), or
    None on a breakdown (p^T Gamma p <= 0 or NaN) or after max_iter iterations."""
    x, r = np.zeros_like(b), b.copy()
    z = precondition(r)
    p, rz = z.copy(), np.einsum("ij,ij->i", r, z)
    goal = _CG_TOL * np.linalg.norm(b, axis=1)
    active = ~(np.linalg.norm(r, axis=1) <= goal)  # a NaN row stays active
    used = 0
    while active.any():
        if used == max_iter:
            return None
        used += 1
        q = apply(p)
        pq = np.einsum("ij,ij->i", p, q)
        if not np.all(pq[active] > 0.0):
            return None
        # converged rows take no step, so they keep their solution
        alpha = np.divide(rz, pq, out=np.zeros_like(rz), where=active)
        x += alpha[:, None] * p
        r -= alpha[:, None] * q
        active &= ~(np.linalg.norm(r, axis=1) <= goal)
        z = precondition(r)
        rz, rz_old = np.einsum("ij,ij->i", r, z), rz
        p = z + np.divide(rz, rz_old, out=np.zeros_like(rz), where=active)[:, None] * p
    return x, used


def _residual(g: np.ndarray, x: np.ndarray, n: int, m: int) -> float:
    """max |Gamma_n x - gamma(m+1..m+n)|."""
    # Gamma_n x is the middle of the convolution of x with gamma(n-1..1, 0..n-1)
    lags = np.concatenate((g[n - 1:0:-1], g[:n]))
    return float(np.max(np.abs(_convolve_window(lags, x, n - 1, n) - g[m + 1:m + n + 1])))


def _cg_solve(g: np.ndarray, n: int, m: int):
    """(x, sigma_n^2) by preconditioned CG with one refinement step, or None
    where the recursion must decide: CG broke down or hit its cap, the
    residual check failed, or sigma_n^2 = gamma(0) - phi_n . gamma(1..n) is
    below the degeneracy floor.  The recursion's sigma_k^2 never increases
    with k, so sigma_n^2 above the floor clears every order it checks.  At
    m > 0 phi_n is a second right-hand side of the same runs."""
    j = np.arange(n)
    # T. Chan's circulant: c_j = ((n - j) gamma(j) + j gamma(n - j)) / n
    chan = ((n - j) * g[:n] + j * np.concatenate(([0.0], g[n - 1:0:-1]))) / n
    lam = np.fft.rfft(chan).real
    if not np.all(lam > 0.0):  # NaN included
        return None
    npts = _next_fast_len(2 * n - 1)
    spec = _embedding_spectrum(g, n, npts)

    def apply(v):
        return np.fft.irfft(np.fft.rfft(v, npts) * spec, npts)[:, :n]

    def precondition(v):
        return np.fft.irfft(np.fft.rfft(v) / lam, n)

    b = np.stack([g[1:n + 1], g[m + 1:m + n + 1]] if m else [g[1:n + 1]])
    max_iter = _cg_max_iter(n)
    solved = _pcg(apply, precondition, b, max_iter)
    if solved is None:
        return None
    x, used = solved
    # one refinement step: the residual of the float64 solution in extended
    # precision (plain float64 where np.longdouble is no wider), then CG on it
    gl = g[:m + n + 1].astype(np.longdouble)
    spec_l = _embedding_spectrum(gl, n, npts)
    rhs_l = np.stack([gl[1:n + 1], gl[m + 1:]] if m else [gl[1:n + 1]])
    resid = rhs_l - np.fft.irfft(np.fft.rfft(x.astype(np.longdouble), npts) * spec_l,
                                 npts)[:, :n]
    solved = _pcg(apply, precondition, resid.astype(float), max_iter - used)
    if solved is None:
        return None
    x += solved[0]
    if not _residual(g, x[-1], n, m) <= _RESIDUAL_TOL * g[0]:
        return None
    sigma2 = float(gl[0] - np.dot(x[0].astype(np.longdouble), gl[1:n + 1]))
    if not sigma2 >= DEGENERACY_FLOOR * g[0]:
        return None
    return x[-1], sigma2


def multistep_normal_solve(gamma, n: int, m: int) -> PredictorTable:
    """Solve the multistep prediction normal equations.

    Solves ``Gamma_n x = [gamma(m+1), ..., gamma(m+n)]^T``, where Gamma_n is
    the order-n autocovariance Toeplitz matrix; x holds the weights of the
    best linear predictor of X_m from the n past values.

    Below CG_MIN_ORDER this is Levinson's recursion, and at m = 0 bitwise
    ``durbin_levinson(gamma, n)[-1]``.  From CG_MIN_ORDER up it is
    circulant-preconditioned CG with one refinement step whose residual is
    taken in np.longdouble; sigma2 is then gamma(0) - x . gamma(1..n).  On an
    x86-64 build (80-bit long double) the result is within about 1e-16 of
    the exact solution, closer than the recursion's.  Where np.longdouble is
    float64 the refinement runs in double and the accuracy is plain CG's,
    about the recursion's.  Where CG fails or its answer does not pass the
    residual and degeneracy checks, the recursion decides.

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
    solved = _cg_solve(g, n, m) if n >= CG_MIN_ORDER else None
    if solved is None:
        for x, sigma2 in _levinson(g, n, m):  # ends at order n, keeping no list of the others
            pass
        residual = _residual(g, x, n, m)
        if not residual <= _RESIDUAL_TOL * g[0]:  # a NaN residual fails too
            raise DegeneracyError(f"normal-equations residual {residual:.3e} exceeds "
                                  "1e-10 * gamma(0)", order=n)
        x = x.copy()
    else:
        x, sigma2 = solved
    return PredictorTable(n=n, horizon=m, coefficients=x,
                          source=PredictorSource.NORMAL_EQUATIONS,
                          sigma2=sigma2 if m == 0 else None)
