"""Coefficient expansions: MA/AR sequences, autocovariances, infinite predictor.

The outer function ``h(z)`` of an admissible model is expanded as
``h(z) = sum c_n z^n`` (MA coefficients) and ``-1/h(z) = sum a_n z^n``
(AR coefficients); the infinite-past predictor weights are ``phi_j = c_0 a_j``.

Both are one recurrence (``_arma_series``): the binomial series of
(1-z)^{-d} filtered through the ARMA ratio, c at d through ma/ar and -a at
-d through ar/ma (at d = 0 the unit impulse, leaving the ratio alone).  It
runs term by term, so every prefix is the same at any length asked for.

The autocovariances ``gamma(k) = sum_v c_v c_{v+k}`` are not summed from c,
whose terms decay only like v^{2d-2} under long memory.  c is the product of
the fractional-noise expansion of (1-z)^{-d} and the short-memory factor r
(ma/ar for Farima, the powers r^p for Ar1, c itself for ExplicitModel), so
gamma is the fractional-noise autocovariance gamma0 in closed form (the
Gamma ratio of Hosking, Biometrika 1981; the unit impulse at d = 0)
correlated with ``rho_j = sum_p r_p r_{p+|j|}``.  r is expanded until it has
decayed below a floor, by the same rule (``_decayed``) that cuts the factors
of the explicit route's beta; one that does not decay within 2^20 terms
raises TruncationError.
"""

from __future__ import annotations

import enum
import math
from collections.abc import Callable
from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np

from .errors import DegeneracyError, TruncationError
from .models import Ar1, ExplicitModel, Farima, ProcessModel, memory_exponent

__all__ = [
    "CoeffKind",
    "CoeffSeq",
    "AutocovSeq",
    "expand_ma",
    "expand_ar",
    "autocov",
    "infinite_predictor",
    "tail_sum_phi",
]

#: expansion entries below this are treated as numerically dead (short-memory cutoff)
_DECAY_FLOOR = 1e-19

#: the longest expansion of a short-memory factor that _decayed tries
_DECAY_MAX_TERMS = 1 << 20

#: the FFT lengths 2^a 3^b 5^c up to 2^40, ascending (exact as floats)
_FAST_LENS = np.sort(np.multiply.outer(np.multiply.outer(
    2.0 ** np.arange(41), 3.0 ** np.arange(26)), 5.0 ** np.arange(18)), axis=None)
_FAST_LENS = _FAST_LENS[_FAST_LENS <= 2.0 ** 40]


class CoeffKind(str, enum.Enum):
    MA = "ma"
    AR = "ar"


@dataclass(frozen=True, eq=False)
class CoeffSeq:
    """Truncated coefficient expansion c_0..c_N (MA) or a_0..a_N (AR)."""

    kind: CoeffKind
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)
        if self.kind is CoeffKind.MA and not vals[0] > 0.0:
            raise ValueError(f"MA expansion must have c_0 > 0, got {vals[0]!r}")

    @property
    def truncation_length(self) -> int:
        return len(self.values) - 1

    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, idx):
        return self.values[idx]


@dataclass(frozen=True, eq=False)
class AutocovSeq:
    """Autocovariances gamma(0..N) with a bound on their error.

    ``tail_estimate`` bounds the absolute error of every entry: what the
    terms of the short-memory factor beyond its kept expansion can move
    gamma by, plus the rounding of the fractional-noise recurrence and of
    the correlations.  Fractional noise and finite factors drop nothing, so
    their bound is rounding alone.
    """

    values: np.ndarray
    tail_estimate: float = 0.0

    #: order up to which positive definiteness is verified on construction
    _PD_CHECK_ORDER = 20

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)
        if not vals[0] > 0.0:
            raise DegeneracyError(f"gamma(0) = {vals[0]!r} must be positive")
        if np.max(np.abs(vals)) > vals[0] * (1.0 + 1e-12):
            raise DegeneracyError("|gamma(n)| <= gamma(0) violated; not an autocovariance")
        order = min(len(vals), self._PD_CHECK_ORDER)
        if order > 1:
            lags = np.abs(np.subtract.outer(range(order), range(order)))
            try:
                np.linalg.cholesky(vals[lags])
            except np.linalg.LinAlgError as exc:
                raise DegeneracyError(
                    f"Toeplitz matrix of gamma not positive definite at order <= {order}"
                ) from exc

    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, idx):
        return self.values[idx]


def _binomial_series(d: float, n_terms: int) -> np.ndarray:
    """Coefficients of (1-z)^{-d}, computed by the multiplicative recurrence
    b_0 = 1, b_n = b_{n-1} (n-1+d)/n (stable; no Gamma-function overflow)."""
    out = np.empty(n_terms, dtype=float)
    out[0] = 1.0
    if n_terms > 1:
        k = np.arange(1, n_terms, dtype=float)
        np.cumprod((k - 1.0 + d) / k, out=out[1:])
    return out


def _is_unit_poly(coeffs: tuple[float, ...]) -> bool:
    return coeffs == (1.0,)


def _arma_series(num: tuple[float, ...], den: tuple[float, ...], d: float,
                 n_terms: int) -> np.ndarray:
    """Power-series coefficients of (1-z)^{-d} num(z)/den(z): the binomial
    series filtered through num/den by the recurrence den * out = num * b
    (den must be invertible at 0; at d = 0 b is the unit impulse), solved
    by forward substitution, so each entry reads only earlier ones."""
    out = _binomial_series(d, n_terms)
    if _is_unit_poly(num) and _is_unit_poly(den):
        return out
    return _forward_solve(den, np.convolve(out, num)[:n_terms, None])[:, 0]


def _forward_solve(den: tuple[float, ...], rhs: np.ndarray) -> np.ndarray:
    """x with den * x = rhs in each column of rhs, by forward substitution
    (one banded triangular solve for all columns; den_0 != 0)."""
    # imported lazily: only models with ARMA factors need scipy.linalg
    from scipy.linalg.lapack import dtbtrs
    # den as a lower triangular band: row k holds den_k, the k-th subdiagonal
    band = np.repeat(np.asarray(den, dtype=float)[:, None], len(rhs), axis=1)
    return dtbtrs(band, rhs, uplo="L")[0]


def _decayed(series: Callable[[int], np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """(rows of series(T), their last quarters' magnitudes) at the first
    T = 256, 512, ... where every last quarter is below _DECAY_FLOOR, or at
    2^20 terms.  A last quarter bounds what its row drops beyond T; one still
    above the floor is a row that has not decayed, for the caller to report
    in its bound or refuse."""
    T = 256
    while True:
        rows = np.atleast_2d(series(T))
        last = np.abs(rows[:, -(T // 4):])
        if T >= _DECAY_MAX_TERMS or last.max() < _DECAY_FLOOR:
            return rows, last
        T *= 2


def _next_fast_len(n: int) -> int:
    """Smallest 2^a 3^b 5^c >= n, the length scipy.fft.next_fast_len(n,
    real=True) picks; importing scipy.fft would pull in scipy.special."""
    return int(_FAST_LENS[np.searchsorted(_FAST_LENS, n)])


def _window_fft_len(len_x: int, len_y: int, lo: int, count: int) -> int:
    """Fast FFT length at which entries lo..lo+count-1 of the linear
    convolution of a length-len_x and a length-len_y sequence are unaliased.

    A circular convolution of length N adds linear entry i + N onto entry i.
    The window is read back below N, so N >= lo + count; and every entry that
    wraps onto it lies at or beyond lo + N, past the last linear entry
    len_x + len_y - 2 once N >= len_x + len_y - 1 - lo.  This is shorter than
    the full convolution length len_x + len_y - 1 unless lo = 0 or the window
    reaches the last entry.
    """
    return _next_fast_len(max(lo + count, len_x + len_y - 1 - lo))


def _convolve_window(x: np.ndarray, y: np.ndarray, lo: int, count: int) -> np.ndarray:
    """Entries lo..lo+count-1 of the linear convolution x * y, by FFT at the
    length of _window_fft_len; a 2-D y is columns, all convolved with x in
    one transform.  An input longer than that length is cut to it, which
    drops only terms that land past the window."""
    npts = _window_fft_len(len(x), len(y), lo, count)
    fx = np.fft.rfft(x, npts)
    fx = fx * np.fft.rfft(np.ascontiguousarray(y.T), npts)  # y's columns as rows
    # a copy, so that a cached window does not keep the whole transform alive
    return np.fft.irfft(fx, npts)[..., lo:lo + count].T.copy()


def _farima_expansion(model: Farima, n_terms: int, kind: CoeffKind) -> np.ndarray:
    num, den = model.ma_poly.coefficients, model.ar_poly.coefficients
    if kind is CoeffKind.MA:
        return _arma_series(num, den, model.d, n_terms)
    return -_arma_series(den, num, -model.d, n_terms)


def _expansion_values(model: ProcessModel, n_terms: int, kind: CoeffKind) -> np.ndarray:
    """The first n_terms of the model's MA or AR expansion, uncached."""
    if isinstance(model, Farima):
        out = _farima_expansion(model, n_terms, kind)
    elif isinstance(model, Ar1):
        if kind is CoeffKind.MA:
            out = model.r ** np.arange(n_terms, dtype=float)
        else:
            out = np.zeros(n_terms)
            out[0] = -1.0
            if n_terms > 1:
                out[1] = model.r
    elif isinstance(model, ExplicitModel):
        src = model.c if kind is CoeffKind.MA else model.a
        out = np.zeros(n_terms)
        take = min(n_terms, len(src))
        out[:take] = src[:take]
    else:
        raise TypeError(f"not a process model: {model!r}")
    out.setflags(write=False)
    return out


_expansion_cached = lru_cache(maxsize=8)(_expansion_values)


def _expansion(model: ProcessModel, min_terms: int, kind: CoeffKind) -> np.ndarray:
    # round the truncation index min_terms - 1 up to a power of two so
    # repeated requests share one entry; rounding the length instead would
    # double the common 2^k + 1 requests (c_0..c_{2^k})
    n_terms = (1 << max(0, min_terms - 2).bit_length()) + 1
    return _expansion_cached(model, n_terms, kind)[:min_terms]


def expand_ma(model: ProcessModel, N: int) -> CoeffSeq:
    """MA coefficients c_0..c_N of the model's outer function h(z).

    Parameters
    ----------
    model : ProcessModel
        Validated process model.
    N : int
        Truncation index (inclusive), N >= 0.

    Returns
    -------
    CoeffSeq with kind MA; c_0 > 0.
    """
    if N < 0:
        raise ValueError(f"N must be >= 0, got {N}")
    return CoeffSeq(CoeffKind.MA, _expansion(model, N + 1, CoeffKind.MA))


def expand_ar(model: ProcessModel, N: int) -> CoeffSeq:
    """AR coefficients a_0..a_N of -1/h(z); a_0 = -1/c_0."""
    if N < 0:
        raise ValueError(f"N must be >= 0, got {N}")
    return CoeffSeq(CoeffKind.AR, _expansion(model, N + 1, CoeffKind.AR))


def _fn_autocov(d: float, count: int) -> tuple[np.ndarray, float]:
    """gamma0(0..count-1) of fractional noise (1-z)^{-d} with unit
    innovations, gamma0(0) = Gamma(1-2d) / Gamma(1-d)^2 and gamma0(k) =
    gamma0(k-1) (k-1+d) / (k-d) (the unit impulse at d = 0), and a bound on
    its absolute rounding error: k steps of the recurrence round gamma0(k)
    by at most 2k eps relative, and math.gamma by a few ulps."""
    out = np.empty(count)
    out[0] = math.gamma(1.0 - 2.0 * d) / math.gamma(1.0 - d) ** 2
    k = np.arange(1, count, dtype=float)
    out[1:] = out[0] * np.cumprod((k - 1.0 + d) / (k - d))
    err = float(np.max((2.0 * np.arange(count) + 16.0) * out))
    return out, np.finfo(float).eps * err


def autocov(model: ProcessModel, N: int) -> AutocovSeq:
    """Autocovariances gamma(0..N) of the model with unit innovations: the
    fractional-noise gamma0 correlated with the short-memory factor's rho
    (module docstring), each left out where it is trivial.  Raises
    TruncationError when that factor has not decayed within 2^20 terms.
    """
    if N < 0:
        raise ValueError(f"N must be >= 0, got {N}")
    d = memory_exponent(model)
    if isinstance(model, ExplicitModel):
        r, last = np.asarray(model.c, dtype=float), np.zeros(1)
    elif isinstance(model, Ar1):
        (r,), last = _decayed(lambda T: model.r ** np.arange(T, dtype=float))
    elif _is_unit_poly(model.ma_poly.coefficients) and _is_unit_poly(model.ar_poly.coefficients):
        gamma0, rounding = _fn_autocov(d, N + 1)
        return AutocovSeq(gamma0, tail_estimate=rounding)
    else:
        (r,), last = _decayed(partial(_arma_series, model.ma_poly.coefficients,
                                      model.ar_poly.coefficients, 0.0))
    if last.max() >= _DECAY_FLOOR:
        raise TruncationError(f"short-memory factor does not decay below floor within "
                              f"{_DECAY_MAX_TERMS} terms", achieved=float(last.max()),
                              required=_DECAY_FLOOR)
    # the last quarter bounds r's dropped tail, which moves the rho_j by at
    # most twice that times sum |r| in total
    dropped = 2.0 * last.sum() * np.abs(r).sum()

    T = len(r)
    if d == 0.0:
        # gamma0 is the unit impulse: gamma is rho
        gamma = _convolve_window(r, r[::-1], T - 1, N + 1)
        gamma0_max, kernel_err = 1.0, 0.0
    else:
        rho = _convolve_window(r, r[::-1], 0, 2 * T - 1)
        gamma0, kernel_err = _fn_autocov(d, N + T)
        # gamma(k) = sum_j gamma0(|k-j|) rho_j, |j| < T: the kernel runs over
        # lags 1-T..N+T-1
        kernel = np.concatenate([gamma0[T - 1:0:-1], gamma0])
        gamma = _convolve_window(kernel, rho, 2 * T - 2, N + 1)
        gamma0_max = gamma0[0]
    # sum_j |rho_j| <= (sum |r|)^2; each of the (at most two) correlations
    # rounds by eps log2(length) times that times the kernel's largest entry
    rho_sum = np.abs(r).sum() ** 2
    rounding = 2.0 * np.finfo(float).eps * np.log2(N + 3 * T) * rho_sum
    return AutocovSeq(gamma, tail_estimate=float((dropped + rounding) * gamma0_max
                                                  + rho_sum * kernel_err))


def infinite_predictor(c: CoeffSeq, a: CoeffSeq, N: int) -> np.ndarray:
    """Infinite-past predictor coefficients phi_j = c_0 * a_j for j = 1..N."""
    if N < 0:
        raise ValueError(f"N must be >= 0, got {N}")
    if a.truncation_length < N:
        raise ValueError(f"AR sequence too short: have {a.truncation_length}, need {N}")
    return c.values[0] * a.values[1:N + 1]


def tail_sum_phi(phi: np.ndarray, n: int, d: float = 0.0) -> float:
    """Absolute tail sum ``sum_{k=n+1}^inf |phi_k|`` of predictor coefficients.

    Parameters
    ----------
    phi : array
        phi_1..phi_N (index 0 holds phi_1), N >> n.
    n : int
        Tail start (exclusive).
    d : float, optional
        Memory parameter of the generating model.  For d > 0 the part beyond
        the truncation N is ``1 - sum_{k<=N} phi_k`` (-1/h vanishes at 1, so
        the phi_k sum to 1), exact wherever phi_k >= 0 beyond N.  For d = 0
        the finite sum is exact (summable tail below floating noise by
        construction of the truncation).

    Returns
    -------
    float
    """
    phi = np.asarray(phi, dtype=float)
    N = len(phi)
    if not 0 <= n < N:
        raise ValueError(f"need 0 <= n < {N}, got n = {n}")
    head = float(np.sum(np.abs(phi[n:])))
    if d > 0.0:
        head += 1.0 - float(np.sum(phi))
    return head


def phi_for_model(model: ProcessModel, N: int) -> np.ndarray:
    """Convenience: infinite predictor phi_1..phi_N straight from a model."""
    c = expand_ma(model, 0)
    a = expand_ar(model, N)
    return infinite_predictor(c, a, N)
