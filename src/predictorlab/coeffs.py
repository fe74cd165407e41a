"""Coefficient expansions: MA/AR sequences, autocovariances, infinite predictor.

The outer function ``h(z)`` of an admissible model is expanded as
``h(z) = sum c_n z^n`` (MA coefficients) and ``-1/h(z) = sum a_n z^n``
(AR coefficients).  Autocovariances come from the correlation formula
``gamma(n) = sum_k c_{n+k} c_k`` and the infinite-past predictor weights are
``phi_j = c_0 a_j``.

Long-memory models make the inner sums converge slowly (summand ~ k^{2d-2});
the truncation residuals are removed by midpoint integral comparison so that
desk-scale truncation lengths reach ~1e-9 absolute accuracy.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.fft import next_fast_len
from scipy.linalg import toeplitz

from .errors import DegeneracyError, TruncationError
from .models import Ar1, ExplicitModel, Farima, ProcessModel, Regime, regime

__all__ = [
    "CoeffKind",
    "CoeffSeq",
    "AutocovSeq",
    "expand_ma",
    "expand_ar",
    "autocov",
    "infinite_predictor",
    "tail_sum_phi",
    "ell_estimate",
]

#: default inner truncation for long-memory autocovariance sums
DEFAULT_AUTOCOV_M = 1 << 18

#: expansion entries below this are treated as numerically dead (short-memory cutoff)
_DECAY_FLOOR = 1e-19

#: Gauss-Legendre nodes/weights on [0, 1] for the tail integrals
_GAUSS_X, _GAUSS_W = np.polynomial.legendre.leggauss(32)
_GAUSS_X = 0.5 * (_GAUSS_X + 1.0)
_GAUSS_W = 0.5 * _GAUSS_W


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
    """Autocovariances gamma(0..N) with the residual truncation bound.

    ``tail_estimate`` bounds the absolute error left in each entry after
    the inner-sum tail treatment (correction applied for long memory,
    geometric bound for short memory).
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
            try:
                np.linalg.cholesky(toeplitz(vals[:order]))
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


def _rational_series(num: tuple[float, ...], den: tuple[float, ...], n_terms: int) -> np.ndarray:
    """Power-series coefficients of num(z)/den(z) via the linear recurrence
    (an impulse response; den must be invertible at 0)."""
    # scipy.signal is slow to import, and only models with ARMA factors need it
    from scipy.signal import lfilter
    impulse = np.zeros(n_terms)
    impulse[0] = 1.0
    return lfilter(np.asarray(num, dtype=float), np.asarray(den, dtype=float), impulse)


def _truncated_product(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Cauchy product of two equal-length series, truncated to that length."""
    n = len(u)
    if n <= 4096:
        return np.convolve(u, v)[:n]
    return _convolve_window(u, v, 0, n)


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
    return next_fast_len(max(lo + count, len_x + len_y - 1 - lo), real=True)


def _convolve_window(x: np.ndarray, y: np.ndarray, lo: int, count: int) -> np.ndarray:
    """Entries lo..lo+count-1 of the linear convolution x * y, by FFT at the
    length of _window_fft_len.  An input longer than that length is cut to
    it, which drops only terms that land past the window."""
    npts = _window_fft_len(len(x), len(y), lo, count)
    fx = np.fft.rfft(x, npts)
    fx *= np.fft.rfft(y, npts)
    # a copy, so that a cached window does not keep the whole transform alive
    return np.fft.irfft(fx, npts)[lo:lo + count].copy()


def _is_unit_poly(coeffs: tuple[float, ...]) -> bool:
    return coeffs == (1.0,)


def _farima_expansion(model: Farima, n_terms: int, kind: CoeffKind) -> np.ndarray:
    if kind is CoeffKind.MA:
        frac_d, num, den = model.d, model.ma_poly.coefficients, model.ar_poly.coefficients
    else:
        frac_d, num, den = -model.d, model.ar_poly.coefficients, model.ma_poly.coefficients
    trivial_ratio = _is_unit_poly(num) and _is_unit_poly(den)
    if trivial_ratio:
        out = _binomial_series(frac_d, n_terms)
    elif model.d == 0.0:
        out = _rational_series(num, den, n_terms)
    else:
        out = _truncated_product(_binomial_series(frac_d, n_terms),
                                 _rational_series(num, den, n_terms))
    if kind is CoeffKind.AR:
        out = -out
    return out


@lru_cache(maxsize=8)
def _expansion_cached(model: ProcessModel, n_terms: int, kind: CoeffKind) -> np.ndarray:
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


def ell_estimate(model: ProcessModel, M: int | None = None) -> float:
    """Normalization constant of the regular decay c_n ~ ell * n^{d-1}.

    Estimated empirically from the computed expansion at two scales with one
    Richardson step (the relative correction is ~ 1/n).  Only meaningful for
    long-memory models; raises otherwise.
    """
    if not isinstance(model, Farima) or model.d <= 0.0:
        raise ValueError("ell is defined for long-memory models only")
    if M is None:
        M = 1 << 17
    c = _expansion(model, M + 1, CoeffKind.MA)
    d = model.d
    ell_full = c[M] * M ** (1.0 - d)
    ell_half = c[M // 2] * (M // 2) ** (1.0 - d)
    return 2.0 * ell_full - ell_half


def _autocov_tail_correction(d: float, ell: float, n: np.ndarray, k0: np.ndarray) -> np.ndarray:
    """Integral comparison for the neglected tail sum_{k > K} c_{n+k} c_k.

    Approximates the tail by ell^2 * int_{k0}^inf k^{d-1} (k+n)^{d-1} dk with
    k0 at the midpoint (second-order accurate).  The u^{-2d} endpoint
    singularity after mapping to [0,1] is absorbed by the substitution
    u = s^{1/(1-2d)}, leaving a smooth integrand for fixed-order Gauss-Legendre.
    """
    p = 1.0 / (1.0 - 2.0 * d)
    s = _GAUSS_X ** p
    # integrand: k0^d * (k0 + n*u)^{d-1} at u = s, times the substitution factor p
    base = k0[:, None] + n[:, None] * s[None, :]
    vals = (k0[:, None] ** d) * base ** (d - 1.0)
    return (ell * ell * p) * vals @ _GAUSS_W


def autocov(model: ProcessModel, N: int, M: int | None = None) -> AutocovSeq:
    """Autocovariances gamma(0..N) from the MA expansion.

    Parameters
    ----------
    model : ProcessModel
    N : int
        Largest lag.
    M : int, optional
        Inner truncation for the correlation sum (>= N).  Defaults to a
        decay-derived length for short memory and 2^18 for long memory.

    Returns
    -------
    AutocovSeq
        gamma values with ``tail_estimate`` = residual bound per entry.
    """
    if N < 0:
        raise ValueError(f"N must be >= 0, got {N}")
    long_memory = regime(model) is Regime.LONG
    if M is None:
        M = DEFAULT_AUTOCOV_M if long_memory else _short_memory_length(model, N)
    if M < N:
        raise ValueError(f"M = {M} must be >= N = {N}")

    c = _expansion(model, M + 1, CoeffKind.MA)
    raw = _convolve_window(c, c[::-1], M, N + 1)

    if long_memory:
        d = model.d
        ell = ell_estimate(model, min(M, 1 << 17))
        lags = np.arange(N + 1, dtype=float)
        k0 = M - lags + 0.5
        corr = _autocov_tail_correction(d, ell, lags, k0)
        gamma = raw + corr
        # residual: next Euler-Maclaurin order plus the ell estimation error
        ell_drift = abs(ell - c[M] * M ** (1.0 - d)) / abs(ell)
        residual = float(np.max(corr) * (2.0 / np.min(k0) + 2.0 * ell_drift))
    else:
        gamma = raw.copy()
        live = np.abs(c[-(len(c) // 8 or 1):])
        residual = float(np.sum(live) * max(np.max(live), np.max(np.abs(c))) * 4.0)
    return AutocovSeq(gamma, tail_estimate=residual)


def _short_memory_length(model: ProcessModel, N: int) -> int:
    """Truncation length at which a short-memory MA expansion is numerically dead."""
    if isinstance(model, ExplicitModel):
        return max(N, len(model.c) - 1, len(model.a) - 1)
    M = max(256, N)
    while M < (1 << 20):
        c = _expansion(model, M + 1, CoeffKind.MA)
        if np.all(np.abs(c[-(M // 4):]) < _DECAY_FLOOR):
            return M
        M *= 2
    raise TruncationError("short-memory expansion does not decay below floor "
                          f"within {1 << 20} terms")


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
        the truncation N is restored from the regular decay phi_k ~ C k^{-1-d}
        using the last computed entry: ``|phi_N| * (N/d - 1/2)``.  For d = 0
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
        head += float(abs(phi[-1])) * (N / d - 0.5)
    return head


def phi_for_model(model: ProcessModel, N: int) -> np.ndarray:
    """Convenience: infinite predictor phi_1..phi_N straight from a model."""
    c = expand_ma(model, 0)
    a = expand_ar(model, N)
    return infinite_predictor(c, a, N)
