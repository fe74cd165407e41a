"""Process models: fractional ARIMA, AR(1), and explicitly given coefficient pairs.

A model fixes the spectral factorization ``f(w) = |h(e^{-iw})|^2 / (2 pi)`` through
its outer function ``h``.  The moving-average coefficients ``c_n`` are the Taylor
coefficients of ``h(z)`` and the autoregressive coefficients ``a_n`` those of
``-1/h(z)``; everything else in the library is computed from those two sequences.

Models are frozen (hashable) so expansions can be memoized on the model itself.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from .errors import ModelValidationError

__all__ = [
    "RealPolynomial",
    "Farima",
    "Ar1",
    "ExplicitModel",
    "ProcessModel",
    "Regime",
    "regime",
    "memory_exponent",
]

#: largest admissible memory parameter; d must stay strictly below 1/2
D_MAX = 0.5 - 1e-6

#: polynomial roots with modulus <= 1 + this margin are treated as on/inside the unit circle
UNIT_ROOT_MARGIN = 1e-9

#: numerator/denominator roots closer than this are treated as a common zero
COMMON_ZERO_TOL = 1e-8


@dataclass(frozen=True)
class RealPolynomial:
    """Real polynomial ``p(z) = coefficients[0] + coefficients[1] z + ...``.

    Trailing zero coefficients are trimmed on construction; the zero
    polynomial is rejected (every admissible model factor is invertible
    at the origin).
    """

    coefficients: tuple[float, ...] = (1.0,)

    def __post_init__(self):
        coeffs = tuple(float(c) for c in self.coefficients)
        if len(coeffs) == 0:
            raise ModelValidationError("polynomial needs at least one coefficient")
        if not all(np.isfinite(coeffs)):
            raise ModelValidationError(f"polynomial coefficients must be finite, got {coeffs}")
        while len(coeffs) > 1 and coeffs[-1] == 0.0:
            coeffs = coeffs[:-1]
        if coeffs == (0.0,):
            raise ModelValidationError("the zero polynomial is not admissible")
        object.__setattr__(self, "coefficients", coeffs)

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    def roots(self) -> np.ndarray:
        """Complex roots (empty array for degree zero)."""
        if self.degree == 0:
            return np.empty(0, dtype=complex)
        return np.roots(self.coefficients[::-1])


def _check_roots_outside_disk(poly: RealPolynomial, name: str) -> None:
    for r in poly.roots():
        if abs(r) <= 1.0 + UNIT_ROOT_MARGIN:
            raise ModelValidationError(
                f"{name} has a zero at {r:.12g} (|z| = {abs(r):.12g}) on or inside "
                f"the unit circle; the model is not invertible")


@dataclass(frozen=True)
class Farima:
    """Fractional ARIMA model with outer function ``(1-z)^{-d} ma_poly(z) / ar_poly(z)``.

    Parameters
    ----------
    d : float
        Memory parameter, ``0 <= d <= 1/2 - 1e-6``.  ``d > 0`` gives long memory.
    ar_poly, ma_poly : RealPolynomial
        Short-memory factors; both must be zero-free on the closed unit disk,
        share no common zero, and satisfy ``ma_poly(0)/ar_poly(0) > 0``.
    """

    d: float
    ar_poly: RealPolynomial = field(default=RealPolynomial((1.0,)))
    ma_poly: RealPolynomial = field(default=RealPolynomial((1.0,)))

    def __post_init__(self):
        object.__setattr__(self, "d", float(self.d))
        if isinstance(self.ar_poly, (tuple, list)):
            object.__setattr__(self, "ar_poly", RealPolynomial(tuple(self.ar_poly)))
        if isinstance(self.ma_poly, (tuple, list)):
            object.__setattr__(self, "ma_poly", RealPolynomial(tuple(self.ma_poly)))
        if not np.isfinite(self.d) or self.d < 0.0 or self.d > D_MAX:
            raise ModelValidationError(
                f"memory parameter d = {self.d!r} outside admissible range [0, {D_MAX}]")
        _check_roots_outside_disk(self.ar_poly, "ar_poly")
        _check_roots_outside_disk(self.ma_poly, "ma_poly")
        ar_roots = self.ar_poly.roots()
        for rm in self.ma_poly.roots():
            if ar_roots.size and np.min(np.abs(ar_roots - rm)) < COMMON_ZERO_TOL:
                raise ModelValidationError(
                    f"ar_poly and ma_poly share a zero near {rm:.12g}; cancel it first")
        ratio0 = self.ma_poly.coefficients[0] / self.ar_poly.coefficients[0]
        if not ratio0 > 0.0:
            raise ModelValidationError(
                f"ma_poly(0)/ar_poly(0) = {ratio0:.12g} must be positive "
                f"(outer function normalization h(0) > 0)")


@dataclass(frozen=True)
class Ar1:
    """First-order autoregression ``X_n = r X_{n-1} + xi_n`` with ``|r| < 1``.

    Outer function ``1/(1 - r z)``; the AR coefficient sequence has exact
    finite support, which makes this the canonical short-memory test model.
    """

    r: float

    def __post_init__(self):
        object.__setattr__(self, "r", float(self.r))
        if not np.isfinite(self.r) or not abs(self.r) < 1.0:
            raise ModelValidationError(f"AR(1) coefficient r = {self.r!r} must satisfy |r| < 1")


@dataclass(frozen=True)
class ExplicitModel:
    """Model given directly by finite MA and AR coefficient sequences.

    The sequences must be compatible: ``c[0] > 0``, ``a[0] = -1/c[0]``, and the
    convolution ``(c * a)_n`` must vanish for ``n >= 1`` on the common range
    (this is the statement that ``a`` really is the expansion of ``-1/h``).
    Finitely supported by construction, hence short memory.
    """

    c: tuple[float, ...]
    a: tuple[float, ...]

    #: tolerance for the convolution compatibility check
    _IDENT_TOL = 1e-8

    def __post_init__(self):
        c = tuple(float(v) for v in self.c)
        a = tuple(float(v) for v in self.a)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "a", a)
        if len(c) == 0 or len(a) == 0:
            raise ModelValidationError("explicit model needs nonempty c and a")
        if not (all(np.isfinite(c)) and all(np.isfinite(a))):
            raise ModelValidationError("explicit model coefficients must be finite")
        if not c[0] > 0.0:
            raise ModelValidationError(f"c[0] = {c[0]!r} must be positive")
        if abs(a[0] + 1.0 / c[0]) > self._IDENT_TOL:
            raise ModelValidationError(
                f"a[0] = {a[0]!r} incompatible with c[0] = {c[0]!r}; need a[0] = -1/c[0]")
        conv = np.convolve(c, a)
        n_check = min(len(c), len(a))
        err = np.max(np.abs(conv[1:n_check] + 0.0)) if n_check > 1 else 0.0
        if err > self._IDENT_TOL:
            raise ModelValidationError(
                f"c and a fail the inverse-series identity: max |(c*a)_n| = {err:.3e} "
                f"for 1 <= n < {n_check}")


ProcessModel = Farima | Ar1 | ExplicitModel


class Regime(str, enum.Enum):
    """Memory regime of a model.

    SHORT: summable MA/AR coefficients with geometric-type decay.
    LONG: regularly varying decay governed by a memory parameter ``0 < d < 1/2``.
    """

    SHORT = "short"
    LONG = "long"


def regime(model: ProcessModel) -> Regime:
    """Classify a model's memory regime."""
    if isinstance(model, Farima):
        return Regime.LONG if model.d > 0.0 else Regime.SHORT
    if isinstance(model, (Ar1, ExplicitModel)):
        return Regime.SHORT
    raise TypeError(f"not a process model: {model!r}")


def memory_exponent(model: ProcessModel) -> float:
    """Memory parameter ``d`` of a model (0 for short-memory models)."""
    if isinstance(model, Farima):
        return model.d
    if isinstance(model, (Ar1, ExplicitModel)):
        return 0.0
    raise TypeError(f"not a process model: {model!r}")
