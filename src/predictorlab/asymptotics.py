"""Long-memory asymptotics experiments.

Three quantitative limits are reproduced at desk scale:

* the convergence rate ``n (phi_{n,j} - phi_j) -> d^2 sum_{u>=j} phi_u``,
* the Baxter-type ratio ``sum_j |phi_{n,j} - phi_j| / sum_{k>n} |phi_k|``
  staying bounded while both sides decay like ``n^{-d}``,
* the kernel scaling ``n d_k(n, u) -> f_k(0) sin^k(pi d)`` with the f_k(0)
  read off the Taylor series of ``arcsin(x)/pi`` and its square.

Every experiment computes the predictor both ways (explicit series and
Durbin-Levinson on the series autocovariance) and aborts if they disagree,
so an asymptotic "pass" can never be an artifact of one broken route.
phi_j = c_0 a_j comes from the one expansion recurrence of ``coeffs``; the
rate's 1/n extrapolation is the two-point one, at the n run.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .coeffs import autocov, expand_ar, expand_ma, infinite_predictor, tail_sum_phi
from .errors import OracleDisagreementError, RegimeError
from .explicit import (_QUADRATURE_REMEDY, DEFAULT_POLICY, ExplicitPredictor,
                       TruncationPolicy, _check_tail, beta_for_model, d_vectors,
                       finite_predictor_explicit)
# durbin_levinson has no caller here; bench/layers.py wraps it by name in
# this module, so the name stays
from .levinson import durbin_levinson, multistep_normal_solve  # noqa: F401
from .models import ProcessModel, Regime, memory_exponent, regime

__all__ = [
    "RateReport",
    "BaxterReport",
    "DkScalingReport",
    "fk0",
    "f_u",
    "semigroup_integral",
    "rate_experiment",
    "baxter_experiment",
    "dk_scaling_experiment",
    "check_routes",
]

#: max abs disagreement allowed between the two predictor routes (long memory)
CROSS_CHECK_TOL = 1e-6

#: length of the phi expansion used for tail sums inside experiments
_PHI_TAIL_LEN = 1 << 17


def fk0(K: int) -> np.ndarray:
    """Constants f_1(0)..f_K(0) of the iterated kernel integrals.

    Odd entries are the Taylor coefficients of ``arcsin(x)/pi`` and even
    entries those of its square (Cauchy square of the odd series):
    f_1(0) = 1/pi, f_2(0) = 1/pi^2, f_3(0) = 1/(6 pi), ...
    """
    if K < 1:
        raise ValueError(f"K must be >= 1, got {K}")
    n_odd = (K + 2) // 2
    # arcsin x = sum_m A_m x^{2m+1}, A_m = binom(2m, m) / (4^m (2m+1))
    central = np.empty(n_odd)
    central[0] = 1.0
    if n_odd > 1:
        mseq = np.arange(1, n_odd, dtype=float)
        np.cumprod((2.0 * mseq - 1.0) / (2.0 * mseq), out=central[1:])
    arc = central / (2.0 * np.arange(n_odd) + 1.0)
    even = np.convolve(arc, arc)  # coefficient of x^{2(m1+m2+1)}
    out = np.empty(K)
    for k in range(1, K + 1):
        if k % 2 == 1:
            out[k - 1] = arc[(k - 1) // 2] / np.pi
        else:
            out[k - 1] = even[k // 2 - 1] / np.pi ** 2
    return out


def f_u(k: int, u: float) -> float:
    """f_k evaluated away from the origin, for k <= 4.

    The limit functions iterate the symmetric kernel f_1(x + y):
    f_{k+1}(u) = int_0^inf f_1(u + s) f_k(s) ds.  f_1 and f_2 have closed
    forms; f_3 and f_4 apply the kernel by quadrature.
    """
    if k == 1:
        return 1.0 / (np.pi * (1.0 + u))
    if k == 2:
        if u == 0.0:
            return 1.0 / np.pi ** 2
        return np.log1p(u) / (np.pi ** 2 * u)
    if k in (3, 4):
        # scipy.integrate is slow to import, and only these branches need it
        from scipy.integrate import quad
        eps_abs, eps_rel = (1e-12, 1e-11) if k == 3 else (1e-10, 1e-9)
        val, _ = quad(lambda s: f_u(1, u + s) * f_u(k - 1, s), 0.0, np.inf,
                      epsabs=eps_abs, epsrel=eps_rel, limit=200)
        return val
    raise ValueError(f"f_u implemented for k <= 4, got {k}")


def semigroup_integral(i: int, j: int) -> float:
    """Numerical ``int_0^inf f_i(u) f_j(u) du`` (should equal f_{i+j}(0))."""
    from scipy.integrate import quad
    val, _ = quad(lambda u: f_u(i, u) * f_u(j, u), 0.0, np.inf,
                  epsabs=1e-9, epsrel=1e-8, limit=200)
    return val


@dataclass(frozen=True, eq=False)
class RateReport:
    """Convergence-rate experiment: entries (n, phi_nj, n(phi_nj - phi_j))."""

    j: int
    entries: tuple[tuple[int, float, float], ...]
    theoretical_limit: float
    extrapolated: float


@dataclass(frozen=True, eq=False)
class BaxterReport:
    """Baxter-ratio experiment: entries (n, lhs, rhs, ratio); sup over n."""

    entries: tuple[tuple[int, float, float, float], ...]
    sup_ratio: float


@dataclass(frozen=True, eq=False)
class DkScalingReport:
    """Kernel scaling experiment: entries (k, n, n*d_k(n,u), f_k(0) sin^k(pi d))."""

    u: int
    entries: tuple[tuple[int, int, float, float], ...]


def _require_long_memory(model: ProcessModel, what: str) -> float:
    if regime(model) is not Regime.LONG:
        raise RegimeError(f"{what} requires a long-memory model, got {model!r}")
    return memory_exponent(model)


def check_routes(result: ExplicitPredictor, phi_levinson: np.ndarray) -> float:
    """Max abs difference between the explicit-series and Levinson weights.

    The tolerance is max(CROSS_CHECK_TOL, 8 x the series' largest residual
    estimate), so a run under a deliberately relaxed policy is compared at
    the accuracy it was asked for, not at the default.

    Raises OracleDisagreementError when the difference exceeds it.
    """
    resid = max(s.tail_estimate for s in result.series)
    tol = max(CROSS_CHECK_TOL, 8.0 * resid)
    diff = float(np.max(np.abs(result.table.coefficients - phi_levinson)))
    if not diff <= tol:  # a NaN difference fails too
        raise OracleDisagreementError(
            f"the two predictor routes disagree at n = {result.table.n}: "
            f"max diff {diff:.3e} > {tol:g}",
            max_diff=diff, tol=tol)
    return diff


#: ((model, policy), {n: read-only phi_{n,.}}, read-only phi_inf) of the
#: last sweep's model
_sweep_store: tuple = (None, {}, np.empty(0))


def _checked_sweep(model: ProcessModel, n_list: list[int],
                   policy: TruncationPolicy) -> tuple[np.ndarray, list[np.ndarray]]:
    """(phi_inf, the cross-checked explicit phi_{n,.} for each n in n_list).

    phi_inf is the infinite predictor to _PHI_TAIL_LEN terms, or one past
    the largest n where that is longer, so that every phi_{n,.} has a
    tail.

    The weights and phi_inf are kept in a per-process store for one (model,
    policy), until a sweep on another replaces it; each stored n passed
    check_routes when it was first computed, and an n that raised is not
    stored.  Only the n missing from it are solved and cross-checked, and
    phi_inf is rebuilt only when a sweep needs it longer.  Its expansion is
    a recurrence, so the head of a longer phi_inf is the shorter one.
    """
    global _sweep_store
    key = (model, policy)
    held, stored, phi_inf = _sweep_store  # read once: another sweep may replace it
    if held != key:
        stored, phi_inf = {}, np.empty(0)
    length = max(_PHI_TAIL_LEN, max(n_list) + 1)
    if len(phi_inf) < length:
        phi_inf = infinite_predictor(expand_ma(model, 0), expand_ar(model, length), length)
        phi_inf.setflags(write=False)
        _sweep_store = (key, stored, phi_inf)
    for n in n_list:
        if n not in stored:
            res = finite_predictor_explicit(model, n, policy)
            check_routes(res, multistep_normal_solve(autocov(model, n), n, 0).coefficients)
            stored[n] = res.table.coefficients
    return phi_inf[:length], [stored[n] for n in n_list]


def rate_experiment(model: ProcessModel, j: int, n_list,
                    policy: TruncationPolicy = DEFAULT_POLICY) -> RateReport:
    """Measure n (phi_{n,j} - phi_j) along n_list and compare with the limit
    d^2 sum_{u>=j} phi_u.

    For d > 0 the infinite predictor's weights sum to one, so the limit is
    the signed closed form d^2 (1 - sum_{u<j} phi_u).  The rates approach it
    with a finite-n correction ~ 1/n, so the report also carries the rate
    with that power eliminated between the two largest n (repeated n count
    once).

    Raises RegimeError for short-memory models (the limit statement needs
    long memory) and OracleDisagreementError if the two predictor routes
    disagree.  Weights come from _checked_sweep's store of the last model
    and policy, each cross-checked when first computed.
    """
    d = _require_long_memory(model, "rate experiment")
    if j < 1:
        raise ValueError(f"j must be >= 1, got {j}")
    n_list = sorted({int(n) for n in n_list})
    if j > n_list[0]:
        raise ValueError(f"j = {j} exceeds smallest n = {n_list[0]}")
    phi_inf, phis = _checked_sweep(model, n_list, policy)
    phi_j = float(phi_inf[j - 1])
    entries = []
    for n, phi in zip(n_list, phis):
        phi_nj = float(phi[j - 1])
        entries.append((n, phi_nj, n * (phi_nj - phi_j)))
    limit = d * d * (1.0 - float(np.sum(phi_inf[:j - 1])))
    # the gap n (phi_{n,j} - phi_j) - limit closes like 1/n (successive
    # differences halve per doubling of n, measured), so eliminate 1/n
    n2, _, extrap = entries[-1]
    if len(entries) > 1:
        n1, _, r1 = entries[-2]
        extrap = (n2 * extrap - n1 * r1) / (n2 - n1)
    return RateReport(j=j, entries=tuple(entries), theoretical_limit=float(limit),
                      extrapolated=extrap)


def baxter_experiment(model: ProcessModel, n_list,
                      policy: TruncationPolicy = DEFAULT_POLICY) -> BaxterReport:
    """Measure the Baxter ratio sum_j |phi_{n,j} - phi_j| / sum_{k>n} |phi_k|.

    Both sides decay like n^{-d}; the ratio stays bounded (the empirical
    sup over n_list stands in for the inequality's constant).  The weights
    are cross-checked, and stored, as in rate_experiment.  A repeated n
    counts once.
    """
    d = _require_long_memory(model, "Baxter experiment")
    n_list = sorted({int(n) for n in n_list})
    phi_inf, phis = _checked_sweep(model, n_list, policy)
    entries = []
    for n, phi in zip(n_list, phis):
        lhs = float(np.sum(np.abs(phi - phi_inf[:n])))
        rhs = tail_sum_phi(phi_inf, n, d)
        entries.append((n, lhs, rhs, lhs / rhs))
    sup_ratio = max(e[3] for e in entries)
    return BaxterReport(entries=tuple(entries), sup_ratio=float(sup_ratio))


def dk_scaling_experiment(model: ProcessModel, k_list, u: int, n_list,
                          policy: TruncationPolicy = DEFAULT_POLICY) -> DkScalingReport:
    """Tabulate n d_k(n, u) against the limit f_k(0) sin^k(pi d).

    The d_k come from d_vectors, on the quadrature for the window up to u;
    u must lie below resolve_v.  A repeated k or n counts once.  Raises
    TruncationError when their residual at some n exceeds tol_tail.
    """
    d = _require_long_memory(model, "d_k scaling experiment")
    if u < 0:
        raise ValueError(f"u must be >= 0, got {u}")
    k_list = sorted({int(k) for k in k_list})
    if k_list[0] < 1:
        raise ValueError(f"k must be >= 1, got {k_list[0]}")
    n_list = sorted({int(n) for n in n_list})
    # refused before any beta is built
    for n in n_list:
        if u >= policy.resolve_v(n, model):
            raise ValueError(
                f"u = {u} outside inner cutoff V = {policy.resolve_v(n, model)}")
    kmax = k_list[-1]
    s = np.sin(np.pi * d)
    targets = {k: float(f * s ** k) for k, f in zip(range(1, kmax + 1), fk0(kmax))}

    beta = beta_for_model(model, 0)
    rows = []
    for n in n_list:
        dv = d_vectors(beta, n, replace(policy, K=kmax, V=u + 1))
        _check_tail(dv.tail_estimate, policy, n, _QUADRATURE_REMEDY)
        rows += [(k, n, float(n * dv.vectors[k - 1][u]), targets[k])
                 for k in k_list if k <= dv.k_used]
    # by k, then n: the sort is stable
    return DkScalingReport(u=u, entries=tuple(sorted(rows, key=lambda r: r[0])))
