"""Long-memory asymptotics experiments.

Three quantitative limits are reproduced at desk scale:

* the convergence rate ``n (phi_{n,j} - phi_j) -> d^2 sum_{u>=j} phi_u``,
* the Baxter-type ratio ``sum_j |phi_{n,j} - phi_j| / sum_{k>n} |phi_k|``
  staying bounded while both sides decay like ``n^{-d}``,
* the kernel scaling ``n d_k(n, u) -> f_k(0) sin^k(pi d)`` with the f_k(0)
  read off the Taylor series of ``arcsin(x)/pi`` and its square.

Each experiment returns one LawReport: the table of its law along the
sweep, and the scalars it summarises it by.  The rate and Baxter
experiments compute the predictor both ways (explicit series and
Durbin-Levinson on the series autocovariance) and abort if they disagree,
so an asymptotic "pass" can never be an artifact of one broken route; the
kernel scaling reads d_k off d_vectors alone, whose own residual gates it.
phi_j = c_0 a_j comes from the one expansion recurrence of ``coeffs``; the
rate's 1/n extrapolation is the two-point one, at the n run.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .coeffs import autocov, expand_ar, expand_ma, infinite_predictor, tail_sum_phi
from .errors import OracleDisagreementError, RegimeError
from .explicit import (DEFAULT_POLICY, ExplicitPredictor, TruncationPolicy, d_vectors,
                       finite_predictor_explicit)
# beta_for_model and durbin_levinson have no caller here; bench/layers.py
# wraps them by name in this module, so the names stay
from .explicit import beta_for_model  # noqa: F401
from .levinson import durbin_levinson, multistep_normal_solve  # noqa: F401
from .models import ProcessModel, memory_exponent

__all__ = [
    "LawReport",
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
class LawReport:
    """One law measured along a sweep: ``columns`` maps each column name to
    a 1-D array, in table order; ``summary`` maps each scalar's name to its
    value."""

    columns: dict[str, np.ndarray]
    summary: dict[str, float]


def _require_long_memory(model: ProcessModel, what: str) -> float:
    d = memory_exponent(model)
    if not d > 0.0:
        raise RegimeError(f"{what} requires a long-memory model, got {model!r}")
    return d


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


@lru_cache(maxsize=1)
def _checked_store(model: ProcessModel, policy: TruncationPolicy) -> dict[int, np.ndarray]:
    """{n: read-only phi_{n,.}} of the last (model, policy) swept; a sweep on
    another replaces it.  Each entry passed check_routes when it was
    computed, and an n that raised has none."""
    return {}


def _checked_sweep(model: ProcessModel, n_list: list[int],
                   policy: TruncationPolicy) -> list[np.ndarray]:
    """The cross-checked explicit phi_{n,.} for each n in n_list.

    Only the n missing from _checked_store are solved and cross-checked.  A
    sweep fills the dict it read at its start, so one that another sweep
    replaces midway keeps its own weights.
    """
    stored = _checked_store(model, policy)
    for n in n_list:
        if n not in stored:
            res = finite_predictor_explicit(model, n, policy)
            check_routes(res, multistep_normal_solve(autocov(model, n), n, 0).coefficients)
            stored[n] = res.table.coefficients
    return [stored[n] for n in n_list]


def rate_experiment(model: ProcessModel, j: int, n_list,
                    policy: TruncationPolicy = DEFAULT_POLICY) -> LawReport:
    """Measure n (phi_{n,j} - phi_j) along n_list and compare with the limit
    d^2 sum_{u>=j} phi_u: columns n, phi_nj, rate and limit.

    For d > 0 the infinite predictor's weights sum to one, so the limit is
    the signed closed form d^2 (1 - sum_{u<j} phi_u).  The rates approach it
    with a finite-n correction ~ 1/n, so the summary carries the limit and
    the rate with that power eliminated between the two largest n
    (extrapolated; repeated n count once).

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
    phi_inf = infinite_predictor(expand_ma(model, 0), expand_ar(model, j), j)
    phis = _checked_sweep(model, n_list, policy)
    ns = np.array(n_list)
    phi_nj = np.array([phi[j - 1] for phi in phis])
    rate = ns * (phi_nj - float(phi_inf[j - 1]))
    limit = d * d * (1.0 - float(np.sum(phi_inf[:j - 1])))
    # the gap n (phi_{n,j} - phi_j) - limit closes like 1/n (successive
    # differences halve per doubling of n, measured), so eliminate 1/n
    extrap = rate[-1]
    if len(ns) > 1:
        extrap = (ns[-1] * rate[-1] - ns[-2] * rate[-2]) / (ns[-1] - ns[-2])
    return LawReport({"n": ns, "phi_nj": phi_nj, "rate": rate,
                      "limit": np.full(len(ns), limit)},
                     {"limit": limit, "extrapolated": float(extrap)})


def baxter_experiment(model: ProcessModel, n_list,
                      policy: TruncationPolicy = DEFAULT_POLICY) -> LawReport:
    """Measure the Baxter ratio sum_j |phi_{n,j} - phi_j| / sum_{k>n} |phi_k|:
    columns n, lhs, rhs and ratio.

    Both sides decay like n^{-d}; the ratio stays bounded (the empirical
    sup over n_list, the summary's sup_ratio, stands in for the
    inequality's constant).  The weights
    are cross-checked, and stored, as in rate_experiment.  A repeated n
    counts once.
    """
    d = _require_long_memory(model, "Baxter experiment")
    n_list = sorted({int(n) for n in n_list})
    length = max(_PHI_TAIL_LEN, n_list[-1] + 1)  # every phi_{n,.} has a tail
    phi_inf = infinite_predictor(expand_ma(model, 0), expand_ar(model, length), length)
    phis = _checked_sweep(model, n_list, policy)
    lhs = np.array([np.sum(np.abs(phi - phi_inf[:n])) for n, phi in zip(n_list, phis)])
    rhs = np.array([tail_sum_phi(phi_inf, n, d) for n in n_list])
    ratio = lhs / rhs
    return LawReport({"n": np.array(n_list), "lhs": lhs, "rhs": rhs, "ratio": ratio},
                     {"sup_ratio": float(max(ratio))})


def dk_scaling_experiment(model: ProcessModel, k_list, u: int, n_list,
                          policy: TruncationPolicy = DEFAULT_POLICY) -> LawReport:
    """Tabulate n d_k(n, u) against the limit f_k(0) sin^k(pi d): columns
    k, n, n_dk and target, by k and then n, and an empty summary.

    The d_k come from d_vectors, on the quadrature for the window up to u;
    u must lie inside the policy's d_k window (resolve_v).  Every requested
    (k, n) has a row: each stage is an output here, not a term of a sum, so
    the stages run to the largest k unless one underflows, which raises
    ValueError naming k.  A repeated k or n counts once.  Raises
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
                f"u = {u} outside the d_k window V = {policy.resolve_v(n, model)} at n = {n}")
    kmax = k_list[-1]
    s = np.sin(np.pi * d)
    f = fk0(kmax)
    targets = [float(f[k - 1] * s ** k) for k in k_list]

    tiny = np.finfo(float).tiny
    n_dk = np.empty((len(k_list), len(n_list)))  # [k, n]
    for i, n in enumerate(n_list):
        # the stop rule ends the stages only at one below the smallest normal double
        dv = d_vectors(model, n, replace(policy, K=kmax, V=u + 1, tol_term=tiny))
        for k in k_list:
            if k > dv.k_used or not abs(dv.vectors[k - 1][u]) >= tiny:
                raise ValueError(f"d_{k}(n = {n}, u = {u}) underflows below the "
                                 f"smallest normal double {tiny:.3g}")
        n_dk[:, i] = [n * dv.vectors[k - 1][u] for k in k_list]
    per_k = len(n_list)
    return LawReport({"k": np.repeat(k_list, per_k), "n": np.tile(n_list, len(k_list)),
                      "n_dk": n_dk.ravel(), "target": np.repeat(targets, per_k)}, {})
