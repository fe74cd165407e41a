"""Explicit series representation of finite predictor coefficients.

The finite predictor weights phi^m_{n,j} are assembled as a series
``sum_k g^m_k(n, j)`` whose terms come from iterating a Hankel kernel
``H[u, w] = beta_{offset+u+w}`` built on the cross-correlation
``beta_i = sum_v c_v a_{v+i}`` of the MA and AR expansions:

    delta_0(u, v) = [u == v]
    delta_k(., v) = H delta_{k-1}(., v)          (offset n+1)
    b_k^m(n, j)   = sum_{v<=m} c_{m-v} sum_u a_{j+u} delta_{k-1}(u, v)
    g_k^m(n, j)   = b_k^m(n, j)      for odd k
                    b_k^m(n, n+1-j)  for even k

Partial sums in k are the alternating-projection iterates (project onto the
span of the infinite past, then onto the past window, alternating), so the
per-term record doubles as a convergence diagnostic.

The series is a Neumann series in the symmetric kernel H at offset n+1, so
the predictor's value path does not sum it stage by stage: it solves
(I - H^2) z = y by conjugate gradients and reads the sum off A H z and
A z (see _solve_run), in a handful of iterations where the sum takes tens
of stages.  The per-term record is the stage-by-stage sum, computed only
when a caller reads it.

Long memory has no cutoff at all (see _moment_system): beta is the kernel
beta0_k = c/(k - d), c = sin(pi d)/pi, correlated with the two-sided
correlation rho of the ARMA factors (rho = 1 for pure fractional noise), so
beta_i = c int_0^1 t^(i-d-1) rho(t) dt, rho(t) = sum_j rho_j t^j, wherever
i + j >= 1 for every kept j.  The solve becomes a dense system on the
nodes of a quadrature of that moment operator (a Nystrom method; Atkinson,
The Numerical Solution of Integral Equations of the Second Kind, 1997):
a trapezoid rule in y, t = 1/(1 + e^-y), with weights of the sign of
rho(t), plus an explicit corner for the kernel's first rows.  Pure noise
has neither sign nor corner: 282 nodes at d = 0.3, n = 64, within about
1e-14 of Hosking's closed form.  The residual is the distance from the
same solve on every other node.  The same nodes give the record and the
iterates d_k, delta_k, under any policy, and no factor needs its roots.

Short memory (d = 0) has no cutoff to choose either: its kernel ends at
the support BetaSeq.inner_len, so one solve at the cutoff
V* = max(inner_len - n - 1, m + 1) serves every output whatever V says
(d_k and delta_k run once at max(V, inner_len - n) and return V entries in
u).  An exact support stays exactly zero under rfft/irfft of zero blocks,
so for AR(1) every stage k >= 2 is an exact zero.

Every correlation here (beta, the Hankel apply, the AR correlation) keeps a
window of a linear convolution, so its FFT runs at the shortest circular
length that leaves the window unaliased, max(lo + count, total - lo) for a
window lo..lo+count-1 of a length-total convolution, rather than at the full
length: the entries that wrap around land below the window.  That is about
2V instead of 3V points per Hankel apply and L + 2T instead of L + 4T for
long-memory beta, a closed-form kernel correlated with T terms of its ARMA
factors; the window is exact either way, so only rounding changes.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field, replace
from functools import cache, cached_property, lru_cache, partial

import numpy as np

from .coeffs import (CoeffKind, _arma_series, _convolve_window, _decayed,
                     _expansion_values, _window_fft_len, expand_ar, expand_ma)
from .errors import TruncationError
from .levinson import PredictorSource, PredictorTable
from .models import Farima, ProcessModel, memory_exponent

__all__ = [
    "TruncationPolicy",
    "BetaSeq",
    "SeriesTerms",
    "DVectors",
    "DeltaBlock",
    "ExplicitPredictor",
    "beta_for_model",
    "hankel_apply",
    "d_vectors",
    "delta_block",
    "finite_predictor_explicit",
    "finite_predictor_multistep",
    "projection_iterates",
]

#: exact-support path is used when the AR expansion support is at most this
_EXACT_SUPPORT_MAX = 4096

#: hard ceiling on the resolved series depth
_K_CAP = 20000

#: floor for the effective per-term stopping tolerance of a series run
_STOP_FLOOR = 1e-14


@dataclass(frozen=True)
class TruncationPolicy:
    """Controls for the truncation of the explicit series.

    Long memory (d > 0) runs on a quadrature with no cutoff, so V and K only
    bound what d_k, delta_k and the per-term record return.  Short memory
    (d = 0) solves at the cutoff its kernel's support sets: V is only d_k's
    output window there, and K the solve's budget.

    V: output window of d_k and delta_k (None -> max(8192, 32 n), or
    max(16384, 64 n) from d = 1/3 on).
    K: budget of kernel applies of the short-memory solve (None -> from the
    geometric decay rate); d_vectors, delta_block and the record return at
    most K stages.  A solve that spends it before its stopping tolerance
    shows what it left out in the residual, so a K too small raises.
    tol_term: absolute stopping tolerance for the k-series.
    tol_tail: cap on the estimated residual of the final coefficients;
    exceeded -> TruncationError.
    """

    V: int | None = None
    K: int | None = None
    tol_term: float = 1e-10
    tol_tail: float = 1e-6

    def __post_init__(self):
        if self.V is not None and self.V < 1:
            raise ValueError(f"V must be >= 1, got {self.V}")
        if self.K is not None and self.K < 1:
            raise ValueError(f"K must be >= 1, got {self.K}")
        if not self.tol_term > 0.0:
            raise ValueError(f"tol_term must be > 0, got {self.tol_term}")
        if not self.tol_tail > 0.0:
            raise ValueError(f"tol_tail must be > 0, got {self.tol_tail}")

    def resolve_v(self, n: int, model: ProcessModel) -> int:
        if self.V is not None:
            return self.V
        # the default output window of d_k and delta_k
        if memory_exponent(model) >= 1.0 / 3.0:
            return max(16384, 64 * n)
        return max(8192, 32 * n)

    def resolve_scales(self, model: ProcessModel, n: int) -> list[int]:
        """[resolve_v]: the one inner cutoff, as a list because the
        benchmark's tracing and criterion 2 read its top entry."""
        return [self.resolve_v(n, model)]

    def resolve_k(self, model: ProcessModel, tol: float | None = None) -> int:
        if self.K is not None:
            return self.K
        t = tol if tol is not None else self.tol_term
        d = memory_exponent(model)
        if d > 0.0 and not _pure_noise(model):
            # an ARMA factor's kernel can contract far more slowly than
            # sin(pi d) at small n: the record's and d_k's stop rules end it
            k = _K_CAP
        elif d > 0.0:
            s = np.sin(np.pi * d)
            # geometric tail s^K s/(1-s) below t: the stage count of the
            # summed series
            k = int(np.ceil(np.log(t * (1.0 - s) / s) / np.log(s))) + 8
        else:
            # short memory: geometric products decay at least as fast as the
            # expansions themselves; the stop rule does the real work
            k = 64
        return max(4, min(k, _K_CAP))


DEFAULT_POLICY = TruncationPolicy()


@dataclass(frozen=True, eq=False)
class BetaSeq:
    """Correlation sequence beta_0..beta_L with its truncation residual bound.

    ``model`` is the generating process, whose memory regime sets the path
    of every kernel built on it; ``inner_len`` is the factor length,
    the terms of each short-memory factor correlated (1 when there are none;
    the support on the exact path); ``tail_estimate`` bounds the absolute
    error per entry, rounding included, so it is 0 only on the exact path,
    which ``exact`` marks: a finite-support correlation, computed exactly.
    At d = 0 entries from inner_len on are zero or within that bound, so
    inner_len bounds the cutoff a short-memory solve needs.
    """

    values: np.ndarray
    model: ProcessModel
    inner_len: int | None = None
    tail_estimate: float = 0.0
    exact: bool = False

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, idx):
        return self.values[idx]


@dataclass(frozen=True, eq=False)
class SeriesTerms:
    """Per-term diagnostics of the explicit series for one coefficient.

    ``terms[k-1]`` is g^m_k(n, j) (their cumulative sums are the
    alternating-projection iterates), summed stage by stage, at the
    short-memory cutoff under the series' own stop rule or on the
    quadrature's fine grid until the running sums are within tol_term of
    the table; computed on first read, once for all j of a result.
    ``tail_estimate`` is the coefficient's residual, the number the
    ``tol_tail`` check compares: beta's share plus the short-memory solve's
    depth bound and rounding, or the quadrature's distance from its coarse
    grid.  ``k_used`` is the short-memory solve's kernel applies (0 on the
    quadrature).
    """

    tail_estimate: float
    k_used: int
    _matrix: Callable[[], np.ndarray] = field(repr=False)
    _j: int = field(repr=False)

    @property
    def terms(self) -> np.ndarray:
        return self._matrix()[:, self._j]


@dataclass(frozen=True, eq=False)
class DVectors:
    """Iterated kernel vectors d_k(n, u) for k = 1..K_used, u = 0..V-1."""

    n: int
    vectors: np.ndarray  # shape (K_used, V)
    tail_estimate: float

    @property
    def k_used(self) -> int:
        return len(self.vectors)


@dataclass(frozen=True, eq=False)
class DeltaBlock:
    """delta_k(n, u, v) for k = 1..K_used, u = 0..V-1, v = 0..v_max.

    ``values[k-1, u, v]``; the kernel symmetry makes the block symmetric in
    (u, v) wherever both index orders are stored.
    """

    n: int
    values: np.ndarray  # shape (K_used, V, v_max + 1)
    tail_estimate: float

    @property
    def k_used(self) -> int:
        return len(self.values)


@dataclass(frozen=True, eq=False)
class ExplicitPredictor:
    """Finite predictor table from the explicit series plus per-j diagnostics."""

    table: PredictorTable
    series: tuple[SeriesTerms, ...]


# ---------------------------------------------------------------------------
# beta

def _fn_kernel(d: float, lo: int, count: int) -> np.ndarray:
    """beta0_k = sin(pi d) / (pi (k - d)), k = lo..lo+count-1: the beta of
    fractional noise in closed form (Gauss's 2F1 sum), negative k included;
    at d = 0 it is -[k = 0], the beta of white noise."""
    k = np.arange(lo, lo + count, dtype=float)
    if d == 0.0:
        return np.where(k == 0.0, -1.0, 0.0)
    return np.sin(np.pi * d) / (np.pi * (k - d))


@lru_cache(maxsize=4)
def _arma_factor(model: ProcessModel) -> tuple[np.ndarray, np.ndarray, float]:
    """(r, s, dropped): the MA expansion r and the negated AR expansion s of
    the model's short-memory part (itself at d = 0), each cut where it has
    decayed (_decayed), and a bound on what their dropped tails move
    rho_j = sum_p r_p s_{p-j} by in l1: a factor's last quarter bounds its
    dropped tail, times the other factor's sum.  An undecayed factor is not
    refused here: its last quarter enters the bound."""
    arma = replace(model, d=0.0) if memory_exponent(model) > 0.0 else model
    rows, last = _decayed(lambda T: np.stack([_expansion_values(arma, T, CoeffKind.MA),
                                              -_expansion_values(arma, T, CoeffKind.AR)]))
    rows.setflags(write=False)  # cached: every caller shares them
    r, s = rows
    return r, s, float(last[0].sum() * np.abs(s).sum() + np.abs(r).sum() * last[1].sum())


@lru_cache(maxsize=6)
def _beta_values(model: ProcessModel, L: int) -> tuple[np.ndarray, float, int, bool]:
    """(beta values 0..L, tail bound, factor length, exact flag).

    c = b * r and a = a0 * s, with b and a0 the fractional-noise expansions
    and r, -s those of the short-memory part of the model (itself at d = 0,
    where b = -a0 is the unit impulse), so beta is the kernel beta0 of
    _fn_kernel correlated with rho_j = sum_p r_p s_{p-j}.  In long memory
    the bound also carries the mass the moment form cuts from rho's
    negative end (_moment_weight), so that it covers the quadrature's
    kernel rows too.
    """
    d = memory_exponent(model)
    if d == 0.0:
        # probe for exact support of the AR expansion (probe longer than any
        # support the exact path accepts, so a hit cannot be a false positive;
        # a_0 = -1/c_0 is never zero)
        probe = expand_ar(model, _EXACT_SUPPORT_MAX + 1).values
        support = int(np.nonzero(probe)[0][-1]) + 1
        if support <= _EXACT_SUPPORT_MAX:
            c = expand_ma(model, support - 1).values
            out = np.zeros(L + 1)
            for i in range(min(L + 1, support)):
                out[i] = np.dot(c[:support - i], probe[i:support])
            return out, 0.0, support, True
    elif model.ma_poly.coefficients == model.ar_poly.coefficients == (1.0,):
        beta0 = _fn_kernel(d, 0, L + 1)
        return beta0, 4.0 * np.finfo(float).eps * float(np.max(np.abs(beta0))), 1, False
    r, s, dropped = _arma_factor(model)
    if d > 0.0:
        dropped += _moment_weight(model)[2]
    T = len(r)
    # rho_rev[q] = rho_{T-1-q} = (r reversed * s)_q pairs with beta0_{i+T-1-q}
    rho_rev = _convolve_window(r[::-1], s, 0, 2 * T - 1)
    beta0 = _fn_kernel(d, 1 - T, L + 2 * T - 1)
    # plus the correlation's rounding
    rounding = np.finfo(float).eps * np.log2(L + 2 * T) * np.abs(rho_rev).sum()
    return (_convolve_window(beta0, rho_rev, 2 * T - 2, L + 1),
            float((dropped + rounding) * np.max(np.abs(beta0))), T, False)


def beta_for_model(model: ProcessModel, L: int) -> BetaSeq:
    """Correlation sequence beta_0..beta_L for a model (cached per model).

    The cache is keyed on a power-of-two covering length so that experiment
    sweeps over many n share one computation.
    """
    bucket = 1 << max(8, int(L).bit_length())
    vals, bound, used, exact = _beta_values(model, bucket)
    vals.setflags(write=False)  # the cached array itself, not only this view
    return BetaSeq(vals[:L + 1], model=model, inner_len=used,
                   tail_estimate=bound, exact=exact)


# ---------------------------------------------------------------------------
# Hankel kernel machinery

class _HankelFFT:
    """Fast application of x -> y, y_j = sum_{v<V} beta_{offset+j+v} x_v.

    The kernel matrix is constant along anti-diagonals, so the product is a
    correlation: precompute the rfft of the kernel band once and reuse it for
    every apply (the series iteration applies the same kernel K times).

    Both products read a window of a linear convolution with the reversed
    input, so the transform length is the aliasing-free one of
    ``coeffs._window_fft_len``, not the full convolution length: the kernel
    apply keeps entries V-1..2V-2 of a (2V-1) * V convolution, exact at 2V-1
    points (the full length is 3V-2), and the AR correlation keeps entries
    V..V+n_out-1 of an (n_out+V) * V one, exact at n_out+V points.  What
    wraps around lands below the window.
    """

    def __init__(self, beta_vals: np.ndarray, offset: int, V: int,
                 a_vals: np.ndarray | None = None, n_out: int = 0):
        if len(beta_vals) < offset + 2 * V - 1:
            raise ValueError(
                f"beta too short: need index {offset + 2 * V - 2}, "
                f"have {len(beta_vals) - 1}")
        self.V = V
        self.n_out = n_out
        # kernel window: entries V-1..2V-2 of band * reversed x
        self.npts = _window_fft_len(2 * V - 1, V, V - 1, V)
        if a_vals is not None:
            # AR window: entries V..V+n_out-1 of a[:n_out+V] * reversed x
            self.npts = max(self.npts, _window_fft_len(n_out + V, V, V, n_out))
        self.rb = np.fft.rfft(beta_vals[offset:offset + 2 * V - 1], self.npts)
        self._a = a_vals

    @cached_property
    def ra(self) -> np.ndarray:
        """Transform of the AR sequence, made on first use (a solve needs it
        only after its iteration, so it is not held during the iteration).
        The correlation against it shares the forward transform."""
        return np.fft.rfft(self._a[:self.n_out + self.V], self.npts)

    def forward(self, x: np.ndarray) -> np.ndarray:
        """rfft of the reversed input block(s); axis -1 is the V axis."""
        return np.fft.rfft(x[..., ::-1], self.npts, axis=-1)

    def apply_from(self, fx: np.ndarray) -> np.ndarray:
        """Kernel apply given a forward() transform."""
        out = np.fft.irfft(fx * self.rb, self.npts, axis=-1)
        return out[..., self.V - 1:2 * self.V - 1]

    def apply(self, x: np.ndarray) -> np.ndarray:
        """Kernel apply, transforming in place and copying the window out,
        so no transform-length buffer outlives the call."""
        fx = self.forward(x)
        fx *= self.rb
        out = np.fft.irfft(fx, self.npts, axis=-1)
        del fx
        return out[..., self.V - 1:2 * self.V - 1].copy()

    def a_correlate_from(self, fx: np.ndarray) -> np.ndarray:
        """t_j = sum_{u<V} a_{j+u} x_u for j = 1..n_out, given forward(x)."""
        out = np.fft.irfft(fx * self.ra, self.npts, axis=-1)
        return out[..., self.V:self.V + self.n_out].copy()


def hankel_apply(beta: BetaSeq, n: int, x: np.ndarray, method: str = "fft") -> np.ndarray:
    """Apply the Hankel kernel: y_j = sum_{v=0}^{V-1} beta_{n+j+v} x_v, j = 0..V-1.

    Parameters
    ----------
    beta : BetaSeq
        Needs values up to index n + 2V - 2.
    n : int
        Kernel offset.
    x : array of length V
    method : {"fft", "direct"}
        O(V log V) correlation or the O(V^2) reference product; the two agree
        to 1e-12 relative.
    """
    vals = beta.values
    x = np.asarray(x, dtype=float)
    V = len(x)
    if len(vals) < n + 2 * V - 1:
        raise ValueError(f"beta too short: need index {n + 2 * V - 2}, have {len(vals) - 1}")
    if method == "direct":
        return vals[n + np.add.outer(range(V), range(V))] @ x
    if method != "fft":
        raise ValueError(f"unknown method {method!r}")
    return _HankelFFT(vals, n, V).apply(x)


# ---------------------------------------------------------------------------
# d_k vectors and delta blocks

def _delta_run(beta_vals: np.ndarray, n: int, v_max: int, V: int, K: int,
               tol_term: float) -> np.ndarray:
    """Iterate delta_1(n, ., v) = beta_{n+v+.}, delta_{k+1} = H delta_k at
    offset n, for v = 0..v_max at inner cutoff V.

    Returns the stages, shape (K_used, v_max + 1, V).  Iteration stops at K
    stages or once a stage's sup-norm falls below tol_term (never, at
    tol_term = 0).
    """
    eng = _HankelFFT(beta_vals, n, V)
    cols = np.stack([beta_vals[n + v:n + v + V] for v in range(v_max + 1)])
    out = [cols]
    while len(out) < K and np.max(np.abs(cols)) >= tol_term:
        cols = eng.apply(cols)
        out.append(cols)
    return np.array(out)


def d_vectors(beta: BetaSeq, n: int,
              policy: TruncationPolicy = DEFAULT_POLICY) -> DVectors:
    """Iterated kernel vectors d_k(n, u), u = 0..V-1, k = 1..K_used.

    d_1 is the beta slice at offset n; each further vector is one kernel
    apply.  This is the v = 0 column of delta_block, so it takes the same
    path, with the same stopping rule and residual estimate.
    """
    block = delta_block(beta, n, 0, policy)
    return DVectors(n=n, vectors=block.values[:, :, 0], tail_estimate=block.tail_estimate)


def delta_block(beta: BetaSeq, n: int, v_max: int,
                policy: TruncationPolicy = DEFAULT_POLICY) -> DeltaBlock:
    """Iterated kernel block delta_k(n, u, v) for v = 0..v_max, u = 0..V-1
    with V = ``policy.resolve_v``, n >= 1.

    delta_1(n, u, v) = beta_{n+u+v}; each stage applies the offset-n Hankel
    kernel to every column.  values[k-1, u, v]; v = 0 reproduces d_vectors.
    Iteration stops when the sup-norm falls below tol_term or after K
    stages; each stage is a returned value, not a term of a sum, so K only
    returns fewer stages.  Long memory iterates on the quadrature's nodes
    (_moment_delta), short memory once at the cutoff max(V, inner_len - n);
    either rebuilds a beta too short for it.
    """
    if n < 1 or v_max < 0:
        raise ValueError(f"need n >= 1 and v_max >= 0, got n = {n}, v_max = {v_max}")
    model, V = beta.model, policy.resolve_v(n, beta.model)
    K = policy.resolve_k(model)
    if memory_exponent(model) > 0.0:
        return DeltaBlock(n, *_moment_delta(model, n, v_max, V, K, policy.tol_term, beta))
    W = max(V, beta_for_model(model, 0).inner_len - n)
    if len(beta) < n + v_max + 2 * W:
        beta = beta_for_model(model, n + v_max + 2 * W)
    block = _delta_run(beta.values, n, v_max, W, K, policy.tol_term)[:, :, :V]
    # (k, v, u) -> (k, u, v)
    return DeltaBlock(n=n, values=np.transpose(block, (0, 2, 1)),
                      tail_estimate=4.0 * beta.tail_estimate)


# ---------------------------------------------------------------------------
# predictor series engine

def _stage_one(a_vals: np.ndarray, c_rev: np.ndarray, n: int, m: int) -> np.ndarray:
    """g_1: the Wiener weights b_j^m = sum_v c_{m-v} a_{j+v}, exact."""
    return c_rev @ np.stack([a_vals[1 + v:1 + v + n] for v in range(m + 1)])


def _weighted_column(beta_vals: np.ndarray, c_rev: np.ndarray, n: int, m: int, V: int):
    """sum_v c_{m-v} delta_1(n+1, u, v) for u < V, from direct slices
    beta_{n+1+u+v}: weighted once, so that every later stage is one column."""
    return c_rev @ np.stack([beta_vals[n + 1 + v:n + 1 + v + V] for v in range(m + 1)])


def _g_terms_run(beta_vals: np.ndarray, a_vals: np.ndarray, c_head: np.ndarray,
                 n: int, m: int, V: int, K: int,
                 tol_term: float) -> tuple[np.ndarray, float]:
    """One full series evaluation at inner cutoff V.

    Returns (terms matrix, read-only, rows k = 1..K_used, columns j = 1..n;
    what the run left out): the geometric tail bound |g_k| r/(1-r) at the last stage,
    with r the recent decay ratio (0.999 before one is measured).  Stopping
    requires that bound and |g_k| under tol_term on two consecutive stages,
    so a slowly contracting series is not cut while its remaining mass is
    still large; a run that ends at the budget K reports what it left.
    """
    c_rev = c_head[::-1]  # c_rev[v] = c_{m-v}
    col = _weighted_column(beta_vals, c_rev, n, m, V)
    g1 = _stage_one(a_vals, c_rev, n, m)
    terms = [g1]
    prev_max = float(np.max(np.abs(g1)))
    left = prev_max * 0.999 / (1.0 - 0.999)
    ratios: list[float] = []
    consec = 1 if prev_max < tol_term else 0
    if K >= 2:
        eng = _HankelFFT(beta_vals, n + 1, V, a_vals=a_vals, n_out=n)
        for k in range(2, K + 1):
            fx = eng.forward(col)
            bvec = eng.a_correlate_from(fx)
            gk = bvec if k % 2 == 1 else bvec[::-1]
            terms.append(gk)
            cur = float(np.max(np.abs(gk)))
            if prev_max > 0.0 and cur > 0.0:
                ratios.append(min(cur / prev_max, 0.999))
            r = max(ratios[-3:], default=0.999)
            left = cur * r / (1.0 - r)
            if cur < tol_term and left < tol_term:
                consec += 1
                if consec >= 2:
                    break
            else:
                consec = 0
            prev_max = cur
            if k < K:
                col = eng.apply_from(fx)
    out = np.array(terms)
    out.setflags(write=False)
    return out, left


def _a_frobenius(a_vals: np.ndarray, n: int, V: int) -> float:
    """||A||_F of the AR correlation t_j = sum_{u<V} a_{j+u} x_u, j = 1..n,
    from prefix sums of a^2."""
    sq = np.cumsum(a_vals[:n + V] ** 2)
    return float(np.sqrt(np.sum(sq[V:n + V] - sq[:n])))


def _cg(eng: _HankelFFT, r: np.ndarray, a_norm: float, K: int, tol_stop: float,
        s_floor: float) -> tuple[np.ndarray, np.ndarray, float, float, int]:
    """Conjugate gradients on (I - H^2) z = r, H the kernel of ``eng``;
    ``r`` is updated in place into the residual.

    Returns (z, H z, |r|^2, s, kernel applies).  s estimates ||H|| from the
    smallest eigenvalue theta of the iteration's Lanczos matrix,
    ||H||^2 >= 1 - theta, floored at s_floor; s = 1 stands for no estimate
    below 1 (no iteration run, or I - H^2 shown indefinite).  The iteration
    stops once a_norm |r| / (1 - s) is under tol_stop or when one more
    iteration (two applies) would pass the budget K.
    """
    z, hz, p = np.zeros_like(r), np.zeros_like(r), r.copy()
    rr, s, applies = float(r @ r), 1.0, 0
    diag: list[float] = []
    off: list[float] = []
    while rr > 0.0 and (s >= 1.0 or a_norm * np.sqrt(rr) / (1.0 - s) > tol_stop):
        if applies + 2 > K:
            break
        hp = eng.apply(p)
        pq = float(p @ p - hp @ hp)  # p . (I - H^2) p
        if not pq > 0.0:
            return z, hz, rr, 1.0, applies + 1
        alpha = rr / pq
        z += alpha * p
        hz += alpha * hp
        q = eng.apply(hp)
        applies += 2
        np.subtract(p, q, out=q)
        r -= alpha * q
        rr_next = float(r @ r)
        # Lanczos matrix of the step sizes alpha_i and residual ratios
        # rho_i = |r_{i+1}|^2/|r_i|^2: diagonal 1/alpha_i + rho_{i-1}/alpha_{i-1},
        # off-diagonal sqrt(rho_{i-1})/alpha_{i-1}
        if diag:
            diag.append(1.0 / alpha + rho / alpha_prev)
            off.append(np.sqrt(rho) / alpha_prev)
        else:
            diag.append(1.0 / alpha)
        theta = np.linalg.eigvalsh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))[0]
        s = max(s_floor, np.sqrt(max(1.0 - theta, 0.0))) if theta > 0.0 else 1.0
        rho, alpha_prev = rr_next / rr, alpha
        p *= rho
        p += r
        rr = rr_next
    return z, hz, rr, s, applies


def _solve_run(beta_vals: np.ndarray, a_vals: np.ndarray, c_head: np.ndarray,
               n: int, m: int, V: int, K: int, tol_stop: float,
               s_floor: float) -> tuple[np.ndarray, float, int]:
    """One series value at inner cutoff V, by conjugate gradients.

    Stage k >= 2 of the series is c_rev @ A H^(k-2) cols, reversed in j for
    even k, with A the AR correlation and H the offset-(n+1) kernel.  Both
    are linear, so the c-weighted columns make one right-hand side y, and
    the stages k >= 2 sum to A H z + rev(A z) with (I - H^2) z = y.  H is
    symmetric, so I - H^2 is positive definite while ||H|| < 1.

    Returns (phi, depth bound, kernel applies).  With s an estimate of
    ||H||, the residual r left by _cg moves each phi_j by at most
    ||A||_F ||r|| (1 + s) / (1 - s^2) = ||A||_F ||r|| / (1 - s): that is the
    depth bound.  A residual left with no estimate below 1 has no bound, so
    it raises TruncationError; an exactly zero right-hand side leaves none
    at any K.
    """
    c_rev = c_head[::-1]
    eng = _HankelFFT(beta_vals, n + 1, V, a_vals=a_vals, n_out=n)
    a_norm = _a_frobenius(a_vals, n, V)
    z, hz, rr, s, applies = _cg(eng, _weighted_column(beta_vals, c_rev, n, m, V),
                                a_norm, K, tol_stop, s_floor)
    if rr > 0.0 and s >= 1.0:
        why = (f"K = {K} leaves no room for one iteration (two kernel applies)" if K < 2
               else f"I - H^2 shows as indefinite within K = {K} kernel applies")
        raise TruncationError(f"the series solve at n = {n} left a residual it cannot "
                              f"bound: {why}")
    bound = a_norm * np.sqrt(rr) / (1.0 - s) if rr > 0.0 else 0.0
    tail = eng.a_correlate_from(eng.forward(hz)) + eng.a_correlate_from(eng.forward(z))[::-1]
    return _stage_one(a_vals, c_rev, n, m) + tail, float(bound), applies


# ---------------------------------------------------------------------------
# moment form: long memory on a quadrature, no cutoff

#: most unknowns the fine system may have, corner and nodes together: the
#: system and the solver's copy of it are two float64 buffers of 128 MiB
_MOMENT_NODES_MAX = 4096

#: step of the fine grid's trapezoid rule in the logistic variable y
_MOMENT_STEP = 0.35

#: why a quadrature's residual is no policy control's to reduce
_QUADRATURE_REMEDY = "it is the quadrature's own error, on a grid that no V or K sets"


def _pure_noise(model: Farima) -> bool:
    return model.ma_poly.coefficients == model.ar_poly.coefficients == (1.0,)


@lru_cache(maxsize=4)
def _moment_weight(model: Farima) -> tuple[np.ndarray | None, int, float]:
    """(R, jmin, cut): beta_i = c int_0^1 t^(i-d-1) rho(t) dt for
    i >= 1 - jmin, with rho(t) = t^jmin R(t), R[k] = rho_{jmin+k} (R None
    for pure noise, whose rho is 1).

    Below j = -deg(ar), ma * rho = 0 (s = ar/ma), so rho's negative end is
    the expansion num/ma continuing rho_{-deg(ar)}..: unlike the FFT's, its
    small entries keep their relative accuracy, and with no MA factor they
    are exact zeros.  That end is cut while what it drops stays under
    eps sum |rho|, and ``cut``, that l1 mass, joins beta's bound.
    """
    if _pure_noise(model):
        return None, 0, 0.0
    r, s, _ = _arma_factor(model)
    T, deg = len(r), model.ar_poly.degree
    rho = _convolve_window(r, s[::-1], 0, 2 * T - 1)  # rho_j at j + T - 1
    rho = rho[T - 1 - deg:T + int(np.nonzero(r)[0][-1])]  # j = -deg .. support of r
    lo, ma = -deg, model.ma_poly.coefficients
    if len(ma) > 1:
        # rho_{-deg-1-k} for k >= 0 is num/ma, num_k = -sum_{i>k} ma_i
        # rho_{-deg-1+i-k}: the recurrence's seeds moved to its right side
        num = tuple(-sum(ma[i] * rho[i - k - 1] for i in range(k + 1, len(ma)))
                    for k in range(len(ma) - 1))
        (tail,), _ = _decayed(partial(_arma_series, num, ma, 0.0))
        rho, lo = np.concatenate((tail[::-1], rho)), lo - len(tail)
    mass = np.cumsum(np.abs(rho))
    k = int(np.searchsorted(mass, np.finfo(float).eps * mass[-1], side="right"))
    return rho[k:], lo + k, float(mass[k - 1]) if k else 0.0


def _corner(model: Farima, N: int) -> int:
    """U0: the rows u < U0 of the offset-N kernel hold entries beta_{N+u+w}
    below the moment form's first index 1 - jmin."""
    return max(0, 1 - _moment_weight(model)[1] - N)


def _moment_grids(model: Farima, n: int, U0: int) -> list[tuple[np.ndarray, float]]:
    """(nodes y, step h) of the trapezoid rule in y, t = 1/(1 + e^-y), on
    the fine grid and on the coarse one, every other fine node.  The rule
    is uniform in s = -ln(1 - t) toward t = 1, where it resolves the
    x^(1-2d) edge of the solution at x = 1 - t (rho(1) = 1), and exponential
    in t toward t = 0 (Trefethen and Weideman, SIAM Review 2014), where the
    left end puts each term rho_j t^p of the offset-n weight (p its power in
    y), and the t^(n+U0-d) of _f_top's row, below e^-40: t^(n-d) for pure
    noise.  U0 plus the fine grid's nodes above the cap raises."""
    d = model.d
    R, jmin, _ = _moment_weight(model)
    lo = -40.0 / (n + _corner(model, n + 1) - d)
    if R is not None:
        p = n + _corner(model, n) - d + jmin + np.arange(len(R))
        with np.errstate(divide="ignore"):
            lo = min(lo, float(np.min((-40.0 - np.log(np.abs(R))) / p)))
    hi = 35.0 / (1.0 - 2.0 * d) + 10.0
    nodes = math.ceil((hi - lo) / _MOMENT_STEP) + 1
    if U0 + nodes > _MOMENT_NODES_MAX:
        corner = f" and a corner of {U0}" if U0 else ""
        raise TruncationError(f"the quadrature for {model!r} at n = {n} needs {nodes} "
                              f"nodes{corner}, above its cap of {_MOMENT_NODES_MAX}")
    y = lo + _MOMENT_STEP * np.arange(nodes)
    return [(y, _MOMENT_STEP), (y[::2], 2.0 * _MOMENT_STEP)]


def _moment_system(model: Farima, N: int, U0: int, grid: tuple[np.ndarray, float],
                   beta: BetaSeq | None, top: int | None = None):
    """(t, r, a, M, r F0_top) of the offset-N kernel on one grid.

    The unknowns are xi_u, u < U0, and alpha_q of psi_q(u) = t_q^(u-U0),
    u >= U0.  With mu_q the weight of c t^(N-d-1) rho(t) dt at t_q,
    w1 = mu t^U0, w2 = mu t^(2 U0), P_qw = t_q^w (w < U0),
    G_qr = 1/(1 - t_q t_r) and the corner C_uw = beta_{N+u+w}, the kernel
    maps (xi, alpha) to (C xi + P^T (w1 G alpha), w1 P xi + w2 G alpha).
    In gamma = alpha / r, r = max(|w1|, sqrt|w2|), every block of
    M = [[C, P^T diag(a) S], [diag(a) P, diag(b) S]] is bounded, with
    a = w1/r, b = w2/r^2 and S = diag(r) G diag(r) = diag(v) K diag(v),
    v = r/sqrt(1 - t), 1/K_qr = 2 cosh((s_q - s_r)/2) - e^(-(s_q+s_r)/2),
    s = -ln(1 - t).  Pure noise has U0 = 0, b = 1 and M = S.  With ``top``,
    the last entry is r F0_top, F0_k(t) = sum_u a0_{k+u} t^u for pure
    noise's a0_k = c int_0^1 t^(k-d-1) (1-t)^d dt: G times that weight.
    """
    d = model.d
    R, jmin, _ = _moment_weight(model)
    y, h = grid
    s = np.maximum(y, 0.0) + np.log1p(np.exp(-np.abs(y)))
    log_t = y - s
    t = np.exp(log_t)
    scale = np.sqrt(np.sin(np.pi * d) / np.pi * h)
    # |w1| = v1^2 x and |w2| = v2^2 x: t^(power+1) is the weight's power in y
    power = (N - 1 + U0 + jmin) - d
    v1 = scale * np.exp((power + 1.0) / 2.0 * log_t)
    v2, sign = v1, 1.0
    if R is not None:
        poly = np.polyval(R[::-1], t)
        v1 = v1 * np.sqrt(np.abs(poly))
        v2, sign = v1 * np.exp(U0 / 2.0 * log_t), np.where(poly < 0.0, -1.0, 1.0)
    half = np.exp(-s / 2.0)
    v = np.maximum(np.maximum(v1 * v1 * half, v2), np.finfo(float).tiny)
    r, a, b = v * half, sign * (v1 * half) * (v1 / v), sign * (v2 / v) ** 2
    k = np.subtract.outer(s / 2.0, s / 2.0)
    np.cosh(k, out=k)
    k *= 2.0
    k -= np.multiply.outer(half, half)
    np.reciprocal(k, out=k)
    k *= v
    k *= v[:, None]
    f = None
    if top is not None:
        v0 = scale * np.exp((top - d + 1.0) / 2.0 * log_t)
        f = k @ ((v0 * half) * (v0 / v) * np.exp(-d * s) / t)
    if U0:
        p = t[:, None] ** np.arange(U0)
        # a view of the Hankel corner: no U0 x U0 index or copy before the block
        corner = np.lib.stride_tricks.sliding_window_view(beta.values[N:N + 2 * U0 - 1], U0)
        k = np.block([[corner, p.T @ (a[:, None] * k)], [a[:, None] * p, b[:, None] * k]])
    elif np.any(b != 1.0):
        k *= b[:, None]
    return t, r, a, k, f


def _f_top(model: Farima, f: np.ndarray, r: np.ndarray, t: np.ndarray,
           top: int) -> np.ndarray:
    """r F_top for the model's a = a0 * s from pure noise's f = r F0_top:
    F_top = sum_p s_p F0_{top-p}, with F0_k = a0_k + t F0_{k+1} down from
    the top (a0_k = 0 for k < 0)."""
    if _pure_noise(model):
        return f
    s = _arma_factor(model)[1]
    a0 = expand_ar(Farima(model.d), top).values
    out = s[0] * f
    for p in range(1, int(np.nonzero(s)[0][-1]) + 1):
        f = t * f
        if p <= top:
            f += r * a0[top - p]
        out += s[p] * f
    return out


def _f_tilde(f: np.ndarray, root: np.ndarray, t: np.ndarray, a_vals: np.ndarray,
             n: int):
    """F~_j for j = n down to 1, from F~_n = f by F~_j = root a_j
    + t F~_{j+1} (see _moment_setup)."""
    for j in range(n, 0, -1):
        yield f
        f = root * a_vals[j - 1] + t * f


def _a_corner(a_vals: np.ndarray, xi: np.ndarray, n: int) -> np.ndarray:
    """sum_{u<U0} a_{j+u} xi_u for j = 1..n, for each column of xi (U0 rows)."""
    U0 = len(xi)
    return np.stack([_convolve_window(a_vals[1:n + U0], col[::-1], U0 - 1, n)
                     for col in xi.T], axis=1)


def _moment_setup(model: Farima, a_vals: np.ndarray, c_head: np.ndarray, n: int, U0: int,
                  grid: tuple[np.ndarray, float], beta: BetaSeq | None):
    """(M, y, the rows F~_{j+U0} for j = n down to 1) of the predictor's
    system at offset n + 1 on one grid.  (I - H^2) z = y, y = H (c_{m-v})_v,
    stays in the span of _moment_system's unknowns: y is the beta slices on
    the corner and a P(t), P(t) = sum_v c_{m-v} t^v, on the nodes.  The AR
    correlation of psi_q is F_{j+U0}(t_q), F_k(t) = sum_u a_{k+u} t^u, run
    down from _f_top's row by F_k = a_k + t F_{k+1} and carried as r F; with
    the corner's sum_{u<U0} a_{j+u} xi_u (_a_corner) it reads a state back
    as A(z)_j.
    """
    t, r, a, mat, f = _moment_system(model, n + 1, U0, grid, beta, top=n + U0)
    y = a * np.polyval(c_head, t)
    if U0:
        corner = _weighted_column(beta.values, c_head[::-1], n, len(c_head) - 1, U0)
        y = np.concatenate((corner, y))
    return mat, y, _f_tilde(_f_top(model, f, r, t, n + U0), r, t, a_vals[U0:], n)


def _moment_run(model: Farima, a_vals: np.ndarray, c_head: np.ndarray, n: int, U0: int,
                grid: tuple[np.ndarray, float], beta: BetaSeq | None) -> np.ndarray:
    """phi^m_{n,.} from the moment form on one grid: with _moment_setup's
    M and y, (I - M) u = y and (I + M) g = u give z = g and H z = u - g, so
    phi_j = g_1(j) + A(u - g)_j + A(g)_{n+1-j}.  One matrix of the system's
    size is live at a time besides the solver's copy.
    """
    mat, y, rows = _moment_setup(model, a_vals, c_head, n, U0, grid, beta)
    diag = mat.reshape(-1)[::len(mat) + 1]
    # I - M and then I + M in the same buffer
    np.negative(mat, out=mat)
    diag += 1.0
    u = np.linalg.solve(mat, y)
    np.negative(mat, out=mat)
    diag += 2.0
    g = np.linalg.solve(mat, u)
    del mat, diag
    weights = np.stack((u - g, g), axis=1)
    # F~_{j+U0} for j = n down to 1, each read against (u - g, g)
    fw = np.empty((n, 2))
    for j, row in zip(range(n, 0, -1), rows):
        fw[j - 1] = row @ weights[U0:]
    if U0:
        fw += _a_corner(a_vals, weights[:U0], n)
    return _stage_one(a_vals, c_head[::-1], n, len(c_head) - 1) + fw[:, 0] + fw[::-1, 1]


def _moment_terms(model: Farima, a_vals: np.ndarray, c_head: np.ndarray, n: int, U0: int,
                  grid: tuple[np.ndarray, float], beta: BetaSeq | None, K: int,
                  table: np.ndarray | None = None, tol: float = 0.0) -> np.ndarray:
    """The per-term record g_1..g_K on ``grid`` (the fine grid of
    _moment_run), read-only; with a ``table``, it stops at the first term
    whose running sums are within ``tol`` of it.  Stage k >= 2 is
    A M^(k-2) y, so g_k(j) is A(gamma^k)_j for odd k and A(gamma^k)_{n+1-j}
    for even k, with gamma^2 = y and gamma^(k+1) = M gamma^k.
    """
    mat, gamma, rows = _moment_setup(model, a_vals, c_head, n, U0, grid, beta)
    rows = np.array(list(rows))
    terms = [_stage_one(a_vals, c_head[::-1], n, len(c_head) - 1)]
    total = terms[0].copy()
    while len(terms) < K and (table is None or np.max(np.abs(total - table)) > tol):
        b = rows @ gamma[U0:]  # A(gamma^k)_j for j = n down to 1
        if U0:
            b += _a_corner(a_vals, gamma[:U0, None], n)[::-1, 0]
        terms.append(b if len(terms) % 2 else b[::-1])
        total += terms[-1]
        gamma = mat @ gamma
    out = np.array(terms)
    out.setflags(write=False)
    return out


def _on_nodes(t: np.ndarray, alpha: np.ndarray, V: int, U0: int = 0):
    """A state (rows xi_u, u < U0, then alpha_q) read at u = 0..V-1 in
    blocks: the corner's rows, then sum_q alpha_q t_q^(u-U0) in blocks of
    256 u, one block of powers t^i times the block-scaled alpha, so no
    V x Q matrix is built."""
    if U0:
        yield alpha[:min(U0, V)]
    V -= U0
    powers = t ** np.arange(min(256, max(V, 0)))[:, None]
    for lo in range(0, V, 256):
        yield powers[:V - lo] @ (t[:, None] ** lo * alpha[U0:])


def _moment_delta(model: Farima, n: int, v_max: int, V: int, K: int, tol_term: float,
                  beta: BetaSeq) -> tuple[np.ndarray, float]:
    """(delta_k(n, u, v) for u < V, v <= v_max, shape (K_used, V, v_max + 1);
    its largest distance from the coarse grid, plus beta's share for a
    factored model).  In _moment_system's unknowns at offset n, stage 1 is
    xi = beta_{n+u+v} and alpha = w1 t^v, returned as the beta slice, and
    each stage applies M.  A stage's sup-norm is at most the larger of |xi|
    and sum_q |alpha_q| (for pure noise, with alpha > 0, its u = 0 value),
    which the stop rule reads on the fine grid; the coarse grid runs in
    step, and is read only for its distance.
    """
    U0 = _corner(model, n)
    grids = _moment_grids(model, n, U0)
    if len(beta) <= n + v_max + max(V, 2 * U0):
        beta = beta_for_model(model, n + v_max + max(V, 2 * U0))
    cols = np.stack([beta.values[n + v:n + v + max(V, U0)] for v in range(v_max + 1)], axis=1)
    first, corner = cols[:V], cols[:U0]
    systems = [_moment_system(model, n, U0, grid, beta) for grid in grids]
    states = [np.concatenate((corner, a[:, None] * t[:, None] ** np.arange(v_max + 1)))
              for t, _, a, _, _ in systems]
    # each run starts with an empty block in stage 1's place
    runs, top = [[np.empty((len(s), 0))] for s in states], float(np.max(np.abs(first)))
    while len(runs[0]) < K and top >= tol_term:
        states = [mat @ state for (*_, mat, _), state in zip(systems, states)]
        for (_, r, *_), state, run in zip(systems, states, runs):
            alpha = state.copy()
            alpha[U0:] *= r[:, None]
            run.append(alpha)
        last = runs[0][-1]
        top = max(float(np.max(np.abs(last[:U0]), initial=0.0)),
                  float(np.max(np.sum(np.abs(last[U0:]), axis=0))))
    out = np.empty((len(runs[0]), V, v_max + 1))
    out[0], lo, dist = first, 0, 0.0
    for fine, coarse in zip(*(_on_nodes(t, np.concatenate(run, axis=1), V, U0)
                              for (t, *_), run in zip(systems, runs))):
        block = np.reshape(fine, (len(fine), len(out) - 1, v_max + 1))
        out[1:, lo:lo + len(fine)] = block.swapaxes(0, 1)
        dist = max(dist, float(np.max(np.abs(fine - coarse), initial=0.0)))
        lo += len(fine)
    share = 0.0 if _pure_noise(model) else 4.0 * beta.tail_estimate
    return out, dist + share


def _check_request(model: ProcessModel, n: int, m: int, beta: BetaSeq | None) -> None:
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if m < 0:
        raise ValueError(f"m must be >= 0, got {m}")
    if beta is not None and beta.model != model:
        raise ValueError(f"beta was built for {beta.model!r}, not for {model!r}")


def _beta_share(beta: BetaSeq, policy: TruncationPolicy, n: int) -> float:
    """beta's share of every coefficient's residual, checked against
    tol_tail on its own: no series run can undo it."""
    share = beta.tail_estimate * 4.0
    _check_tail(share, policy, n,
                "it is beta's own error: the model's ARMA factor has not decayed (or "
                "tol_tail is below beta's rounding), and no V or K can reduce it")
    return share


def _check_tail(resid: float, policy: TruncationPolicy, n: int,
                remedy: str = "increase K") -> None:
    if not resid <= policy.tol_tail:  # a NaN residual fails too
        raise TruncationError(
            f"truncation residual {resid:.3e} exceeds tol_tail "
            f"{policy.tol_tail:g} at n = {n}; {remedy}",
            achieved=resid, required=policy.tol_tail)


def _moment_inputs(model: Farima, n: int, m: int, policy: TruncationPolicy):
    """(U0, grids, the corner's beta, beta's share, a_0..a_{n+max(m, U0)},
    c_0..c_m) of a long-memory predictor; pure noise has no beta.  beta's
    share and the node cap are checked before anything is built."""
    factored = not _pure_noise(model)
    if factored:
        _beta_share(beta_for_model(model, 0), policy, n)
    U0 = _corner(model, n + 1)
    grids = _moment_grids(model, n, U0)
    beta = beta_for_model(model, n + 1 + 2 * U0 + m) if factored else None
    share = _beta_share(beta, policy, n) if factored else 0.0
    return (U0, grids, beta, share, expand_ar(model, n + max(m, U0)).values,
            expand_ma(model, m).values)


def _moment_predictor(model: Farima, n: int, m: int, policy: TruncationPolicy
                      ) -> tuple[np.ndarray, np.ndarray, int, Callable[[], np.ndarray]]:
    """(phi, per-coefficient residual, kernel applies, per-term record) of
    long memory: _moment_run on both grids, their difference plus beta's
    share, and _moment_terms."""
    U0, grids, beta, share, a_vals, c_head = _moment_inputs(model, n, m, policy)
    fine, coarse = (_moment_run(model, a_vals, c_head, n, U0, grid, beta) for grid in grids)
    resid = np.abs(fine - coarse) + share
    _check_tail(float(np.max(resid)), policy, n, _QUADRATURE_REMEDY)
    return fine, resid, 0, cache(lambda: _moment_terms(
        model, a_vals, c_head, n, U0, grids[0], beta, policy.resolve_k(model), fine,
        policy.tol_term))


def _series_inputs(model: ProcessModel, n: int, m: int, policy: TruncationPolicy,
                   beta: BetaSeq | None) -> tuple[int, BetaSeq, np.ndarray, np.ndarray]:
    """What a short-memory series run reads: (its cutoff
    V* = max(inner_len - n - 1, m + 1), beta, a_0..a_{n+V*}, c_0..c_m).
    Every kernel entry beta_{n+1+u+w} the cutoff drops lies past beta's
    support; beta's share is checked first."""
    probe = beta_for_model(model, 0)
    _beta_share(probe, policy, n)
    V = max(probe.inner_len - n - 1, m + 1)
    if beta is None or len(beta) < n + 2 * V + m + 3:
        beta = beta_for_model(model, n + 2 * V + m + 3)
    return V, beta, expand_ar(model, n + V).values, expand_ma(model, m).values


def _series_predictor(model: ProcessModel, n: int, m: int, policy: TruncationPolicy,
                      beta: BetaSeq | None
                      ) -> tuple[np.ndarray, np.ndarray, int, Callable[[], np.ndarray]]:
    """(phi, per-coefficient residual, kernel applies, per-term record) of
    short memory: one series solve at the cutoff that reaches its kernel's
    support.  The residual is beta's share, the solve's depth bound and its
    rounding: a few ulp of the largest weight or of the Wiener weights'
    terms, which may cancel to a weight far below them."""
    V, beta, a_vals, c_head = _series_inputs(model, n, m, policy, beta)
    beta_share = _beta_share(beta, policy, n)
    tol_stop = min(policy.tol_term, max(policy.tol_tail / 16.0, _STOP_FLOOR))
    K = policy.resolve_k(model, tol_stop)
    phi, left, applies = _solve_run(beta.values, a_vals, c_head, n, m, V, K, tol_stop, 0.0)
    terms = _stage_one(np.abs(a_vals), np.abs(c_head[::-1]), n, m)
    rounding = 8.0 * np.finfo(float).eps * float(np.max(np.abs(phi)) + np.max(terms))
    tail_j = np.full(n, beta_share + left + rounding)
    _check_tail(float(np.max(tail_j)), policy, n)
    return phi, tail_j, applies, cache(lambda: _g_terms_run(
        beta.values, a_vals, c_head, n, m, V, K, tol_stop)[0])


def finite_predictor_multistep(model: ProcessModel, n: int, m: int,
                               policy: TruncationPolicy = DEFAULT_POLICY,
                               beta: BetaSeq | None = None) -> ExplicitPredictor:
    """Finite predictor coefficients phi^m_{n,j} from the explicit series.

    Long memory (d > 0) is solved on a quadrature of the series' moment
    form (_moment_run), with no cutoff, and so is its per-term record,
    whose terms a pinned K caps.  Short memory runs one solve at the cutoff
    its kernel's support sets, whatever V says.

    Parameters
    ----------
    model : ProcessModel
    n : int
        Number of past observations, n >= 1.
    m : int
        Prediction horizon (m = 0: one-step).
    policy : TruncationPolicy
    beta : BetaSeq, optional
        Precomputed correlation sequence of ``model`` for short memory; must
        cover the required index range or it is recomputed.  One built for
        another model raises ValueError.  The moment form reads none.

    Returns
    -------
    ExplicitPredictor
        ``table.coefficients[j-1]`` = phi^m_{n,j}; ``series[j-1]`` the
        per-term diagnostics for that j (terms from the short-memory cutoff
        or the quadrature's fine grid; the table carries the solve's
        coefficients).

    Raises
    ------
    TruncationError
        Residual above policy.tol_tail: beta's, the quadrature's, or what
        the short-memory solve left unsolved within the budget of K kernel
        applies (which a diverging series also exhausts); a solve left with
        a residual it cannot bound (K = 1, or I - H^2 shown indefinite); a
        quadrature system above its node cap.
    """
    _check_request(model, n, m, beta)
    if memory_exponent(model) > 0.0:
        phi, tail_j, k_used, terms = _moment_predictor(model, n, m, policy)
    else:
        phi, tail_j, k_used, terms = _series_predictor(model, n, m, policy, beta)
    table = PredictorTable(n=n, horizon=m, coefficients=phi,
                           source=PredictorSource.EXPLICIT_SERIES)
    series = tuple(SeriesTerms(tail_estimate=float(tail_j[j]), k_used=k_used,
                               _matrix=terms, _j=j)
                   for j in range(n))
    return ExplicitPredictor(table=table, series=series)


def finite_predictor_explicit(model: ProcessModel, n: int,
                              policy: TruncationPolicy = DEFAULT_POLICY,
                              beta: BetaSeq | None = None) -> ExplicitPredictor:
    """One-step finite predictor coefficients phi_{n,j}; the m = 0 case of
    finite_predictor_multistep (same code path)."""
    return finite_predictor_multistep(model, n, 0, policy, beta=beta)


def projection_iterates(model: ProcessModel, n: int, j: int, m: int = 0,
                        K: int = 32,
                        policy: TruncationPolicy = DEFAULT_POLICY) -> np.ndarray:
    """Partial sums sum_{l<=k} g^m_l(n, j) for k = 1..K.

    The k-th entry is the coefficient of X_{-j} after k alternating
    projections (infinite past, then the window back to -n, alternating);
    the sequence converges to phi^m_{n,j}.  The terms are those that
    finite_predictor_multistep reports, with no stop before K: on the
    quadrature's fine grid for long memory, at the one cutoff of short
    memory (fewer only if the terms vanish exactly).
    """
    if not 1 <= j <= n:
        raise ValueError(f"need 1 <= j <= n, got j = {j}, n = {n}")
    if K < 1:
        raise ValueError(f"K must be >= 1, got {K}")
    _check_request(model, n, m, None)
    if memory_exponent(model) > 0.0:
        U0, grids, beta, _, a_vals, c_head = _moment_inputs(model, n, m, policy)
        terms = _moment_terms(model, a_vals, c_head, n, U0, grids[0], beta, K)
    else:
        V, beta, a_vals, c_head = _series_inputs(model, n, m, policy, None)
        terms, _ = _g_terms_run(beta.values, a_vals, c_head, n, m, V, K, 1e-300)
    return np.cumsum(terms[:, j - 1])
