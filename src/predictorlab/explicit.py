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
of stages.  The per-term record is the stage-by-stage sum at the finest
cutoff, computed only when a caller reads it.

Pure fractional noise has no cutoff at all (see _moment_run): there
beta_i = c int_0^1 t^(i-d-1) dt for i >= 1, so the kernel is a Hankel moment
operator, and the solve becomes a dense system on the nodes of a quadrature
of that integral, Gauss-Legendre on dyadic panels graded toward both ends of
(0, 1) (a Nystrom method; Atkinson, The Numerical Solution of Integral
Equations of the Second Kind, 1997).  Its residual is the distance from the
same solve on a coarser grid of lower order.  That path serves
``Farima(d)``, d > 0, under any policy that pins none of V, K and levels;
every other model and policy runs the cutoff ladder below.

Two infinite sums are truncated: the inner index (cutoff V, the Hankel apply)
and the series depth (the solve's residual, within a budget of K kernel
applies per run).  The
inner truncation error of the summed series under long memory follows a
ladder of powers C_1 V^{-p} + C_2 V^{-2p} + ... with p = 1 - 2d (measured
against exact closed-form predictors over five V-doublings; the exponent
matches the autocovariance tail and is stable in n and d).  The pipeline
therefore runs at a geometric ladder of cutoffs V, 2V, ..., 2^{L-1} V and
eliminates the leading L-1 powers by solving the small Vandermonde system in
V^{-p}; the reported residual is the difference between the last two
elimination orders.  With one level the value stays uncorrected, and the
residual is 1.5 times its distance from the same elimination over it and
one extra run at the half cutoff max(V // 2, m + 1), whatever their ratio
(ValueError where that half cannot go below V).  The depth error is each
run's bound on what its unsolved residual can still move; times the
elimination gain sum |w|, it joins the same residual.

Everything the FFT touches here is noise-free in the structurally-zero case:
a finitely supported beta stays exactly zero under rfft/irfft of zero blocks,
so short-memory models with exact support produce exact zeros for all k >= 2
and the ladder collapses to a single exact evaluation.

Every correlation here (beta, the Hankel apply, the AR correlation) keeps a
window of a linear convolution, so its FFT runs at the shortest circular
length that leaves the window unaliased, max(lo + count, total - lo) for a
window lo..lo+count-1 of a length-total convolution, rather than at the full
length: the entries that wrap around land below the window.  That is about
2V instead of 3V points per Hankel apply and L + 2T instead of L + 4T for
long-memory beta, a closed-form kernel correlated with T terms of its ARMA
factors; the window is exact either way, so only rounding changes.

The ladder's runs are independent of one another, so they run on two lanes:
the calling thread runs the finest cutoff, and one worker thread runs the
coarser ones, finest first.  Because V doubles, the finest run costs about
as much as all coarser runs together (2^{L-1} : 2^{L-1} - 1), so a third lane
would not shorten the critical path; two lanes is the optimum at any core
count.  Each run is deterministic and the elimination reads them in the same
finest-first order, so the result is bitwise that of the serial ladder.
``PREDICTORLAB_THREADS=1``, or a single CPU, runs the ladder serially.
"""

from __future__ import annotations

import math
import os
import warnings
from collections.abc import Callable
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from functools import cache, cached_property, lru_cache

import numpy as np

from .coeffs import (CoeffKind, _convolve_window, _decayed, _expansion_values,
                     _window_fft_len, expand_ar, expand_ma)
from .errors import ConfigError, TruncationError
from .levinson import PredictorSource, PredictorTable
from .models import Farima, ProcessModel, Regime, memory_exponent, regime

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

#: floor for the effective per-term stopping tolerance inside the ladder
_STOP_FLOOR = 1e-14


@dataclass(frozen=True)
class TruncationPolicy:
    """Controls for the two truncation axes of the explicit series.

    V, K and levels control the cutoff ladder.  Pure fractional noise
    (``Farima(d)``, d > 0) needs no cutoff and runs the ladder only when one
    of them is set; otherwise its quadrature reads only tol_tail.

    V: base inner-index cutoff (None -> max(8192, 32 n)).  The pipeline runs
    at the doubling ladder V, 2V, ..., 2^{levels-1} V and eliminates the
    leading truncation powers.
    K: budget of kernel applies per ladder run of the predictor series
    (None -> from the geometric decay rate); d_vectors and delta_block
    return at most K stages.  A run that spends it before its stopping
    tolerance shows what it left out in the residual, so a K too small for
    the model raises.
    tol_term: absolute stopping tolerance for the k-series.
    tol_tail: cap on the estimated truncation residual of the final
    coefficients (inner cutoff, beta and series depth); exceeded ->
    TruncationError.
    levels: ladder length (None -> by memory regime: 2 for short memory,
    3 to 6 for long memory depending on d).  levels=1 runs one scale,
    uncorrected, with its residual estimated from a run at the half cutoff
    max(V // 2, m + 1).
    """

    V: int | None = None
    K: int | None = None
    tol_term: float = 1e-10
    tol_tail: float = 1e-6
    levels: int | None = None

    def __post_init__(self):
        if self.V is not None and self.V < 1:
            raise ValueError(f"V must be >= 1, got {self.V}")
        if self.K is not None and self.K < 1:
            raise ValueError(f"K must be >= 1, got {self.K}")
        if not self.tol_term > 0.0:
            raise ValueError(f"tol_term must be > 0, got {self.tol_term}")
        if not self.tol_tail > 0.0:
            raise ValueError(f"tol_tail must be > 0, got {self.tol_tail}")
        if self.levels is not None and self.levels < 1:
            raise ValueError(f"levels must be >= 1, got {self.levels}")

    def resolve_v(self, n: int, model: ProcessModel) -> int:
        if self.V is not None:
            return self.V
        # the truncation-error constant grows sharply as d -> 1/2
        if memory_exponent(model) >= 1.0 / 3.0:
            return max(16384, 64 * n)
        return max(8192, 32 * n)

    def resolve_levels(self, model: ProcessModel) -> int:
        if self.levels is not None:
            return self.levels
        if regime(model) is Regime.SHORT:
            return 2
        d = memory_exponent(model)
        if d < 0.1:
            return 3
        if d < 0.2:
            return 4
        if d < 1.0 / 3.0:
            return 5
        return 6

    def resolve_scales(self, model: ProcessModel, n: int) -> list[int]:
        """The doubling ladder of inner cutoffs the explicit series runs at."""
        base = self.resolve_v(n, model)
        return [base << i for i in range(self.resolve_levels(model))]

    def resolve_k(self, model: ProcessModel, tol: float | None = None) -> int:
        if self.K is not None:
            return self.K
        t = tol if tol is not None else self.tol_term
        d = memory_exponent(model)
        if d > 0.0:
            s = np.sin(np.pi * d)
            # geometric tail s^K s/(1-s) below t: the stage count of the
            # summed series, which a solve's kernel applies stay well within
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

    ``model`` is the generating process, whose memory regime sets the cutoff
    ladder of every kernel built on it; ``inner_len`` is the factor length,
    the terms of each short-memory factor correlated (1 when there are none;
    the support on the exact path); ``tail_estimate`` bounds the absolute
    error per entry, rounding included, so it is 0 only on the exact path,
    which ``exact`` marks: a finite-support correlation, computed exactly.
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

    ``terms[k-1]`` is g^m_k(n, j) evaluated at the finest inner cutoff (their
    cumulative sums are the alternating-projection iterates), summed stage
    by stage under the series' own stop rule.  The value path solves for
    the sum instead, so the terms are computed on first read, once for all
    j of a result.  ``tail_estimate`` is the coefficient's truncation
    residual: the inner one left after ladder elimination, beta's share,
    and the series depth's (the solve's error bound) times the elimination
    gain.  It is the number the ``tol_tail`` check compares.  ``k_used`` is
    the number of kernel applies the finest cutoff's run made.
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


def _exact_support(a_vals: np.ndarray) -> int | None:
    """Length of the exact support of a finitely supported sequence, or None."""
    nz = np.nonzero(a_vals)[0]
    if len(nz) == 0:
        return 1
    support = int(nz[-1]) + 1
    if support <= _EXACT_SUPPORT_MAX and support < len(a_vals):
        return support
    return None


def _beta_values(model: ProcessModel, L: int) -> tuple[np.ndarray, float, int, bool]:
    """(beta values 0..L, tail bound, factor length, exact flag).

    c = b * r and a = a0 * s, with b and a0 the fractional-noise expansions
    and r, -s those of the short-memory part of the model (itself at d = 0,
    where b = -a0 is the unit impulse), so beta is the kernel beta0 of
    _fn_kernel correlated with rho_j = sum_p r_p s_{p-j}.
    """
    d = memory_exponent(model)
    if d == 0.0:
        # probe for exact support of the AR expansion (probe longer than any
        # support the exact path accepts, so a hit cannot be a false positive)
        probe = expand_ar(model, _EXACT_SUPPORT_MAX + 1).values
        support = _exact_support(probe)
        if support is not None:
            c = expand_ma(model, support - 1).values
            out = np.zeros(L + 1)
            for i in range(min(L + 1, support)):
                out[i] = np.dot(c[:support - i], probe[i:support])
            return out, 0.0, support, True
    elif model.ma_poly.coefficients == model.ar_poly.coefficients == (1.0,):
        beta0 = _fn_kernel(d, 0, L + 1)
        return beta0, 4.0 * np.finfo(float).eps * float(np.max(np.abs(beta0))), 1, False
    arma = replace(model, d=0.0) if d > 0.0 else model
    # uncached, since _decayed tries one length after another; an undecayed
    # factor is not refused here: its last quarter enters the bound
    (r, s), last = _decayed(lambda T: np.stack([_expansion_values(arma, T, CoeffKind.MA),
                                                -_expansion_values(arma, T, CoeffKind.AR)]))
    T = len(r)
    # rho_rev[q] = rho_{T-1-q} = (r reversed * s)_q pairs with beta0_{i+T-1-q}
    rho_rev = _convolve_window(r[::-1], s, 0, 2 * T - 1)
    beta0 = _fn_kernel(d, 1 - T, L + 2 * T - 1)
    # a factor's last quarter bounds its dropped tail, which moves rho by at
    # most that times the other factor's sum; plus the correlation's rounding
    dropped = last[0].sum() * np.abs(s).sum() + np.abs(r).sum() * last[1].sum()
    rounding = np.finfo(float).eps * np.log2(L + 2 * T) * np.abs(rho_rev).sum()
    return (_convolve_window(beta0, rho_rev, 2 * T - 2, L + 1),
            float((dropped + rounding) * np.max(np.abs(beta0))), T, False)


@lru_cache(maxsize=6)
def _beta_cached(model: ProcessModel, L: int) -> tuple[np.ndarray, float, int, bool]:
    vals, bound, used, exact = _beta_values(model, L)
    vals.setflags(write=False)
    return vals, bound, used, exact


def beta_for_model(model: ProcessModel, L: int) -> BetaSeq:
    """Correlation sequence beta_0..beta_L for a model (cached per model).

    The cache is keyed on a power-of-two covering length so that experiment
    sweeps over many n share one computation.
    """
    bucket = 1 << max(8, int(L).bit_length())
    vals, bound, used, exact = _beta_cached(model, bucket)
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
# inner-truncation ladder

def _elimination_exponent(model: ProcessModel) -> float:
    """Leading power of the inner-truncation error, 1/V^p.

    Long memory: p = 1 - 2d (measured across models and scales; matches the
    autocovariance tail exponent).  Short memory (d = 0): the error decays
    at least as fast as 1/V.
    """
    return 1.0 - 2.0 * memory_exponent(model)


def _ladder_weights(p: float, scales: list[int]) -> np.ndarray:
    """Elimination weights w with sum w_l S(V_l) free of V^{-p}, ..., V^{-(L-1)p}.

    Rows of the Vandermonde system are the powers x_l^t, x_l = V_l^{-p}; the
    weights are the first row of the inverse, so they reproduce constants
    exactly (sum w = 1) and annihilate each modeled power.
    """
    L = len(scales)
    if L == 1:
        return np.ones(1)
    A = np.empty((L, L))
    for i, V in enumerate(scales):
        x = float(V) ** (-p)
        A[i] = [x ** t for t in range(L)]
    e0 = np.zeros(L)
    e0[0] = 1.0
    return np.linalg.solve(A.T, e0)


def _max_workers(n_tasks: int) -> int:
    """Thread cap for n_tasks independent tasks: PREDICTORLAB_THREADS if
    set, else the CPU count, and never more than 8.  A malformed
    PREDICTORLAB_THREADS raises ConfigError whatever n_tasks is."""
    env = os.environ.get("PREDICTORLAB_THREADS")
    cap = os.cpu_count() or 1
    if env:
        try:
            cap = int(env)
        except ValueError:
            cap = 0
        if cap < 1:
            raise ConfigError(
                f"PREDICTORLAB_THREADS must be an integer >= 1, got {env!r}")
    return max(1, min(n_tasks, cap, 8))


def _cutoffs(scales: list[int], floor: int = 1) -> list[int]:
    """The cutoffs a ladder over ``scales`` runs at, finest first: every
    scale, or one scale V and its half max(V // 2, floor), which must lie
    below V for the two runs to show any truncation error."""
    if len(scales) > 1:
        return scales[::-1]
    V = scales[0]
    half = max(V // 2, floor)
    if half >= V:
        raise ValueError(f"levels=1 at V = {V} needs a half run below V, but it "
                         f"cannot go below {floor}; raise V or levels")
    return [V, half]


def _run_lanes(run, cutoffs: list[int]) -> list:
    """``run(V)`` at each cutoff, finest first: the calling thread runs the
    first cutoff while one worker thread runs the others in order.  Results
    come back in the order of ``cutoffs``, so ``run`` must not depend on the
    order in which they finish."""
    if _max_workers(len(cutoffs)) < 2:
        return [run(V) for V in cutoffs]
    with ThreadPoolExecutor(max_workers=1) as lane:
        coarse = lane.submit(lambda: [run(V) for V in cutoffs[1:]])
        finest = run(cutoffs[0])
        return [finest, *coarse.result()]


def _shared_prefix(runs: list[np.ndarray]) -> list[np.ndarray]:
    """Each run cut to the prefix, along every axis, that all runs share."""
    shape = np.min([r.shape for r in runs], axis=0)
    return [r[tuple(slice(0, k) for k in shape)] for r in runs]


def _eliminate(values: list[np.ndarray], cutoffs: list[int], levels: int,
               p: float) -> tuple[np.ndarray, np.ndarray]:
    """Eliminate the leading inner-truncation powers from the runs at
    ``cutoffs`` (``_cutoffs`` of a ladder of ``levels`` scales), both given
    finest first.

    Runs are compared on the prefix they share along every axis.  Returns
    (value, per-entry residual): |value - the elimination over all runs but
    the coarsest|.  With one scale the value is the finest run, uncorrected,
    and the residual 1.5 |value - the elimination over both runs|.
    """
    scales = cutoffs[::-1]
    stack = np.stack(_shared_prefix(values[::-1]))
    flat = stack.reshape(len(scales), -1)
    value = (_ladder_weights(p, scales) @ flat).reshape(stack.shape[1:])
    if levels == 1:
        return values[0], 1.5 * np.abs(stack[-1] - value)
    sub = (_ladder_weights(p, scales[1:]) @ flat[1:]).reshape(stack.shape[1:])
    return value, np.abs(value - sub)


def _stop_tol(policy: TruncationPolicy, gain: float) -> float:
    """Stopping tolerance of each run's k-series (the solve's depth bound,
    or the per-term rule of the stage-by-stage sum) tight enough that ladder
    weights of total magnitude ``gain`` cannot amplify what a run leaves
    out into the tail budget."""
    return min(policy.tol_term, max(policy.tol_tail / (16.0 * gain), _STOP_FLOOR))


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

    d_1 is the beta slice at offset n; each further vector is one Hankel
    apply.  This is the v = 0 column of delta_block, so it runs the same
    cutoff ladder with the same stopping rule and residual estimate.
    """
    block = delta_block(beta, n, 0, policy)
    return DVectors(n=n, vectors=block.values[:, :, 0], tail_estimate=block.tail_estimate)


def delta_block(beta: BetaSeq, n: int, v_max: int,
                policy: TruncationPolicy = DEFAULT_POLICY) -> DeltaBlock:
    """Iterated kernel block delta_k(n, u, v) for v = 0..v_max.

    delta_1(n, u, v) = beta_{n+u+v}; each stage applies the offset-n Hankel
    kernel to every column.  values[k-1, u, v]; v = 0 reproduces d_vectors.
    Iteration stops when the sup-norm falls below tol_term or the depth
    budget K is reached, at the finest cutoff; the others run as many stages.
    Each stage is a returned value, not a term of a sum, so a budget K that
    ends the iteration above tol_term leaves no returned stage wrong: it
    only returns fewer stages than tol_term would.
    """
    if v_max < 0:
        raise ValueError(f"v_max must be >= 0, got {v_max}")
    vals, model = beta.values, beta.model
    K = policy.resolve_k(model)
    scales = policy.resolve_scales(model, n)

    def run(V: int) -> np.ndarray:
        # the finest cutoff sets the stage count; the coarser ones run all K
        # stages and the elimination cuts them to the finest's count
        tol = policy.tol_term if V == scales[-1] else 0.0
        return _delta_run(vals, n, v_max, V, K, tol)

    cutoffs = _cutoffs(scales)
    block, resid = _eliminate(_run_lanes(run, cutoffs), cutoffs, len(scales),
                              _elimination_exponent(model))
    # (k, v, u) -> (k, u, v)
    return DeltaBlock(n=n, values=np.transpose(block, (0, 2, 1)),
                      tail_estimate=float(np.max(resid)))


# ---------------------------------------------------------------------------
# predictor series engine

def _stage_one(a_vals: np.ndarray, c_rev: np.ndarray, n: int, m: int) -> np.ndarray:
    """g_1: the Wiener weights b_j^m = sum_v c_{m-v} a_{j+v}, exact."""
    return c_rev @ np.stack([a_vals[1 + v:1 + v + n] for v in range(m + 1)])


def _columns(beta_vals: np.ndarray, n: int, m: int, V: int) -> np.ndarray:
    """The kernel's first columns delta_1(n+1, u, v) = beta_{n+1+u+v} for
    v = 0..m, u < V: direct slices."""
    if m >= V:
        raise ValueError(f"horizon m = {m} must be < V = {V}")
    return np.stack([beta_vals[n + 1 + v:n + 1 + v + V] for v in range(m + 1)])


def _g_terms_run(beta_vals: np.ndarray, a_vals: np.ndarray, c_head: np.ndarray,
                 n: int, m: int, V: int, K: int,
                 tol_term: float) -> tuple[np.ndarray, float]:
    """One full series evaluation at inner cutoff V.

    Returns (terms matrix, rows k = 1..K_used, columns j = 1..n; what the
    run left out): the geometric tail bound |g_k| r/(1-r) at the last stage,
    with r the recent decay ratio (0.999 before one is measured).  Stopping
    requires that bound and |g_k| under tol_term on two consecutive stages,
    so a slowly contracting series is not cut while its remaining mass is
    still large; a run that ends at the budget K reports what it left.
    """
    c_rev = c_head[::-1]  # c_rev[v] = c_{m-v}
    cols = _columns(beta_vals, n, m, V)
    g1 = _stage_one(a_vals, c_rev, n, m)
    terms = [g1]
    prev_max = float(np.max(np.abs(g1)))
    left = prev_max * 0.999 / (1.0 - 0.999)
    ratios: list[float] = []
    consec = 1 if prev_max < tol_term else 0
    if K >= 2:
        eng = _HankelFFT(beta_vals, n + 1, V, a_vals=a_vals, n_out=n)
        for k in range(2, K + 1):
            fx = eng.forward(cols)
            bvec = c_rev @ eng.a_correlate_from(fx)
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
                cols = eng.apply_from(fx)
    return np.array(terms), left


def _phi_from_terms(terms: np.ndarray) -> np.ndarray:
    """Sum the series with odd-k and even-k terms accumulated separately.

    The two subsequences live on different index geometries (j vs n+1-j);
    summing them apart avoids cancellation noise between the interleaves.
    """
    odd = terms[0::2].sum(axis=0)
    even = terms[1::2].sum(axis=0) if len(terms) > 1 else 0.0
    return odd + even


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
    depth bound.  Where _cg has no estimate below 1, the value is the
    Neumann sum of _g_terms_run instead.
    """
    c_rev = c_head[::-1]
    eng = _HankelFFT(beta_vals, n + 1, V, a_vals=a_vals, n_out=n)
    a_norm = _a_frobenius(a_vals, n, V)
    z, hz, rr, s, applies = _cg(eng, c_rev @ _columns(beta_vals, n, m, V), a_norm,
                                K, tol_stop, s_floor)
    if rr > 0.0 and s >= 1.0:
        terms, left = _g_terms_run(beta_vals, a_vals, c_head, n, m, V, K, tol_stop)
        return _phi_from_terms(terms), left, applies + max(len(terms) - 2, 0)
    bound = a_norm * np.sqrt(rr) / (1.0 - s) if rr > 0.0 else 0.0
    tail = eng.a_correlate_from(eng.forward(hz)) + eng.a_correlate_from(eng.forward(z))[::-1]
    return _stage_one(a_vals, c_rev, n, m) + tail, float(bound), applies


def _required_beta_len(n: int, V: int, m: int) -> int:
    return n + 1 + 2 * V + m + 2


# ---------------------------------------------------------------------------
# moment form: pure fractional noise on a quadrature, no cutoff

#: most quadrature nodes the fine grid may have: its Q x Q system (and the
#: solver's copy of it) must stay small
_MOMENT_NODES_MAX = 3072


def _moment_form(model: ProcessModel, policy: TruncationPolicy) -> bool:
    """Whether the moment form serves the model: pure fractional noise with
    d > 0, under a policy that pins none of the ladder's controls."""
    return (isinstance(model, Farima) and model.d > 0.0
            and model.ma_poly.coefficients == model.ar_poly.coefficients == (1.0,)
            and policy.V is None and policy.K is None and policy.levels is None)


@lru_cache(maxsize=2)
def _gauss_legendre(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1] by Golub-Welsch: the
    eigenvalues of the Jacobi matrix, and twice the squared first entries of
    its eigenvectors."""
    k = np.arange(1.0, order)
    off = k / np.sqrt(4.0 * k * k - 1.0)
    nodes, vecs = np.linalg.eigh(np.diag(off, 1) + np.diag(off, -1))
    return nodes, 2.0 * vecs[0] ** 2


def _dyadic(order: int, panels: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights on (0, 1/2] graded toward 0: Gauss-Legendre on the
    panels [2^-(k+1), 2^-k] for k = 1..panels-1, and on [0, 2^-panels]."""
    s, w = _gauss_legendre(order)
    hi = np.ldexp(1.0, -np.arange(1, panels + 1))
    half = (hi - np.append(hi[1:], 0.0)) / 2.0
    return ((hi - half)[:, None] + half[:, None] * s).ravel(), (half[:, None] * w).ravel()


def _moment_grids(d: float, n: int) -> list[tuple[int, int, int]]:
    """(Gauss-Legendre order, panels toward t = 1, panels toward t = 0) of
    the fine grid, and of the coarser one its error is read against.  The
    panels toward t = 1 resolve the x^(1-2d) edge of the solution at
    x = 1 - t, those toward t = 0 the t^(n-d-1) endpoint of a_{n+u}.  The
    coarse grid drops the order as well as panels: at the same order it
    under-reads the error."""
    edge, end = 1.0 - 2.0 * d, n - d
    k0, k1 = math.ceil(30.0 / edge), math.ceil(30.0 / end) + 2
    return [(6, k0, k1), (5, k0 - math.ceil(4.0 / edge), k1 - math.ceil(4.0 / end))]


def _moment_run(d: float, a_vals: np.ndarray, c_head: np.ndarray, n: int,
                grid: tuple[int, int, int]) -> np.ndarray:
    """phi^m_{n,.} of fractional noise from the moment form on one grid.

    For i >= 1, beta_i = c int_0^1 t^(i-d-1) dt with c = sin(pi d)/pi, so the
    offset-(n+1) kernel is H = sum_q nu_q phi_q phi_q^T, phi_q(u) = t_q^u and
    nu_q = c w_q t_q^(n-d), whose Gram matrix is G_qr = 1/(1 - t_q t_r),
    written x_q + x_r - x_q x_r in x = 1 - t.  The solve of _solve_run,
    (I - H^2) z = y with y = H (c_{m-v})_v, stays in the span of the phi_q:
    with S = diag(sqrt nu) G diag(sqrt nu) and P(t) = sum_v c_{m-v} t^v,
    (I - S) u = sqrt(nu) P and (I + S) g = u give z = sum_q alpha_q phi_q,
    alpha = sqrt(nu) g, and H z = sum_q beta_q phi_q, beta = sqrt(nu) S g
    = sqrt(nu) (u - g).  The AR correlation of phi_q is
    F_j(t_q) = sum_u a_{j+u} t_q^u, and since a_k = c int_0^1
    t^(k-d-1) (1-t)^d dt for k >= 1, F_n(t_q) = sum_r G_qr nu_r x_r^d / t_r,
    and F_j = a_j + t F_{j+1} below it.  Everything is carried in the
    sqrt(nu)-scaled F~ = sqrt(nu) F, so one Q x Q matrix is live at a time
    besides the solver's copy, and phi_j = g_1(j) + F~_j (u - g)
    + F~_{n+1-j} g.
    """
    order, k0, k1 = grid
    x_hi, w_hi = _dyadic(order, k0)
    t_lo, w_lo = _dyadic(order, k1)
    t = np.concatenate((1.0 - x_hi, t_lo))
    x = np.concatenate((x_hi, 1.0 - t_lo))
    root = np.sqrt(np.sin(np.pi * d) / np.pi * np.concatenate((w_hi, w_lo)) * t ** (n - d))
    # S, and then I - S and I + S, in one buffer; never 1 - t_q t_r
    s = np.multiply.outer(x, x)
    np.subtract(np.add.outer(x, x), s, out=s)
    np.reciprocal(s, out=s)
    s *= root
    s *= root[:, None]
    f = s @ (root * x ** d / t)  # F~_n
    diag = s.reshape(-1)[::len(t) + 1]
    p = np.zeros_like(t)
    for c in c_head:  # Horner: t^v carries c_{m-v}
        p = p * t + c
    np.negative(s, out=s)
    diag += 1.0
    u = np.linalg.solve(s, root * p)
    np.negative(s, out=s)
    diag += 2.0
    g = np.linalg.solve(s, u)
    del s, diag
    # F~_j for j = n down to 1, each read against (u - g, g)
    fw = np.empty((n, 2))
    weights = np.stack((u - g, g), axis=1)
    for j in range(n, 0, -1):
        fw[j - 1] = f @ weights
        f = root * a_vals[j - 1] + t * f
    return _stage_one(a_vals, c_head[::-1], n, len(c_head) - 1) + fw[:, 0] + fw[::-1, 1]


def _prop35_warning(model: ProcessModel, n: int) -> None:
    """Short-memory contraction check: warn when (sum |c|)(sum_{k>n} |a|) >= 1."""
    c = expand_ma(model, 1 << 12).values
    a = expand_ar(model, (1 << 12) + n).values
    rho = float(np.sum(np.abs(c)) * np.sum(np.abs(a[n + 1:])))
    if rho >= 1.0:
        warnings.warn(
            f"short-memory contraction factor {rho:.3g} >= 1 at n = {n}; "
            f"series convergence not guaranteed", stacklevel=4)


def _check_request(model: ProcessModel, n: int, m: int, beta: BetaSeq | None) -> None:
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if m < 0:
        raise ValueError(f"m must be >= 0, got {m}")
    if beta is not None and beta.model != model:
        raise ValueError(f"beta was built for {beta.model!r}, not for {model!r}")


def _series_inputs(model: ProcessModel, n: int, m: int, policy: TruncationPolicy,
                   beta: BetaSeq | None
                   ) -> tuple[list[int], BetaSeq, np.ndarray, np.ndarray]:
    """Check (n, m, beta) and gather what a series run reads: (the cutoff
    ladder, beta, a_0..a_{n+V} for the finest cutoff V, c_0..c_m)."""
    _check_request(model, n, m, beta)
    scales = policy.resolve_scales(model, n)
    c_head = expand_ma(model, m).values
    if regime(model) is Regime.SHORT:
        _prop35_warning(model, n)

    if beta is None or len(beta) < _required_beta_len(n, scales[-1], m):
        beta = beta_for_model(model, _required_beta_len(n, scales[-1], m))
    if beta.exact:
        # finite-support kernel: every stage is exact at any cutoff wide
        # enough; one scale, no elimination, nothing to estimate
        scales = scales[:1]
    return scales, beta, expand_ar(model, n + scales[-1]).values, c_head


def _depth_controls(model: ProcessModel, policy: TruncationPolicy,
                    scales: list[int]) -> tuple[float, float, float, int]:
    """(elimination exponent p, elimination gain sum |w|, each run's stop
    tolerance, kernel-apply budget K) of a ladder over ``scales``."""
    p = _elimination_exponent(model)
    gain = float(np.sum(np.abs(_ladder_weights(p, scales))))
    tol_stop = _stop_tol(policy, gain)
    return p, gain, tol_stop, policy.resolve_k(model, tol_stop)


def _finest_terms(beta: BetaSeq, a_vals: np.ndarray, c_head: np.ndarray, n: int,
                  m: int, scales: list[int], K: int, tol_stop: float) -> np.ndarray:
    """The per-term record: the finest cutoff's Neumann terms, read-only."""
    out = _g_terms_run(beta.values, a_vals, c_head, n, m, scales[-1], K, tol_stop)[0]
    out.setflags(write=False)
    return out


def _check_tail(resid: float, policy: TruncationPolicy, n: int,
                remedy: str = "increase V, levels or K") -> None:
    if resid > policy.tol_tail:
        raise TruncationError(
            f"truncation residual {resid:.3e} exceeds tol_tail "
            f"{policy.tol_tail:g} at n = {n}; {remedy}",
            achieved=resid, required=policy.tol_tail)


def _moment_predictor(model: Farima, n: int, m: int, policy: TruncationPolicy,
                      beta: BetaSeq | None
                      ) -> tuple[np.ndarray, np.ndarray, int, Callable[[], np.ndarray]]:
    """(phi, per-coefficient residual, kernel applies, per-term record) of
    pure fractional noise from the moment form: _moment_run on the fine grid
    and on the coarse one, with the residual their difference.  The record
    is the ladder's, built with its beta and its long AR expansion only when
    read."""
    # both grids run on the calling thread (the dense solves are threaded
    # already, and a second lane measured no faster), but a malformed thread
    # cap is refused on every explicit call, whichever path serves it
    _max_workers(1)
    d = model.d
    grids = _moment_grids(d, n)
    order, k0, k1 = grids[0]
    if order * (k0 + k1) > _MOMENT_NODES_MAX:
        raise TruncationError(
            f"the quadrature for d = {d} at n = {n} needs {order * (k0 + k1)} nodes, "
            f"above its cap of {_MOMENT_NODES_MAX}")
    a_vals, c_head = expand_ar(model, n + m).values, expand_ma(model, m).values
    fine, coarse = (_moment_run(d, a_vals, c_head, n, grid) for grid in grids)
    resid = np.abs(fine - coarse)
    _check_tail(float(np.max(resid)), policy, n,
                "it is the quadrature's own error, on a grid that no V, levels or K sets")

    @cache
    def terms() -> np.ndarray:
        scales, ladder_beta, ladder_a, ladder_c = _series_inputs(model, n, m, policy, beta)
        *_, tol_stop, K = _depth_controls(model, policy, scales)
        return _finest_terms(ladder_beta, ladder_a, ladder_c, n, m, scales, K, tol_stop)

    return fine, resid, 0, terms


def _ladder_predictor(model: ProcessModel, n: int, m: int, policy: TruncationPolicy,
                      beta: BetaSeq | None
                      ) -> tuple[np.ndarray, np.ndarray, int, Callable[[], np.ndarray]]:
    """(phi, per-coefficient residual, kernel applies of the finest run,
    per-term record) from the cutoff ladder: a solve at each cutoff, and the
    elimination over them."""
    scales, beta, a_vals, c_head = _series_inputs(model, n, m, policy, beta)
    # beta's share of every coefficient's residual; no ladder run can undo it
    beta_share = beta.tail_estimate * 4.0
    _check_tail(beta_share, policy, n,
                "it is beta's own error: the model's ARMA factor has not decayed (or "
                "tol_tail is below beta's rounding), and no V, levels or K can reduce it")
    p, gain, tol_stop, K = _depth_controls(model, policy, scales)
    # the long-memory kernel's norm tends to sin(pi d) as n grows
    s_floor = float(np.sin(np.pi * memory_exponent(model)))

    def run(V: int) -> tuple[np.ndarray, float, int]:
        return _solve_run(beta.values, a_vals, c_head, n, m, V, K, tol_stop, s_floor)

    cutoffs = scales if beta.exact else _cutoffs(scales, floor=m + 1)
    runs = _run_lanes(run, cutoffs)
    if beta.exact:
        phi, resid = runs[0][0], np.zeros(n)
    else:
        phi, resid = _eliminate([value for value, _, _ in runs], cutoffs, len(scales), p)
    # each coefficient's residual: the ladder's, what beta's own truncation
    # error can move it by, and what the series depth left out of any run,
    # as far as the elimination weights can amplify it
    tail_j = resid + beta_share + gain * max(left for _, left, _ in runs)
    _check_tail(float(np.max(tail_j)), policy, n)
    return (phi, tail_j, runs[0][2],
            cache(lambda: _finest_terms(beta, a_vals, c_head, n, m, scales, K, tol_stop)))


def finite_predictor_multistep(model: ProcessModel, n: int, m: int,
                               policy: TruncationPolicy = DEFAULT_POLICY,
                               beta: BetaSeq | None = None) -> ExplicitPredictor:
    """Finite predictor coefficients phi^m_{n,j} from the explicit series.

    Pure fractional noise ``Farima(d)``, d > 0, under a policy that pins none
    of V, K and levels, is solved on a quadrature of the series' moment form
    (_moment_run), with no cutoff; every other model or policy runs the
    cutoff ladder.

    Parameters
    ----------
    model : ProcessModel
    n : int
        Number of past observations, n >= 1.
    m : int
        Prediction horizon (m = 0: one-step).
    policy : TruncationPolicy
    beta : BetaSeq, optional
        Precomputed correlation sequence of ``model`` (experiment sweeps share
        one); must cover the required index range or it is recomputed.  One
        built for another model raises ValueError.  The moment form reads
        none, except for the per-term record.

    Returns
    -------
    ExplicitPredictor
        ``table.coefficients[j-1]`` = phi^m_{n,j}; ``series[j-1]`` the
        per-term diagnostics for that j (terms from the ladder's finest inner
        cutoff; the table carries the ladder-eliminated coefficients, or the
        moment form's).

    Raises
    ------
    TruncationError
        Truncation residual above policy.tol_tail: the ladder's, beta's, or
        what the series solve left unsolved within the budget of K kernel
        applies (which a diverging series also exhausts); on the moment form,
        the quadrature's, or a grid above its node cap.
    """
    _check_request(model, n, m, beta)
    evaluate = _moment_predictor if _moment_form(model, policy) else _ladder_predictor
    phi, tail_j, k_used, terms = evaluate(model, n, m, policy, beta)
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
    finite_predictor_multistep reports, at the finest cutoff of the policy's
    ladder, with no stop before K (fewer only if the terms vanish exactly).
    """
    if not 1 <= j <= n:
        raise ValueError(f"need 1 <= j <= n, got j = {j}, n = {n}")
    if K < 1:
        raise ValueError(f"K must be >= 1, got {K}")
    scales, beta, a_vals, c_head = _series_inputs(model, n, m, policy, None)
    terms, _ = _g_terms_run(beta.values, a_vals, c_head, n, m, scales[-1], K, 1e-300)
    return np.cumsum(terms[:, j - 1])
