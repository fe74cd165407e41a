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
the predictor's values do not sum it stage by stage: with y = H (c_{m-v})_v
they solve (I - H^2) z = y and read the sum off A H z and A z, A the AR
correlation.  Both regimes make the offset-N kernel a small matrix M on a
"corner plus state" (explicit unknowns for its first rows, then a state)
with one read of any columns of the unknowns as the sequence they stand
for.  d_k and delta_k (offset n, from the kernel's first columns, read at
V rows) and the per-term record (offset n+1, from y, read through the FFT
correlation _read_out that also gives A for the weights) are then the same
stages: powers of M, run in blocks by one loop (_stages).

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

Short memory (d = 0) has a kernel of finite rank, so its series has an
exact finite sum (see _short_kernel).  With p = deg(ar), q = deg(ma) and
k0 = max(0, p + 1 - q), the AR expansion a_k obeys the MA recurrence from
k0 on, and so does beta: beta_i = e1' F^(i-k0) b0 for i >= k0, with F the
q x q companion matrix of ma (Kronecker's theorem: a Hankel operator with a
rational symbol has finite rank; Peller, Hankel Operators and Their
Applications, 2003).  The offset-N kernel is then an explicit corner of its
first max(0, k0 - N) rows plus a q-dimensional state, through the Stein
equations X - F X F = b0 e1' and Y - F' Y F = e1 e1' (Inoue, J. Multivariate
Anal. 2021, derives closed forms of this kind for ARMA).  b0 comes from
ar(F)^-1 ma(F), so no factor is truncated; AR(p), Ar1 and ExplicitModel
(q = 0) are a corner alone, and for AR(1) every term after the first is an
exact zero.  Nothing here has a cutoff or a depth budget: V is only the
output window of d_k and delta_k, and K caps their stages and the
long-memory record.

Every correlation here (beta, the Hankel apply, the AR correlation) keeps a
window of a linear convolution, so its FFT runs at the shortest circular
length that leaves the window unaliased, max(lo + count, total - lo) for a
window lo..lo+count-1 of a length-total convolution, rather than at the full
length: the entries that wrap around land below the window.  That is L + 2T
instead of L + 4T points for long-memory beta, a closed-form kernel
correlated with T terms of its ARMA factors; the window is exact either
way, so only rounding changes.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field, replace
from functools import cache, lru_cache

import numpy as np

from .coeffs import (CoeffKind, _convolve_window, _decayed,
                     _expansion_values, _forward_solve, expand_ar, expand_ma)
from .errors import TruncationError
from .levinson import PredictorSource, PredictorTable
from .models import Ar1, Farima, ProcessModel, memory_exponent

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

#: hard ceiling on the resolved series depth
_K_CAP = 20000


@dataclass(frozen=True)
class TruncationPolicy:
    """Controls for the truncation of the explicit series.

    No model's weights depend on V or K: long memory (d > 0) runs on a
    quadrature and short memory (d = 0) in closed form, neither with a
    cutoff.  V and K only bound what d_k, delta_k and the long-memory
    per-term record return.

    V: output window of d_k and delta_k (None -> max(8192, 32 n), or
    max(16384, 64 n) from d = 1/3 on).
    K: most stages d_vectors, delta_block and the long-memory record return
    (None -> from the geometric decay rate for pure fractional noise, else
    their stop rules end them).
    tol_term: absolute stopping tolerance for the k-series.
    tol_tail: cap on the estimated residual of the final coefficients, of
    d_k and of delta_k; exceeded -> TruncationError.
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
        """[resolve_v]: the output window of d_k and delta_k, as a list
        because the benchmark's tracing reads its top entry."""
        return [self.resolve_v(n, model)]

    def resolve_k(self, model: ProcessModel) -> int:
        if self.K is not None:
            return self.K
        k = _K_CAP
        d = memory_exponent(model)
        if d > 0.0 and _pure_noise(model):
            s = np.sin(np.pi * d)
            # geometric tail s^K s/(1-s) below tol_term: the stage count of
            # the summed series
            k = int(np.ceil(np.log(self.tol_term * (1.0 - s) / s) / np.log(s))) + 8
        # an ARMA factor's kernel can contract far more slowly than sin(pi d)
        # at small n, and short memory's contracts at its MA roots: the
        # record's and d_k's stop rules end them
        return max(4, min(k, _K_CAP))


DEFAULT_POLICY = TruncationPolicy()


@dataclass(frozen=True, eq=False)
class BetaSeq:
    """Correlation sequence beta_0..beta_L with its truncation residual bound.

    ``tail_estimate`` bounds the absolute error per entry, rounding
    included.  At d = 0 beta is in closed form (_short_kernel), exact up to
    rounding, and 0 where it is a finite sum of products (q = 0: AR(p),
    Ar1, ExplicitModel).
    """

    values: np.ndarray
    tail_estimate: float = 0.0

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
    alternating-projection iterates), summed stage by stage on the system
    that gave the weights (the quadrature's fine grid, or short memory's
    corner plus state) until the running sums are within tol_term of the
    table; computed on first read, once for all j of a result.
    ``tail_estimate`` is the coefficient's residual, the number the
    ``tol_tail`` check compares: beta's share plus the quadrature's distance
    from its coarse grid, or the short-memory closed form's rounding.
    ``k_used`` counts kernel applies spent on the weights: 0, as no model
    iterates its kernel for them (the benchmark's tracing reads it).
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
    """beta0_k = sin(pi d) / (pi (k - d)), k = lo..lo+count-1, d > 0: the
    beta of fractional noise in closed form (Gauss's 2F1 sum), negative k
    included."""
    k = np.arange(lo, lo + count, dtype=float)
    return np.sin(np.pi * d) / (np.pi * (k - d))


@lru_cache(maxsize=4)
def _arma_factor(model: Farima) -> tuple[np.ndarray, np.ndarray, float]:
    """(r, s, dropped): the MA expansion r and the negated AR expansion s of
    a long-memory model's short-memory part, each cut where it has
    decayed (_decayed), and a bound on what their dropped tails move
    rho_j = sum_p r_p s_{p-j} by in l1: a factor's last quarter bounds its
    dropped tail, times the other factor's sum.  An undecayed factor is not
    refused here: its last quarter enters the bound."""
    arma = replace(model, d=0.0)
    rows, last = _decayed(lambda T: np.stack([_expansion_values(arma, T, CoeffKind.MA),
                                              -_expansion_values(arma, T, CoeffKind.AR)]))
    rows.setflags(write=False)  # cached: every caller shares them
    r, s = rows
    return r, s, float(last[0].sum() * np.abs(s).sum() + np.abs(r).sum() * last[1].sum())


@lru_cache(maxsize=6)
def _beta_values(model: ProcessModel, L: int) -> tuple[np.ndarray, float]:
    """(beta values 0..L, per-entry error bound).

    At d = 0 beta is the closed form of _short_kernel: its first k0 entries,
    then the MA recurrence run from b0 (_ma_orbit).  In long memory
    c = b * r and a = a0 * s, with b and a0 the fractional-noise expansions
    and r, -s those of the short-memory part of the model, so beta is the
    kernel beta0 of _fn_kernel correlated with rho_j = sum_p r_p s_{p-j},
    as _moment_weight keeps it: beta_i = sum_k R_k beta0_{i+jmin+k}.  The
    bound carries the factors' dropped tails and the mass cut from rho's
    negative end, so that it covers the quadrature's kernel rows too.
    """
    d = memory_exponent(model)
    if d == 0.0:
        k0, ma = _short_shape(model)
        _, head, b0, bound = _short_kernel(model)
        out = np.zeros(L + 1)
        out[:k0] = head[:L + 1]
        if L + 1 > k0:
            out[k0:] = _ma_orbit(ma, b0[:, None], L + 1 - k0)[:, 0]
        return out, bound
    if _pure_noise(model):
        beta0 = _fn_kernel(d, 0, L + 1)
        return beta0, 4.0 * np.finfo(float).eps * float(np.max(np.abs(beta0)))
    R, jmin, cut = _moment_weight(model)
    beta0 = _fn_kernel(d, jmin, L + len(R))
    # the factors' dropped tails and the cut, plus the correlation's rounding
    rounding = np.finfo(float).eps * np.log2(L + 2 * len(R)) * np.abs(R).sum()
    return (_convolve_window(beta0, R[::-1], len(R) - 1, L + 1),
            float((_arma_factor(model)[2] + cut + rounding) * np.max(np.abs(beta0))))


def beta_for_model(model: ProcessModel, L: int) -> BetaSeq:
    """Correlation sequence beta_0..beta_L for a model (cached per model).

    The cache is keyed on a power-of-two covering length so that experiment
    sweeps over many n share one computation.
    """
    bucket = 1 << max(8, int(L).bit_length())
    vals, bound = _beta_values(model, bucket)
    vals.setflags(write=False)  # the cached array itself, not only this view
    return BetaSeq(vals[:L + 1], tail_estimate=bound)


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
    # entries V-1..2V-2 of the band convolved with the reversed input
    return _convolve_window(vals[n:n + 2 * V - 1], x[::-1], V - 1, V)


# ---------------------------------------------------------------------------
# d_k vectors and delta blocks

def d_vectors(model: ProcessModel, n: int,
              policy: TruncationPolicy = DEFAULT_POLICY) -> DVectors:
    """Iterated kernel vectors d_k(n, u), u = 0..V-1, k = 1..K_used, of the
    model's kernel.

    d_1 is the beta slice at offset n; each further vector is one kernel
    apply.  This is the v = 0 column of delta_block, so it takes the same
    path, with the same stopping rule, residual estimate and tol_tail check.
    """
    block = delta_block(model, n, 0, policy)
    return DVectors(n=n, vectors=block.values[:, :, 0], tail_estimate=block.tail_estimate)


def delta_block(model: ProcessModel, n: int, v_max: int,
                policy: TruncationPolicy = DEFAULT_POLICY) -> DeltaBlock:
    """Iterated kernel block delta_k(n, u, v) of the model's kernel for
    v = 0..v_max, u = 0..V-1 with V = ``policy.resolve_v``, n >= 1.

    delta_1(n, u, v) = beta_{n+u+v}; each stage applies the offset-n Hankel
    kernel to every column.  values[k-1, u, v]; v = 0 reproduces d_vectors.
    Iteration stops at the first stage whose window is below tol_term in
    sup-norm, or after K stages; each stage is a returned value, not a term
    of a sum, so K only returns fewer stages.  The stages are the record's
    (_stages) on the offset-n system, from the kernel's first columns, read
    at V rows: on the quadrature's fine grid, whose distance from the
    coarse grid's stages is the residual, or on short memory's corner plus
    state, whose residual is beta's rounding.  A residual above tol_tail
    raises TruncationError, as the weights' does.
    """
    if n < 1 or v_max < 0:
        raise ValueError(f"need n >= 1 and v_max >= 0, got n = {n}, v_max = {v_max}")
    V, K = policy.resolve_v(n, model), policy.resolve_k(model)
    long = memory_exponent(model) > 0.0
    U0 = _corner(model, n) if long else _short_size(model, n)
    grids = _moment_grids(model, n, U0) if long else ()
    need = n + v_max + max(V, 2 * U0 + (0 if long else len(_short_shape(model)[1]) - 1))
    beta = beta_for_model(model, need)  # the entries the system reads
    systems = ([_moment_setup(model, n, U0, grid, beta, v_max) for grid in grids] if long
               else [_short_setup(model, n, beta, v_max)])

    def stages(system, count: int):
        # each block's rows at u < V, with the stages on axis 1
        mat, cols, read = system

        def rows(s: np.ndarray) -> np.ndarray:
            x = np.ascontiguousarray(s.swapaxes(0, 1))
            return read(x.reshape(len(x), -1), V)[0].reshape(V, *x.shape[1:])
        return _stages(mat, mat @ cols, count, rows)

    first = _hankel(beta.values, n, V, v_max + 1)
    blocks = []  # stages 2.. on the fine grid, on axis 1
    if np.max(np.abs(first)) >= policy.tol_term:
        for block in stages(systems[0], K - 1):
            # a stage's first rows bound its sup from below
            small = np.max(np.abs(block[:256]), axis=0).max(axis=1) < policy.tol_term
            if small.any():
                small = np.max(np.abs(block), axis=0).max(axis=1) < policy.tol_term
            blocks.append(block[:, :np.argmax(small) + 1] if small.any() else block)
            if small.any():
                break
    dist = 0.0
    if long:
        for coarse, fine in zip(stages(systems[1], sum(b.shape[1] for b in blocks)), blocks):
            coarse -= fine
            dist = max(dist, float(np.max(np.abs(coarse, out=coarse))))
    resid = dist + (0.0 if long and _pure_noise(model) else 4.0 * beta.tail_estimate)
    _check_tail(resid, policy, n, _QUADRATURE_REMEDY if long else _ROUNDING_REMEDY)
    values = np.concatenate([first[None]] + [block.swapaxes(0, 1) for block in blocks])
    return DeltaBlock(n, values, resid)


# ---------------------------------------------------------------------------
# predictor series engine

def _hankel(vals: np.ndarray, lo: int, rows: int, cols: int) -> np.ndarray:
    """The rows x cols Hankel matrix [u, w] -> vals[lo+u+w], as a view."""
    return np.lib.stride_tricks.sliding_window_view(vals[lo:lo + rows + cols - 1], cols)


def _read_out(a_vals: np.ndarray, z: np.ndarray, h: np.ndarray) -> np.ndarray:
    """A(x)_j = sum_u a_{j+u} z_u + h_{n-j}, j = 1..n, for each column of a
    state x as a system's read gives it (_moment_setup, _short_setup): z is
    x at u = 0..L-1, L = U0 + n - 1, the rows below the top row
    j + u = n + U0, and h the tail from the top row on, at k = 0..n-1.
    One FFT correlation serves all columns."""
    n, L = len(h), len(z)
    if not L:
        return h[::-1].copy()
    return _convolve_window(a_vals[1:L + 1], z[::-1], L - 1, n) + h[::-1]


def _phi(a_vals: np.ndarray, c_head: np.ndarray, z: np.ndarray, h: np.ndarray) -> np.ndarray:
    """phi^m_{n,.} = g_1(j) + A(u - g)_j + A(g)_{n+1-j} from a read (z, h)
    of _moment_solve's columns, with g_1 the Wiener weights
    sum_v c_{m-v} a_{j+v}; on magnitudes, each weight's sum of its terms'
    sizes."""
    fw = _read_out(a_vals, z, h)
    return c_head[::-1] @ _hankel(a_vals, 1, len(c_head), len(h)) + fw[:, 0] + fw[::-1, 1]


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
    that recurrence run on from rho_{-deg(ar)}.. (_ma_orbit): unlike the
    FFT's, its small entries keep their relative accuracy, and with no MA
    factor they are exact zeros.  That end is cut while what it drops stays
    under eps sum |rho|, and ``cut``, that l1 mass, joins beta's bound.
    """
    if _pure_noise(model):
        return None, 0, 0.0
    r, s, _ = _arma_factor(model)
    T, deg = len(r), model.ar_poly.degree
    rho = _convolve_window(r, s[::-1], 0, 2 * T - 1)  # rho_j at j + T - 1
    rho = rho[T - 1 - deg:T + int(np.nonzero(r)[0][-1])]  # j = -deg .. support of r
    lo, ma = -deg, model.ma_poly.coefficients
    if len(ma) > 1:
        # rho_{-deg-1-k}, k >= 0, continues rho_{-deg+q-1}, .., rho_{-deg}
        q = len(ma) - 1
        (tail,), _ = _decayed(lambda T: _ma_orbit(ma, rho[q - 1::-1, None], q + T)[q:, 0])
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
        corner = _hankel(beta.values, N, U0, U0)
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
    a0 = expand_ar(Farima(model.d), top)
    out = s[0] * f
    for p in range(1, int(np.nonzero(s)[0][-1]) + 1):
        f = t * f
        if p <= top:
            f += r * a0[top - p]
        out += s[p] * f
    return out


def _moment_setup(model: Farima, N: int, U0: int, grid: tuple[np.ndarray, float],
                  beta: BetaSeq | None, v_max: int, c_head: np.ndarray | None = None):
    """(M, first, read) of the offset-N kernel on one grid: first is its
    columns v <= v_max in _moment_system's unknowns, the beta slices
    beta_{N+u+v} on the corner and a t^v on the nodes, and read(x, rows)
    gives (z, h) for any columns x of the unknowns: z is x at u < rows, the
    corner's rows and then sum_q r_q x_q t_q^(u-U0).  The predictor's
    system (N = n + 1, with c_head) has the one column y = H (c_{m-v})_v
    instead, a P(t), P(t) = sum_v c_{m-v} t^v, on the nodes, and h is the
    tail past the top row n + U0 that _read_out needs (empty otherwise):
    h_k = sum_q f_q x_q t_q^k for k < n, with f = r F_{n+U0} (_f_top),
    F_k(t) = sum_u a_{k+u} t^u.
    """
    top = None if c_head is None else N - 1 + U0
    t, r, a, mat, f = _moment_system(model, N, U0, grid, beta, top)
    if c_head is None:
        first = a[:, None] * t[:, None] ** np.arange(v_max + 1)
        corner = _hankel(beta.values, N, U0, v_max + 1) if U0 else None
    else:
        first, f = a * np.polyval(c_head, t), _f_top(model, f, r, t, top)
        corner = c_head[::-1] @ _hankel(beta.values, N, len(c_head), U0) if U0 else None
    if U0:
        first = np.concatenate((corner, first))
    lead = r[:, None] if f is None else np.stack((r, f), axis=1)
    powers = cache(lambda count: t ** np.arange(count)[:, None])  # shared by every read

    def read(x: np.ndarray, rows: int) -> tuple[np.ndarray, np.ndarray]:
        # the state's rows and the tail share each block of 256 powers t^u,
        # which scales alpha block by block, so no rows x Q matrix is built
        cols, count = x.shape[1], max(rows - U0, 0 if f is None else N - 1)
        alpha = (x[U0:, None, :] * lead[:, :, None]).reshape(len(t), -1)
        nodes, head = np.empty((count, alpha.shape[1])), powers(min(256, count))
        for lo in range(0, count, 256):
            np.matmul(head[:count - lo], t[:, None] ** lo * alpha if lo else alpha,
                      out=nodes[lo:lo + 256])
        z = nodes[:max(rows - U0, 0), :cols]
        if U0:
            z = np.concatenate((x[:min(U0, rows)], z))
        return z, nodes[:, cols:]
    return mat, first, read


def _moment_solve(mat: np.ndarray, y: np.ndarray) -> np.ndarray:
    """(u - g, g) as columns, from (I - M) u = y and (I + M) g = u: then
    z = g and H z = u - g.  Both systems are built in M's own buffer, which
    is overwritten, so one matrix of the system's size is live at a time
    besides the solver's copy."""
    diag = mat.reshape(-1)[::len(mat) + 1]
    # I - M and then I + M in the same buffer
    np.negative(mat, out=mat)
    diag += 1.0
    u = np.linalg.solve(mat, y)
    np.negative(mat, out=mat)
    diag += 2.0
    g = np.linalg.solve(mat, u)
    return np.stack((u - g, g), axis=1)


def _moment_run(model: Farima, a_vals: np.ndarray, c_head: np.ndarray, n: int, U0: int,
                grid: tuple[np.ndarray, float], beta: BetaSeq | None) -> np.ndarray:
    """phi^m_{n,.} from the moment form on one grid."""
    mat, y, read = _moment_setup(model, n + 1, U0, grid, beta, len(c_head) - 1, c_head)
    weights = _moment_solve(mat, y)
    del mat
    return _phi(a_vals, c_head, *read(weights, U0 + n - 1))


#: most stages _stages forms and reads back at once
_RECORD_BLOCK = 64


def _stages(mat: np.ndarray, first: np.ndarray, count: int,
            read: Callable[[np.ndarray], np.ndarray]):
    """read(s) of the stages M^k first, k < count, in blocks s of up to
    _RECORD_BLOCK stages on a leading axis.  The powers are written in place
    into one buffer, which the next block overwrites, and none past count is
    formed."""
    block = np.empty((min(_RECORD_BLOCK, count),) + first.shape)
    for k in range(count):
        i = k % len(block)
        if k:
            np.matmul(mat, block[i - 1], out=block[i])
        else:
            block[0] = first
        if i + 1 == len(block) or k + 1 == count:
            yield read(block[:i + 1])


def _record(model: ProcessModel, n: int, m: int, policy: TruncationPolicy, K: int,
            table: np.ndarray | None = None) -> np.ndarray:
    """The per-term record g_1..g_K on the system (M, y, read) that gives the
    weights (the fine grid of _moment_run, or _short_setup), read-only; with
    a ``table``, it stops at the first term whose running sums are within
    tol_term of it.  g_k(j) is A(gamma^k)_j for odd k and A(gamma^k)_{n+1-j}
    for even k, with gamma^2 = y and gamma^(k+1) = M gamma^k (_stages).  A
    is linear, so a system of fewer unknowns than a block (short memory's,
    as a rule) reads each unknown once, and a block is then a product with
    those n rows."""
    if memory_exponent(model) > 0.0:
        U0, grids, beta, _, a_vals, c_head = _moment_inputs(model, n, m, policy)
        mat, gamma, read = _moment_setup(model, n + 1, U0, grids[0], beta, m, c_head)
    else:
        U0, beta, a_vals, c_head = _short_inputs(model, n, m)
        mat, gamma, read = _short_setup(model, n + 1, beta, m, c_head)

    def readout(x: np.ndarray) -> np.ndarray:
        return _read_out(a_vals, *read(x, U0 + n - 1))
    rows = readout(np.eye(len(gamma))) if len(gamma) < _RECORD_BLOCK else None
    blocks = _stages(mat, gamma, K - 1, lambda s: readout(s.T).T if rows is None else s @ rows.T)
    terms = [c_head[::-1] @ _hankel(a_vals, 1, len(c_head), n)]
    total, block = terms[0], ()  # block: stages read back, not yet recorded
    while len(terms) < K and (table is None or np.max(np.abs(total - table)) > policy.tol_term):
        if not len(block):
            block = next(blocks)
            block[::2] = block[::2, ::-1]  # each block starts at an even k
        terms.append(block[0])
        total, block = total + block[0], block[1:]
    out = np.array(terms)
    out.setflags(write=False)
    return out


# ---------------------------------------------------------------------------
# short memory: a kernel of finite rank, in closed form

#: why a short-memory residual is no policy control's to reduce
_ROUNDING_REMEDY = "it is the closed form's rounding, which no V or K sets"


def _short_shape(model: ProcessModel) -> tuple[int, tuple[float, ...]]:
    """(k0, ma) of a short-memory model: from k0 on, a_k satisfies the
    recurrence ma * a = 0, so every kernel entry beta_i with i >= k0 does
    too.  k0 = max(0, p + 1 - q) with p and q the degrees of ar and ma, and
    ma = (1,) (q = 0) where a has finite support: Ar1's is 2, an
    ExplicitModel's is its a up to the last nonzero entry."""
    if isinstance(model, Farima):
        ar, ma = model.ar_poly.coefficients, model.ma_poly.coefficients
        return max(0, len(ar) - len(ma) + 1), ma
    if isinstance(model, Ar1):
        return 2, (1.0,)
    return len(np.trim_zeros(np.asarray(model.a), "b")), (1.0,)


def _short_size(model: ProcessModel, N: int) -> int:
    """U0 = max(0, k0 - N), the corner of the offset-N kernel; a corner
    plus state above _MOMENT_NODES_MAX unknowns raises before anything is
    built."""
    k0, ma = _short_shape(model)
    U0 = max(0, k0 - N)
    if U0 + len(ma) - 1 > _MOMENT_NODES_MAX:
        raise TruncationError(f"the closed form for {model!r} at offset {N} needs a corner "
                              f"of {U0} and a state of {len(ma) - 1}, above its cap of "
                              f"{_MOMENT_NODES_MAX} unknowns")
    return U0


def _at_matrix(poly, F: np.ndarray) -> np.ndarray:
    """sum_k poly_k F^k, by Horner's rule."""
    out = np.zeros_like(F)
    for coef in poly[::-1]:
        out = out @ F
        out[np.diag_indices_from(out)] += coef
    return out


def _ma_orbit(ma: tuple[float, ...], head: np.ndarray, count: int) -> np.ndarray:
    """e1' F^u x for u < count and each column x of ``head`` (q rows), F
    the companion matrix of ma: x_0..x_{q-1} continued by the recurrence
    ma * x = 0, one banded solve for all columns (zeros for q = 0)."""
    q = len(ma) - 1
    rhs = np.zeros((max(count, q), head.shape[1]))
    if not q:
        return rhs[:count]
    # the first q entries of ma * x, the seeds of the recurrence
    for k in range(q):
        rhs[k:q] += ma[k] * head[:q - k]
    return _forward_solve(ma, rhs)[:count]


def _stein(left: np.ndarray, c: np.ndarray, right: np.ndarray) -> np.ndarray:
    """sum_w left^w c right^w, the solution of X - left X right = c, by
    doubling: each step adds the next 2^k terms at once, until the squared
    powers underflow (both spectral radii are below 1)."""
    x = c
    for _ in range(64):
        step = left @ x @ right
        if not np.any(step):
            break
        x = x + step
        left, right = left @ left, right @ right
    return x


@lru_cache(maxsize=4)
def _short_kernel(model: ProcessModel) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """(F, head, b0, bound) of a short-memory kernel: beta_i = head[i] for
    i < k0 and e1' F^(i-k0) b0 from k0 on, with F the companion matrix of
    ma, which maps (x_i, .., x_{i+q-1}) to (x_{i+1}, .., x_{i+q}) for any
    sequence with ma * x = 0 there; ``bound`` is each entry's rounding (0
    for q = 0, where every entry is a finite sum of products).

    With a~_k = (a_k, .., a_{k+q-1}) = F^(k-k0) a~_k0, what c contributes
    from its r-th term on is sum_{v>=r} c_v a~_{k0+v-r} = T_r(F) a~_k0, with
    T_r(z) = sum_{v>=r} c_v z^(v-r) = N_r(z) / ar(z) and N_r the polynomial
    (ma - ar c_{<r}) / z^r, as c = ma/ar.  So b0 = ar(F)^-1 ma(F) a~_k0
    (r = 0), and head[i] is the finite sum over v < k0 - i plus the first
    entry of T_{k0-i}(F) a~_k0: no factor is expanded past k0 + 2q terms.
    """
    k0, ma = _short_shape(model)
    q = len(ma) - 1
    F = np.eye(q, k=1)
    if q:
        F[-1] = -np.asarray(ma[:0:-1]) / ma[0]
    c = expand_ma(model, k0)
    a = expand_ar(model, k0 + 2 * q)
    ar = model.ar_poly.coefficients if q else (1.0,)
    ar_f = _at_matrix(ar, F)

    def tail(r: int) -> np.ndarray:
        num = np.zeros(max(len(ma), len(ar) + r - 1))
        num[:len(ma)] = ma
        if r:
            num[:len(ar) + r - 1] -= np.convolve(ar, c[:r])
        return np.linalg.solve(ar_f, _at_matrix(num[r:], F) @ a[k0:k0 + q])

    head = np.array([np.dot(c[:k0 - i], a[i:k0]) + (tail(k0 - i)[0] if q else 0.0)
                     for i in range(k0)])
    bound = 0.0
    if q:
        # eps per term summed, on the largest term: c and the polynomials'
        # coefficients times a, through ar(F)^-1
        inv_norm = float(np.abs(np.linalg.inv(ar_f)).sum(axis=1).max())
        terms = np.abs(c).sum() + inv_norm * (np.abs(ma).sum() + np.abs(ar).sum())
        bound = float(np.finfo(float).eps * (k0 + 2 * q + 2) * terms * np.abs(a).max())
    return F, head, tail(0), bound


def _short_system(model: ProcessModel, N: int, beta: BetaSeq) -> tuple[int, np.ndarray]:
    """(U0, M) of the offset-N kernel in the unknowns xi_u, u < U0 =
    max(0, k0 - N), and a state sigma that stands for x_u = e1' F^(u-U0)
    sigma, u >= U0.  Where u or w is past the corner, beta_{N+u+w} =
    e1' F^u' F^|N-k0| F^w' b0 (u', w' counted from U0), and
    X = sum_w F^w b0 e1' F^w solves X - F X F = b0 e1', so
    M = [[C, P X], [Q, F^|N-k0| X]]: the corner C_uw = beta_{N+u+w}, P's
    rows e1' F^u (_ma_orbit) and Q's columns F^w b0, whose entries are
    beta_{k0+w+l}, for u, w < U0.  q = 0 leaves C."""
    k0, ma = _short_shape(model)
    F, _, b0, _ = _short_kernel(model)
    q, U0 = len(b0), max(0, k0 - N)
    x = _stein(F, np.outer(b0, np.eye(q)[:1]), F)
    state = np.linalg.matrix_power(F, abs(N - k0)) @ x
    if not U0:
        return U0, state
    return U0, np.block([[_hankel(beta.values, N, U0, U0), _ma_orbit(ma, np.eye(q), U0) @ x],
                         [_hankel(beta.values, k0, U0, q).T, state]])


def _short_setup(model: ProcessModel, N: int, beta: BetaSeq, v_max: int,
                 c_head: np.ndarray | None = None):
    """(M, first, read) of the offset-N kernel, as _moment_setup's, in
    _short_system's unknowns: first is the beta slices beta_{N+u+v},
    u < U0 + q, on the corner and the state alike (the predictor's y their
    sum over c_{m-v}).  read's z continues the state sigma by ma * x = 0
    (_ma_orbit) after the corner's rows, and the predictor's h, the tail
    past the top row, is h_k = f F^k sigma = sum_i f_i e1' F^(k+i) sigma,
    with f = sum_u a_{top+u} e1' F^u = a_top e1' + a~_{top+1}' Y F,
    Y - F' Y F = e1 e1'."""
    F, _, b0, _ = _short_kernel(model)
    ma = _short_shape(model)[1]
    U0, mat = _short_system(model, N, beta)
    q = len(b0)
    first, f, tail = _hankel(beta.values, N, v_max + 1, U0 + q).T, (), 0
    if c_head is not None:
        top, tail = N - 1 + U0, N - 1  # top + 1 = max(N, k0)
        a_vals = expand_ar(model, top + q)
        e1 = np.eye(q)[:1].ravel()
        f = e1 * a_vals[top] + a_vals[top + 1:top + 1 + q] @ _stein(F.T, np.outer(e1, e1), F) @ F
        first = c_head[::-1] @ first.T

    def read(x: np.ndarray, rows: int) -> tuple[np.ndarray, np.ndarray]:
        orbit = _ma_orbit(ma, x[U0:], max(rows - U0, tail + q - 1))
        z = np.concatenate((x[:min(U0, rows)], orbit[:max(rows - U0, 0)]))
        h = np.zeros((tail, x.shape[1]))
        for i, coef in enumerate(f):
            h += coef * orbit[i:i + tail]
        return z, h
    return mat, first, read


def _short_inputs(model: ProcessModel, n: int, m: int):
    """(U0, beta_0..beta_{n+U0+q+max(U0, m)} for the corner, its columns
    F^w b0 and y, a_0..a_{n+max(m, U0+q)}, c_0..c_m) of a short-memory
    predictor; the cap is checked before anything is built."""
    U0 = _short_size(model, n + 1)
    q = len(_short_shape(model)[1]) - 1
    return (U0, beta_for_model(model, n + U0 + q + max(U0, m)),
            expand_ar(model, n + max(m, U0 + q)), expand_ma(model, m))


def _short_predictor(model: ProcessModel, n: int, m: int, policy: TruncationPolicy
                     ) -> tuple[np.ndarray, np.ndarray, Callable[[], np.ndarray]]:
    """(phi, per-coefficient residual, per-term record) of
    short memory: one solve on the corner plus state, read out as on the
    nodes.  The residual is beta's share plus the rounding: 8 ulp of the
    largest weight and of the largest sum of the read-out's terms in
    magnitude (the correlation on |a|, |z| and |h|), times
    ||(I - M^2)^-1||, by which the solve can magnify a relative error in M
    or y.  The record stops only at tol_term from the table, whatever K
    says."""
    U0, beta, a_vals, c_head = _short_inputs(model, n, m)
    mat, y, read = _short_setup(model, n + 1, beta, m, c_head)
    # ||(I - M^2)^-1||_F bounds the spectral norm, at the cost of one inverse
    gain = float(np.linalg.norm(np.linalg.inv(np.eye(len(mat)) - mat @ mat))) if len(mat) else 1.0
    z, h = read(_moment_solve(mat, y), U0 + n - 1)
    phi = _phi(a_vals, c_head, z, h)
    sizes = _phi(np.abs(a_vals), np.abs(c_head), np.abs(z), np.abs(h))
    resid = 4.0 * beta.tail_estimate + 8.0 * np.finfo(float).eps * gain * float(
        np.max(np.abs(phi)) + np.max(sizes))
    _check_tail(resid, policy, n, _ROUNDING_REMEDY)
    return phi, np.full(n, resid), cache(lambda: _record(model, n, m, policy, _K_CAP, phi))


def _check_request(n: int, m: int) -> None:
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if m < 0:
        raise ValueError(f"m must be >= 0, got {m}")


def _beta_share(beta: BetaSeq, policy: TruncationPolicy, n: int) -> float:
    """beta's share of every coefficient's residual, checked against
    tol_tail on its own: no series run can undo it."""
    share = beta.tail_estimate * 4.0
    _check_tail(share, policy, n,
                "it is beta's own error: the model's ARMA factor has not decayed (or "
                "tol_tail is below beta's rounding), and no V or K can reduce it")
    return share


def _check_tail(resid: float, policy: TruncationPolicy, n: int, remedy: str) -> None:
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
    return (U0, grids, beta, share, expand_ar(model, n + max(m, U0)),
            expand_ma(model, m))


def _moment_predictor(model: Farima, n: int, m: int, policy: TruncationPolicy
                      ) -> tuple[np.ndarray, np.ndarray, Callable[[], np.ndarray]]:
    """(phi, per-coefficient residual, per-term record) of
    long memory: _moment_run on both grids, their difference plus beta's
    share, and _record."""
    U0, grids, beta, share, a_vals, c_head = _moment_inputs(model, n, m, policy)
    fine, coarse = (_moment_run(model, a_vals, c_head, n, U0, grid, beta) for grid in grids)
    resid = np.abs(fine - coarse) + share
    _check_tail(float(np.max(resid)), policy, n, _QUADRATURE_REMEDY)
    return fine, resid, cache(lambda: _record(model, n, m, policy, policy.resolve_k(model), fine))


def finite_predictor_multistep(model: ProcessModel, n: int, m: int,
                               policy: TruncationPolicy = DEFAULT_POLICY) -> ExplicitPredictor:
    """Finite predictor coefficients phi^m_{n,j} from the explicit series.

    Long memory (d > 0) is solved on a quadrature of the series' moment
    form (_moment_run), with no cutoff, and so is its per-term record,
    whose terms a pinned K caps.  Short memory is solved in closed form on
    its kernel's corner plus state (_short_predictor), whatever V or K say.

    Parameters
    ----------
    model : ProcessModel
    n : int
        Number of past observations, n >= 1.
    m : int
        Prediction horizon (m = 0: one-step).
    policy : TruncationPolicy

    Returns
    -------
    ExplicitPredictor
        ``table.coefficients[j-1]`` = phi^m_{n,j}; ``series[j-1]`` the
        per-term diagnostics for that j (terms from the short-memory system
        or the quadrature's fine grid; the table carries the solve's
        coefficients).

    Raises
    ------
    TruncationError
        Residual above policy.tol_tail: beta's, the quadrature's, or the
        short-memory closed form's rounding; a quadrature, or a corner plus
        state, above its cap of unknowns.
    """
    _check_request(n, m)
    if memory_exponent(model) > 0.0:
        phi, tail_j, terms = _moment_predictor(model, n, m, policy)
    else:
        phi, tail_j, terms = _short_predictor(model, n, m, policy)
    table = PredictorTable(n=n, horizon=m, coefficients=phi,
                           source=PredictorSource.EXPLICIT_SERIES)
    series = tuple(SeriesTerms(tail_estimate=float(tail_j[j]), k_used=0,
                               _matrix=terms, _j=j)
                   for j in range(n))
    return ExplicitPredictor(table=table, series=series)


def finite_predictor_explicit(model: ProcessModel, n: int,
                              policy: TruncationPolicy = DEFAULT_POLICY) -> ExplicitPredictor:
    """One-step finite predictor coefficients phi_{n,j}; the m = 0 case of
    finite_predictor_multistep (same code path)."""
    return finite_predictor_multistep(model, n, 0, policy)


def projection_iterates(model: ProcessModel, n: int, j: int, m: int = 0,
                        K: int = 32,
                        policy: TruncationPolicy = DEFAULT_POLICY) -> np.ndarray:
    """Partial sums sum_{l<=k} g^m_l(n, j) for k = 1..K.

    The k-th entry is the coefficient of X_{-j} after k alternating
    projections (infinite past, then the window back to -n, alternating);
    the sequence converges to phi^m_{n,j}.  The terms are those that
    finite_predictor_multistep reports, with no stop before K: on the
    quadrature's fine grid for long memory, on the corner plus state of
    short memory.
    """
    if not 1 <= j <= n:
        raise ValueError(f"need 1 <= j <= n, got j = {j}, n = {n}")
    if K < 1:
        raise ValueError(f"K must be >= 1, got {K}")
    _check_request(n, m)
    return np.cumsum(_record(model, n, m, policy, K)[:, j - 1])
