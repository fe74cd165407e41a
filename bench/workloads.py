"""The benchmark's workloads: seeded request lists and their correctness check.

A request is one predictorlab CLI invocation.  Each workload is a sequence of
rounds; round r draws its models from ``numpy.random.default_rng([seed, r])``,
so a seed always yields the same inputs.  The memory parameter d sets the
cost of a request (the explicit series needs more stages as d grows), so it
is stratified: the range is cut into equal slices, each request slot of a
round (or each round, where a round shares one model) owns one slice, and
the seed draws d uniformly within it.  Rounds then cost about the same
whichever seed is used, while every request still gets a model of its own.

Outputs are checked against ``oracle``, which shares no code with the
library.  Predictor weights must match to ACCEPT_TOL, the acceptance bound
of the cross-route agreement criterion, both directly and inside baxter's
sum over n of them.  The kernel iterates n d_k(n, u) that dkscale prints
must match to DK_REL_TOL relative.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

import oracle

#: largest deviation of a predictor weight from the oracle that passes
ACCEPT_TOL = 1e-6

#: largest relative deviation of n d_k(n, u) from the oracle that passes: a
#: tenth of the 3% the kernel-scaling criterion allows between n d_k and its
#: limit, so truncation error in d_k cannot use up that criterion.  The
#: library's d_3 at n = 1024 and d near 0.3 is off by about 1.1e-3 (inner
#: truncation); d_1 and d_2 by under 2e-4.
DK_REL_TOL = 3e-3


@dataclass(frozen=True)
class Model:
    family: str  # "farima" or "ar1"
    d: float = 0.0
    ar: float = 0.0  # AR(1) factor of a farima model
    r: float = 0.0  # coefficient of an ar1 model

    def argv(self) -> list[str]:
        if self.family == "ar1":
            return ["--model", "ar1", "--r", repr(self.r)]
        out = ["--model", "farima", "--d", repr(self.d)]
        if self.ar:
            # the polynomial argument of 1 - ar z starts with "1,", never "-"
            out.append(f"--arpoly=1,{-self.ar!r}")
        return out

    def autocov(self, N: int) -> np.ndarray:
        if self.family == "ar1":
            return oracle.ar1_autocov(self.r, N)
        return oracle.farima_autocov(self.d, N, self.ar)

    def predictor(self, n: int, m: int) -> np.ndarray:
        if self.family == "ar1":
            return oracle.ar1_predictor(self.r, n, m)
        return oracle.predictor(self.autocov(n + m), n, m)


@dataclass(frozen=True)
class Request:
    command: str
    model: Model
    params: dict = field(default_factory=dict)

    def argv(self) -> list[str]:
        out = [self.command] + self.model.argv()
        for key, value in self.params.items():
            out += [f"--{key}", str(value)]
        return out


@dataclass
class Verdict:
    ok: bool
    #: max |phi - oracle| over the predictor weights the request returned;
    #: None when it returned none
    phi_dev: float | None
    detail: str = ""
    #: max |n d_k / oracle - 1| of a dkscale request; None for the others
    dk_rel_dev: float | None = None


def _in_slice(rng: np.random.Generator, lo: float, hi: float, k: int, slot: int) -> float:
    """A uniform draw from slice ``slot`` of [lo, hi) cut into k slices."""
    return round(lo + (slot + rng.uniform()) * (hi - lo) / k, 6)


def _stratified(rng: np.random.Generator, lo: float, hi: float, k: int) -> list[float]:
    return [_in_slice(rng, lo, hi, k, slot) for slot in range(k)]


def _signed(rng: np.random.Generator, lo: float, hi: float) -> float:
    return round(float(rng.choice((-1.0, 1.0)) * rng.uniform(lo, hi)), 6)


# predict-strong: the explicit route on fresh long-memory models, so every
# request misses the beta and expansion caches as a CLI invocation does.
# d stays below 1/3: from there the default ladder grows to six levels up to
# V = 2^19 and a single request takes 15-20 s, too long to repeat in a run.
# (n, m) per slot; three one-step slots keep the median latency off the
# boundary between the one-step and the slower two-step requests
_STRONG_GRID = ((64, 0), (128, 0), (64, 1), (128, 0))
_STRONG_D = (0.28, 0.30)


def predict_strong(seed: int, r: int) -> list[Request]:
    rng = np.random.default_rng([seed, r])
    ds = _stratified(rng, *_STRONG_D, len(_STRONG_GRID))
    return [Request("predict", Model("farima", d=d), {"n": n, "m": m, "source": "both"})
            for (n, m), d in zip(_STRONG_GRID, ds)]


# levinson-long: autocovariances and Durbin-Levinson at long n, explicit
# route bypassed; three model families, m > 0 through the normal solve
_LONG_N = (1024, 2048, 4096, 8192)
_LONG_MULTISTEP_N = (1024, 2048)
_LONG_D = (0.05, 0.45)


def _long_models(rng: np.random.Generator, count: int) -> list[list[Model]]:
    plain = _stratified(rng, *_LONG_D, count)
    factored = _stratified(rng, *_LONG_D, count)
    return [[Model("farima", d=plain[i]),
             Model("farima", d=factored[i], ar=_signed(rng, 0.2, 0.6)),
             Model("ar1", r=_signed(rng, 0.1, 0.9))] for i in range(count)]


def levinson_long(seed: int, r: int) -> list[Request]:
    rng = np.random.default_rng([seed, r])
    slots = _long_models(rng, len(_LONG_N) + len(_LONG_MULTISTEP_N))
    out = []
    for n, models in zip(_LONG_N, slots):
        out += [Request("predict", mdl, {"n": n, "source": "levinson"}) for mdl in models]
    for n, models in zip(_LONG_MULTISTEP_N, slots[len(_LONG_N):]):
        out += [Request("predict", mdl,
                        {"n": n, "m": int(rng.integers(1, 4)), "source": "levinson"})
                for mdl in models]
    return out


# experiment-sweep: one model per round shared by all three experiments, as
# one user sweeping a model would; round r draws d from slice r mod 3 of the range
_SWEEP_D = (0.27, 0.30)
_SWEEP_SLICES = 3


def experiment_sweep(seed: int, r: int) -> list[Request]:
    rng = np.random.default_rng([seed, r])
    model = Model("farima", d=_in_slice(rng, *_SWEEP_D, _SWEEP_SLICES, r % _SWEEP_SLICES))
    return [Request("rate", model, {"n": "64..256", "j": 1}),
            Request("rate", model, {"n": "64..256", "j": 2}),
            Request("baxter", model, {"n": "32..256"}),
            Request("dkscale", model, {"n": 1024, "k": "1,2,3", "u": 0}),
            Request("dkscale", model, {"n": 1024, "k": "1,2,3", "u": 5})]


WORKLOADS = {
    "predict-strong": predict_strong,
    "levinson-long": levinson_long,
    "experiment-sweep": experiment_sweep,
}

#: seconds planned per round; rounds took 8-10, 5-6.5 and 9.5-11 s on a
#: 2-core x86-64 VM (numpy 2.4, scipy 1.17).  A run of --seconds S sends
#: S // this many rounds.
NOMINAL_ROUND_S = {
    "predict-strong": 8.0,
    "levinson-long": 7.0,
    "experiment-sweep": 10.0,
}


def rounds_for(workload: str, seconds: float) -> int:
    return max(1, int(seconds // NOMINAL_ROUND_S[workload]))


#: one request per workload on a model no round draws, run before timing
WARMUP = {
    "predict-strong": Request("predict", Model("farima", d=0.04),
                              {"n": 4, "source": "both"}),
    "levinson-long": Request("predict", Model("farima", d=0.04),
                             {"n": 256, "source": "levinson"}),
    "experiment-sweep": Request("rate", Model("farima", d=0.04),
                                {"n": "8,16", "j": 1}),
}


def _n_list(spec: str) -> list[int]:
    """The n values of a CLI list: ``a,b`` or the doubling range ``lo..hi``."""
    if ".." not in spec:
        return [int(t) for t in spec.split(",")]
    lo, hi = (int(t) for t in spec.split(".."))
    out = []
    while lo <= hi:
        out.append(lo)
        lo *= 2
    return out


def verify(req: Request, out: dict) -> Verdict:
    """Compare one request's JSON output with the oracle."""
    rows = out["rows"]
    cols = out["columns"]
    mdl = req.model
    if req.command == "predict":
        n, m = int(req.params["n"]), int(req.params.get("m", 0))
        ref = mdl.predictor(n, m)
        dev = 0.0
        for name in ("phi_levinson", "phi_explicit"):
            if name in cols:
                got = np.array([row[cols.index(name)] for row in rows])
                if len(got) != n:
                    return Verdict(False, None, f"{name}: {len(got)} rows, expected {n}")
                dev = max(dev, float(np.max(np.abs(got - ref))))
        return Verdict(dev <= ACCEPT_TOL, dev, f"max |phi - oracle| = {dev:.3e}")
    if req.command == "rate":
        j = int(req.params["j"])
        ns = _n_list(req.params["n"])
        if [row[0] for row in rows] != ns:
            return Verdict(False, None, f"rows for n = {[row[0] for row in rows]}")
        dev = max(abs(row[1] - mdl.predictor(row[0], 0)[j - 1]) for row in rows)
        return Verdict(dev <= ACCEPT_TOL, dev, f"max |phi_nj - oracle| = {dev:.3e}")
    if req.command == "baxter":
        ns = _n_list(req.params["n"])
        if [row[0] for row in rows] != ns:
            return Verdict(False, None, f"rows for n = {[row[0] for row in rows]}")
        phi_inf = oracle.infinite_predictor(mdl.d, ns[-1])
        # per-weight agreement to ACCEPT_TOL bounds the lhs sum by n * ACCEPT_TOL
        worst = max(abs(row[1] - np.sum(np.abs(mdl.predictor(row[0], 0) - phi_inf[:row[0]])))
                    / (row[0] * ACCEPT_TOL) for row in rows)
        return Verdict(worst <= 1.0, None, f"lhs deviation {worst:.3f} of its bound")
    if req.command == "dkscale":
        u = int(req.params["u"])
        want = {(k, int(req.params["n"])) for k in (1, 2, 3)}
        if {(row[0], row[1]) for row in rows} != want:
            return Verdict(False, None, f"rows for (k, n) = {[row[:2] for row in rows]}")
        dev = max(abs(n_dk / (n * oracle.kernel_dk(mdl.d, k, n, u)) - 1.0)
                  for k, n, n_dk, _target in rows)
        return Verdict(dev <= DK_REL_TOL, None, f"max |n d_k / oracle - 1| = {dev:.3e}",
                       dk_rel_dev=dev)
    raise ValueError(f"no check for command {req.command!r}")
