"""Per-layer metrics of a traced run, named after predictorlab's modules.

Every public function that one predictorlab module calls on another is
wrapped where the caller looks it up, in the importing module's namespace.
explicit's own namespace is wrapped too, so that the beta and expansion
calls inside ``finite_predictor_multistep`` show as child spans.  A span is
named after the module that defines the function, so its time is charged to
that layer whichever module called it.

Counts are computed from call arguments and return values, never timed, so
they repeat exactly for a given seed.
"""

from __future__ import annotations

import time
from collections import defaultdict

import numpy as np

from predictorlab import asymptotics, cli, coeffs, explicit, levinson

from spans import SpanRecorder, install, self_times

#: (defining module, function, modules that call it through their namespace)
_CALLS = (
    (asymptotics, "rate_experiment", (cli,)),
    (asymptotics, "baxter_experiment", (cli,)),
    (asymptotics, "dk_scaling_experiment", (cli,)),
    (explicit, "finite_predictor_multistep", (cli, explicit)),
    (explicit, "finite_predictor_explicit", (asymptotics,)),
    (explicit, "beta_for_model", (asymptotics, explicit)),
    (explicit, "d_vectors", (asymptotics,)),
    (coeffs, "autocov", (cli, asymptotics)),
    (coeffs, "expand_ma", (cli, asymptotics, explicit)),
    (coeffs, "expand_ar", (cli, asymptotics, explicit)),
    (coeffs, "phi_for_model", (cli,)),
    (coeffs, "infinite_predictor", (asymptotics,)),
    (coeffs, "tail_sum_phi", (asymptotics,)),
    (levinson, "durbin_levinson", (cli, asymptotics)),
    (levinson, "multistep_normal_solve", (cli,)),
)

REQUEST_SPAN = "cli.main"

METRICS = {
    "cli.self_s": "s",
    "asymptotics.self_s": "s",
    "asymptotics.overlap": "ratio",
    "explicit.series_self_s": "s",
    "explicit.stages": "count",
    "explicit.ladder_levels": "count",
    "explicit.top_v": "count",
    "explicit.kernel_work": "count",
    "explicit.hankel_apply_s": "s",
    "explicit.beta_s": "s",
    "explicit.beta_calls": "count",
    "explicit.d_vectors_s": "s",
    "coeffs.autocov_s": "s",
    "coeffs.autocov_calls": "count",
    "coeffs.expand_s": "s",
    "coeffs.expand_calls": "count",
    "coeffs.expand_terms": "count",
    "levinson.durbin_s": "s",
    "levinson.durbin_calls": "count",
    "levinson.normal_solve_s": "s",
    "levinson.normal_solve_calls": "count",
    "levinson.result_mb": "MiB",
    "asymptotics.dk_rel_dev": "ratio",
    "trace.overhead_ratio": "ratio",
}

#: metrics that are counts derived from arguments and results, not timings
COMPUTED = tuple(name for name, unit in METRICS.items() if unit in ("count", "MiB"))


class Tracer:
    """Owns the recorder, the installed wrappers and the computed counts."""

    def __init__(self):
        self.recorder = SpanRecorder()
        self.counts = defaultdict(int)
        #: (model, n, scales) of each explicit predictor call, in call order
        self.explicit_calls: list[tuple] = []
        hooks = {
            "explicit.finite_predictor_multistep": self._on_series,
            "coeffs.expand_ma": self._on_expand,
            "coeffs.expand_ar": self._on_expand,
            "levinson.durbin_levinson": self._on_durbin,
            "levinson.multistep_normal_solve": self._on_normal_solve,
        }
        targets = [(mod, name, f"{home.__name__.rsplit('.', 1)[-1]}.{name}")
                   for home, name, callers in _CALLS for mod in callers]
        self._restore = install(self.recorder, targets, hooks)

    def close(self) -> None:
        self._restore()

    def _on_series(self, args, kwargs, result) -> None:
        model, n = args[0], args[1]
        policy = args[3] if len(args) > 3 else kwargs.get("policy", explicit.DEFAULT_POLICY)
        # every explicit request of the benchmark is long memory, so the
        # ladder never collapses to one scale for an exactly supported kernel
        scales = policy.resolve_scales(model, n)
        k_used = result.series[0].k_used
        self.counts["explicit.stages"] += k_used
        self.counts["explicit.kernel_work"] += k_used * sum(scales)
        self.counts["explicit.ladder_levels"] = max(self.counts["explicit.ladder_levels"],
                                                    len(scales))
        self.counts["explicit.top_v"] = max(self.counts["explicit.top_v"], scales[-1])
        self.explicit_calls.append((model, n, scales))

    def _on_expand(self, args, kwargs, result) -> None:
        self.counts["coeffs.expand_terms"] += len(result)

    def _on_durbin(self, args, kwargs, result) -> None:
        self.counts["levinson.result_bytes"] += sum(t.coefficients.nbytes for t in result)

    def _on_normal_solve(self, args, kwargs, result) -> None:
        self.counts["levinson.result_bytes"] += result.coefficients.nbytes

    def hankel_apply_s(self) -> float:
        """Sum over the ladder scales of the explicit call with the widest
        ladder of one public hankel_apply (median of three), run after the
        trace is closed; 0 when the run made no explicit call."""
        if not self.explicit_calls:
            return 0.0
        model, n, scales = max(self.explicit_calls, key=lambda c: (c[2][-1], c[1]))
        beta = explicit.beta_for_model(model, n + 1 + 2 * scales[-1])
        x = np.ones(scales[-1])
        total = 0.0
        for V in scales:
            times = []
            for _ in range(3):
                t0 = time.perf_counter()
                explicit.hankel_apply(beta, n + 1, x[:V])
                times.append(time.perf_counter() - t0)
            total += sorted(times)[1]
        return total

    def metrics(self, overhead_ratio: float, dk_rel_dev: float) -> dict[str, float]:
        """The per-layer metrics from the spans and counts, plus two measured
        outside them: traced over untraced wall time, and the largest relative
        deviation of a dkscale output from the oracle."""
        spans = self.recorder.spans
        own = self_times(spans)
        by_name = defaultdict(list)
        for s in spans:
            by_name[s.name].append(s)

        def total(*names):
            return float(sum(s.end - s.start for n in names for s in by_name[n]))

        def self_sum(prefix):
            return float(sum(own[s.id] for s in spans if s.name.startswith(prefix)))

        experiments = [s for s in spans if s.name.startswith("asymptotics.")]
        exp_ids = {s.id for s in experiments}
        child_busy = sum(s.end - s.start for s in spans if s.parent in exp_ids)
        exp_wall = sum(s.end - s.start for s in experiments)
        out = {
            "cli.self_s": self_sum(REQUEST_SPAN),
            "asymptotics.self_s": self_sum("asymptotics."),
            "asymptotics.overlap": float(child_busy / exp_wall) if exp_wall else 0.0,
            "explicit.series_self_s": self_sum("explicit.finite_predictor_"),
            "explicit.hankel_apply_s": self.hankel_apply_s(),
            "explicit.beta_s": total("explicit.beta_for_model"),
            "explicit.beta_calls": len(by_name["explicit.beta_for_model"]),
            "explicit.d_vectors_s": total("explicit.d_vectors"),
            "coeffs.autocov_s": total("coeffs.autocov"),
            "coeffs.autocov_calls": len(by_name["coeffs.autocov"]),
            "coeffs.expand_s": total("coeffs.expand_ma", "coeffs.expand_ar"),
            "coeffs.expand_calls": len(by_name["coeffs.expand_ma"]) + len(by_name["coeffs.expand_ar"]),
            "levinson.durbin_s": total("levinson.durbin_levinson"),
            "levinson.durbin_calls": len(by_name["levinson.durbin_levinson"]),
            "levinson.normal_solve_s": total("levinson.multistep_normal_solve"),
            "levinson.normal_solve_calls": len(by_name["levinson.multistep_normal_solve"]),
            "levinson.result_mb": self.counts["levinson.result_bytes"] / 2.0 ** 20,
            "asymptotics.dk_rel_dev": dk_rel_dev,
            "trace.overhead_ratio": overhead_ratio,
        }
        for name in ("explicit.stages", "explicit.ladder_levels", "explicit.top_v",
                     "explicit.kernel_work", "coeffs.expand_terms"):
            out[name] = self.counts[name]
        return {name: out[name] for name in METRICS}
