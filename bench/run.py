#!/usr/bin/env python3
"""predictorlab benchmark: closed-loop CLI requests from one client.

Run from the repository root:

    python3 bench/run.py --workload predict-strong --seed 1 --seconds 24 --trace 0

A request is one in-process ``predictorlab.cli.main([...])`` call with its
table written to a file, i.e. a README command without the process spawn.
The client sends the next request when the previous one has returned.
Requests come in rounds (see workloads.py).  A run sends a fixed number of
rounds, ``--seconds`` over the workload's nominal round time, so the same
arguments always do the same work (and fill the same caches) however fast
the machine is.  Every output is checked against the independent oracle in
oracle.py once the rounds are done.

``--trace 0`` prints the end-to-end metrics:

    setup_s          median over SETUP_PROBES fresh processes of the time from
                     process start until the first request can be sent
                     (imports, input generation, one warm-up request); one
                     probe runs after each round, the rest after the last
    wall_s           median time to finish one round's request list
    request_p50_s    median request latency
    peak_rss_mb      ru_maxrss of this process, MiB
    success_ratio    passing requests over attempted requests
    accuracy_digits  -log10 of the largest deviation of a returned predictor
                     weight from the oracle

``--trace 1`` first runs the first round untraced in a child process, then
the same round here with every cross-module call of predictorlab wrapped in a span
(layers.py), and prints the per-layer metrics; the spans go to
``.bench_out/spans-<workload>-seed<seed>.jsonl``.

The line before the result is a JSON ``context`` object: machine, versions,
thread setting, seed, the sample count behind each median and the largest
relative deviation of a dkscale output from the oracle.  The last line is
the result object.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

#: fresh processes timed for setup_s in each --trace 0 run
SETUP_PROBES = 5

#: failed requests whose detail is printed in the context line
_MAX_FAILURE_DETAILS = 5


def _nproc() -> int:
    return len(os.sched_getaffinity(0))


#: the experiments' worker pool; pinned so runs on one machine are comparable
THREADS = min(2, _nproc())


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("predict-strong", "levinson-long", "experiment-sweep"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: the untraced half of a traced run (one round, no setup
    # probes), and the setup probe itself
    ap.add_argument("--reference", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def _import_library():
    """Import predictorlab from this checkout's src/, never from elsewhere."""
    init = SRC / "predictorlab" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"bench: {init} not found; run from a predictorlab checkout")
    sys.path.insert(0, str(SRC))
    import predictorlab
    if Path(predictorlab.__file__).resolve() != init.resolve():
        raise SystemExit(f"bench: imported predictorlab from {predictorlab.__file__}, "
                         f"expected {init}")
    return predictorlab


class Client:
    """Sends requests through predictorlab.cli.main and keeps their outputs."""

    def __init__(self, cli, workdir: Path):
        self.cli = cli
        self.workdir = workdir
        #: set for a traced run: each request becomes a span of this name
        self.recorder = None
        self.request_span = None
        self.sent = 0

    def send(self, req) -> tuple[float, int, Path]:
        path = self.workdir / f"out-{self.sent}.json"
        argv = req.argv() + ["--format", "json", "--out", str(path)]
        t0 = time.perf_counter()
        if self.recorder is None:
            rc = self.cli.main(argv)
        else:
            self.recorder.begin_request(self.sent)
            rc = self.recorder.call(self.request_span, self.cli.main, (argv,), {})
        latency = time.perf_counter() - t0
        self.sent += 1
        return latency, rc, path


class Tally:
    """Latencies, round times and verdicts of the measured requests.

    Outputs stay on disk until check(), so that neither the oracle's memory
    nor its time lands inside a round or in the peak RSS.
    """

    def __init__(self):
        self.latencies: list[float] = []
        self.round_walls: list[float] = []
        self.phi_devs: list[float] = []
        self.dk_rel_devs: list[float] = []
        self.attempted = 0
        self.failures: list[str] = []
        self._unchecked: list[tuple] = []

    def run_round(self, client: Client, requests) -> None:
        t0 = time.perf_counter()
        for req in requests:
            try:
                self._unchecked.append((req,) + client.send(req))
            except Exception:  # a crash is a failed request, not a failed run
                crash = traceback.format_exc(limit=2).strip().splitlines()[-1]
                self._unchecked.append((req, 0.0, f"raised {crash}", None))
        self.round_walls.append(time.perf_counter() - t0)

    def check(self, verify) -> None:
        for req, latency, rc, path in self._unchecked:
            self.attempted += 1
            self.latencies.append(latency)
            if rc != 0:
                self.failures.append(f"{' '.join(req.argv())}: returned {rc}")
                continue
            with open(path, encoding="utf-8") as fh:
                out = json.load(fh)
            path.unlink()
            verdict = verify(req, out)
            if verdict.phi_dev is not None:
                self.phi_devs.append(verdict.phi_dev)
            if verdict.dk_rel_dev is not None:
                self.dk_rel_devs.append(verdict.dk_rel_dev)
            if not verdict.ok:
                self.failures.append(f"{' '.join(req.argv())}: {verdict.detail}")
        self._unchecked.clear()

    @property
    def failed(self) -> int:
        return len(self.failures)

    @property
    def dk_rel_dev(self) -> float:
        """Largest relative deviation of a dkscale output; 0 without one."""
        return max(self.dk_rel_devs, default=0.0)


def _machine(seed: int) -> dict:
    import numpy
    import scipy
    l3 = None
    cache = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(cache.glob("index*")):
        try:
            if (index / "level").read_text().strip() == "3":
                l3 = (index / "size").read_text().strip()
        except OSError:
            pass
    return {"nproc": _nproc(), "l3": l3, "machine": platform.machine(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "PREDICTORLAB_THREADS": THREADS, "seed": seed}


def _self_command(args, *extra) -> list[str]:
    return [sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds), *extra]


def _probe_setup(args) -> float:
    """Seconds from spawning a fresh process until it reports setup done."""
    t0 = time.perf_counter()
    with subprocess.Popen(_self_command(args, "--setup-probe"), cwd=ROOT,
                          stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
        rc = proc.wait(timeout=60)
    if rc != 0 or line.strip() != "ready":
        raise SystemExit(f"bench: setup probe failed (exit {rc})")
    return elapsed


def _untraced_wall(args) -> float:
    """wall_s of the first round in a fresh untraced process."""
    proc = subprocess.run(_self_command(args, "--trace", "0", "--reference"),
                          cwd=ROOT, capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        raise SystemExit(f"bench: untraced reference run failed:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit("bench: untraced reference run produced wrong output")
    return result["metrics"]["wall_s"]["value"]


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _run_timed(args, client, round_requests, verify):
    """End-to-end metrics over the run's rounds, untraced."""
    import workloads
    rounds = 1 if args.reference else workloads.rounds_for(args.workload, args.seconds)
    probe_count = 0 if args.reference else SETUP_PROBES
    tally = Tally()
    probes = []
    # the probes are spread over the run, so that one slow spell of the
    # machine does not reach all of them
    for r in range(rounds):
        tally.run_round(client, round_requests(r))
        if len(probes) < probe_count:
            probes.append(_probe_setup(args))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    probes += [_probe_setup(args) for _ in range(probe_count - len(probes))]
    tally.check(verify)
    worst = max(tally.phi_devs) if tally.phi_devs else 0.0
    metrics = {
        "setup_s": _metric(statistics.median(probes) if probes else math.nan, "s"),
        "wall_s": _metric(statistics.median(tally.round_walls), "s"),
        "request_p50_s": _metric(statistics.median(tally.latencies), "s"),
        "peak_rss_mb": _metric(peak_rss_mb, "MiB"),
        "success_ratio": _metric((tally.attempted - tally.failed) / tally.attempted, "ratio"),
        # a double carries about 17 significant digits
        "accuracy_digits": _metric(-math.log10(max(worst, 1e-17)), "digits"),
    }
    samples = {"setup_s": len(probes), "wall_s": len(tally.round_walls),
               "round_walls": tally.round_walls, "request_p50_s": len(tally.latencies),
               "accuracy_digits": len(tally.phi_devs)}
    return tally, metrics, samples


def _run_traced(args, client, round_requests, verify):
    """Per-layer metrics: the first round untraced in a fresh process,
    then the same round here with the spans installed."""
    from layers import COMPUTED, METRICS, REQUEST_SPAN, Tracer
    untraced = _untraced_wall(args)
    tracer = Tracer()
    client.recorder = tracer.recorder
    client.request_span = REQUEST_SPAN
    tally = Tally()
    try:
        tally.run_round(client, round_requests(0))
    finally:
        tracer.close()
    tally.check(verify)
    values = tracer.metrics(tally.round_walls[0] / untraced, tally.dk_rel_dev)
    tracer.recorder.write(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl")
    metrics = {name: _metric(values[name], unit) for name, unit in METRICS.items()}
    samples = {"rounds": 1, "requests": tally.attempted,
               "spans": len(tracer.recorder.spans), "computed": list(COMPUTED)}
    return tally, metrics, samples


def main(argv=None) -> int:
    args = _parse(argv)
    if args.seconds <= 0:
        raise SystemExit("bench: --seconds must be positive")
    os.environ["PREDICTORLAB_THREADS"] = str(THREADS)
    _import_library()
    from predictorlab import cli
    import workloads

    generate = workloads.WORKLOADS[args.workload]
    first_round = generate(args.seed, 0)

    def round_requests(r):
        return first_round if r == 0 else generate(args.seed, r)

    OUT_DIR.mkdir(exist_ok=True)
    workdir = OUT_DIR / f"tmp-{os.getpid()}"
    workdir.mkdir()
    try:
        client = Client(cli, workdir)
        warm = Tally()
        warm.run_round(client, [workloads.WARMUP[args.workload]])
        warm.check(workloads.verify)
        if warm.failed:
            raise SystemExit(f"bench: warm-up request failed: {warm.failures[0]}")
        if args.setup_probe:
            print("ready", flush=True)
            return 0
        run = _run_traced if args.trace else _run_timed
        tally, metrics, samples = run(args, client, round_requests, workloads.verify)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    context = {"workload": args.workload, "seconds": args.seconds, "trace": args.trace,
               "machine": _machine(args.seed), "samples": samples,
               "dkscale_max_rel_dev": tally.dk_rel_dev,
               "failures": tally.failures[:_MAX_FAILURE_DETAILS]}
    print(json.dumps({"context": context}))
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
