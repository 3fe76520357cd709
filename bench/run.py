#!/usr/bin/env python3
"""acm5 benchmark: time to a verified exact result, end to end and per layer.

Run from the root of a checkout:

    python3 bench/run.py --workload replay --seed 1 --seconds 50 --trace 0

The benchmark writes a seeded corpus under ``.bench_work/``, then acts as
one closed-loop client: one request at a time, in this process, through
``acm5.cli.main``.  Every output is checked (see ``checks.py``).  With
``--trace 0`` it prints the end-to-end metrics; with ``--trace 1`` it
alternates untraced and traced passes and prints the per-layer metrics.
The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  The exit code is 0 only
when every check passed.

Every end-to-end time is normalised to the host's speed.  Right before and
right after each timed request or spawn, on the same CPU, the benchmark
times a fixed reference task (``reference_task``: exact rational
elimination, written independently of ``acm5``).  A time is reported as its
ratio to the mean of those two reference times, times ``REFERENCE_S``: the
seconds it would take on a host where the reference task takes
``REFERENCE_S``.  The wall times as measured are printed too, as ``wall.*``
lines before the JSON result.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import corpus  # noqa: E402
import tracing  # noqa: E402

WORKLOADS = ("classify-generic", "replay")
DEFAULT_SEED = 1
MIN_ROUNDS = 4  # each request's time is a median over at least 4 passes
MIN_TRACED_ROUNDS = 2
SETUP_SPAWNS_PER_ROUND = 3
# cold runs of the first request per round: a replay pass takes about three
# times as long as a classify-generic pass, so it gets three times the spawns
COLD_RUNS_PER_ROUND = {"classify-generic": 1, "replay": 3}
SPAWN_TIMEOUT_S = 120
# The reference task's median time on the 2-CPU Xeon host the benchmark
# was tuned on; reported times are in seconds at that speed.
REFERENCE_S = 0.006
REFERENCE_MATRIX = tuple(
    tuple(Fraction((7 * i + 3 * j) % 11 - 5, 1 + (i * j) % 4) for j in range(6))
    for i in range(6))
E2E_UNITS = {
    "pass_s": "s",
    "request_p50_ms": "ms",
    "request_p75_ms": "ms",
    "cold_request_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def reference_task():
    """A fixed piece of exact arithmetic: Fraction elimination and dict updates."""
    acc = {}
    for _ in range(12):
        m = [list(row) for row in REFERENCE_MATRIX]
        det = Fraction(1)
        for k in range(6):
            piv = next(r for r in range(k, 6) if m[r][k] != 0)
            m[k], m[piv] = m[piv], m[k]
            det *= m[k][k]
            for r in range(k + 1, 6):
                f = m[r][k] / m[k][k]
                m[r] = [a - f * b for a, b in zip(m[r], m[k])]
                acc[r, k] = acc.get((r, k), 0) + f
    return det


def timed_reference():
    start = time.perf_counter()
    reference_task()
    return time.perf_counter() - start


class Client:
    """Runs requests in process and checks their outputs."""

    def __init__(self, workload, items):
        self.items = items
        self.check = checks.checker(workload)
        self.cli = importlib.import_module("acm5.cli")  # main is looked up per call
        self.attempted = 0
        self.failures = []
        self.requests_run = 0  # request ids for spans, unique across passes
        self.passes = 0
        self.cpus = sorted(os.sched_getaffinity(0))

    def request(self, item):
        """Run one request's commands; return (seconds, [(exit code, stdout)])."""
        outputs = []
        start = time.perf_counter()
        for argv in item.commands:
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                try:
                    code = self.cli.main(list(argv))
                except SystemExit as exc:
                    code = exc.code
                except Exception as exc:  # a crash is a failed request, not a failed run
                    code = f"{type(exc).__name__}: {exc}"
            outputs.append((code, out.getvalue()))
        return time.perf_counter() - start, outputs

    def verify(self, item, outputs):
        self.attempted += 1
        errors = self.check(item, outputs)
        if errors:
            self.failures.append(f"{item.name}: {'; '.join(errors)}")

    def run_pass(self, tracer=None):
        """One pass over the corpus; return each request's (seconds, reference seconds).

        Requests alternate between the CPUs this process may use, and each
        request changes CPU from one pass to the next.  On a shared host
        each CPU speeds up and slows down on its own, within a second, so the
        reference task runs on the request's CPU right before and after it.
        """
        latencies, results = [], []
        try:
            for index, item in enumerate(self.items):
                self.requests_run += 1
                os.sched_setaffinity(0, {self.cpus[(index + self.passes) % len(self.cpus)]})
                before = timed_reference()
                if tracer is not None:
                    tracer.request = self.requests_run
                seconds, outputs = self.request(item)
                latencies.append((seconds, (before + timed_reference()) / 2))
                results.append(outputs)
        finally:
            os.sched_setaffinity(0, self.cpus)
        self.passes += 1
        for item, outputs in zip(self.items, results):
            self.verify(item, outputs)
        return latencies


class Spawner:
    """Fresh interpreters: ``import acm5`` for setup_s, the first request for cold_request_s."""

    def __init__(self, client, env, cold_runs):
        self.client, self.env, self.cold_runs = client, env, cold_runs
        self.setup = []  # (seconds, reference seconds) per spawn
        self.cold = []  # (seconds, normalised seconds) per cold request
        self.spawns = 0
        self._run(["-c", "import acm5"])  # untimed: compiles the bytecode

    def _run(self, args):
        """Spawn on one CPU, between two runs of the reference task on that CPU."""
        cpus = self.client.cpus
        os.sched_setaffinity(0, {cpus[self.spawns % len(cpus)]})
        self.spawns += 1
        try:
            before = timed_reference()
            start = time.perf_counter()
            proc = subprocess.run([sys.executable, *args], env=self.env, capture_output=True,
                                  text=True, timeout=SPAWN_TIMEOUT_S, check=False)
            seconds = time.perf_counter() - start
            reference = (before + timed_reference()) / 2
        finally:
            os.sched_setaffinity(0, cpus)
        return (seconds, reference), proc

    def round(self):
        for _ in range(SETUP_SPAWNS_PER_ROUND):
            sample, proc = self._run(["-c", "import acm5"])
            if proc.returncode != 0:
                raise RuntimeError(f"import acm5 failed: {proc.stderr.strip()}")
            self.setup.append(sample)
        item = self.client.items[0]
        for _ in range(self.cold_runs):
            samples, outputs = [], []
            for argv in item.commands:
                sample, proc = self._run(["-m", "acm5.cli", *argv])
                samples.append(sample)
                outputs.append((proc.returncode, proc.stdout))
            self.client.verify(item, outputs)
            self.cold.append((sum(s for s, _ in samples), sum(map(normalised, samples))))


def rounds(seconds, min_rounds, step):
    """Repeat ``step`` for ``seconds``, at least ``min_rounds`` times."""
    start = time.perf_counter()
    done = 0
    while True:
        step()
        done += 1
        spent = time.perf_counter() - start
        if done >= min_rounds and spent * (done + 1) / done > seconds:
            return


def percentile(values, q):
    """The q-th percentile (0 < q < 100) by linear interpolation."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def normalised(sample):
    """Seconds at the reference speed: the time over the reference task's time."""
    seconds, reference = sample
    return seconds / reference * REFERENCE_S


def per_request(passes, value=normalised):
    """Each request's median over the passes.

    The host's speed swings by up to 1.7x over 5-20 s stretches and drifts
    over minutes; the reference task, timed right before and after each
    request on the same CPU, swings with it.
    """
    return [statistics.median(map(value, samples)) for samples in zip(*passes)]


def end_to_end(client, seconds, env, cold_runs):
    """Rounds of one pass plus a few fresh-interpreter runs, so that both
    sample the same stretch of machine time."""
    spawner = Spawner(client, env, cold_runs)
    client.run_pass()  # warm-up, not timed
    passes = []

    def step():
        passes.append(client.run_pass())
        spawner.round()

    rounds(seconds, MIN_ROUNDS, step)
    times = per_request(passes)
    samples = len(passes) * len(times)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    values = {
        "pass_s": (sum(times), samples),
        "request_p50_ms": (statistics.median(times) * 1e3, samples),
        "request_p75_ms": (percentile(times, 75) * 1e3, samples),
        "cold_request_s": (statistics.median(c for _, c in spawner.cold), len(spawner.cold)),
        "setup_s": (statistics.median(map(normalised, spawner.setup)), len(spawner.setup)),
        "peak_rss_mb": (peak_kb / 1024, 1),
    }
    references = [r for p in passes for _, r in p] + [r for _, r in spawner.setup]
    wall = {  # as measured, not normalised: printed for reference only
        "wall.pass_s": sum(per_request(passes, lambda sample: sample[0])),
        "wall.cold_request_s": statistics.median(c for c, _ in spawner.cold),
        "wall.setup_s": statistics.median(s for s, _ in spawner.setup),
        "wall.reference_ms": statistics.median(references) * 1e3,
    }
    return {name: (value, E2E_UNITS[name], n) for name, (value, n) in values.items()}, wall


def per_layer(client, seconds, spans_path):
    """Rounds of one untraced and one traced pass; metrics from the traced ones."""
    tracer = tracing.Tracer()
    client.run_pass()  # warm-up, not timed
    plain, traced = [], []

    def step():
        plain.append(client.run_pass())
        tracer.install()
        try:
            traced.append(client.run_pass(tracer))
        finally:
            tracer.uninstall()

    rounds(seconds, MIN_TRACED_ROUNDS, step)
    tracer.write(spans_path)
    requests = len(traced) * len(client.items)
    values = tracing.layer_metrics(tracer.spans, requests)
    values["trace.overhead_ratio"] = sum(per_request(traced)) / sum(per_request(plain))
    values["failed_ratio"] = len(client.failures) / client.attempted
    return {name: (values[name], unit, requests)
            for name, unit in tracing.per_layer_metric_units().items()}, {}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "acm5" / "cli.py").is_file():
        print(f"error: no acm5 sources under {src}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    work = root / ".bench_work" / f"{args.workload}-seed{args.seed}"
    shutil.rmtree(work, ignore_errors=True)
    items = corpus.build_corpus(args.workload, args.seed, work / "corpus")
    client = Client(args.workload, items)
    env = {**os.environ, "PYTHONPATH": "src"}

    if args.trace:
        metrics, wall = per_layer(client, args.seconds, work / "spans.jsonl")
    else:
        metrics, wall = end_to_end(client, args.seconds, env, COLD_RUNS_PER_ROUND[args.workload])

    for name, (value, unit, n) in metrics.items():
        print(f"{args.workload:16} {name:48} {value:14.6f} {unit:6} n={n}")
    for name, value in wall.items():
        print(f"{args.workload:16} {name:48} {value:14.6f}")
    for failure in client.failures[:20]:
        print(f"FAILED {failure}", file=sys.stderr)
    failed = len(client.failures)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": client.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
