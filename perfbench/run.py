"""Benchmark entry point: one workload, timed end to end or traced by layer.

Run from the root of a checkout::

    python3 perfbench/run.py --workload static-crash --seed 1 --seconds 15 --trace 0

``--trace 0`` repeats untraced whole runs (overlay build to final
estimate) of the workload for ``--seconds`` seconds, at least
``MIN_RUNS`` of them, and reports medians over all of them in
host-normalised seconds (see :class:`HostProbe`).
``--trace 1`` alternates an untraced and a traced whole run on the same
inputs, checks that their final estimates are bit-identical, and
reports the per-layer metrics of the traced runs plus the tracing
overhead.  Every whole run is checked
for correctness; a run that raises or fails its check counts as failed.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it are a human-readable report with the run's provenance.  Spans and
the full report are also written under ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "src")
OUTPUT = os.path.join(ROOT, ".perfbench_out")
THREAD_VARIABLES = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
#: Whole runs measured at least, however short ``--seconds``.
MIN_RUNS = 3
#: Setup-only repetitions after each untraced whole run: set-up is a
#: small share of a run, so ``setup_s`` is the median of
#: ``1 + EXTRA_SETUPS`` setups per run.
EXTRA_SETUPS = 2
#: About the median time of one :class:`HostProbe` sample on the 2-core
#: Xeon host the benchmark was defined on.  Times are reported
#: in seconds of that host: a figure is scaled by this over the median
#: probe time seen alongside it.
REFERENCE_PROBE_S = 0.025

END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "time_to_estimate_s": "s",
    "exchanges_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return parser.parse_args(argv)


def _commit() -> str:
    """The checked-out commit, read from ``.git`` when the tree has one."""
    try:
        with open(os.path.join(ROOT, ".git", "HEAD"), encoding="utf-8") as handle:
            head = handle.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", head[5:]), encoding="utf-8") as handle:
                return handle.read().strip()
        return head
    except OSError:
        return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def provenance(args, workload) -> dict:
    import numpy

    return {
        "commit": _commit(),
        "cpu_model": _cpu_model(),
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "workload": workload.name,
        "params": workload.params,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "threads": {name: os.environ.get(name) for name in THREAD_VARIABLES},
    }


def _median(values):
    return statistics.median(values) if values else 0.0


class Session:
    """Whole runs of one workload with their correctness bookkeeping."""

    def __init__(self, workload, seed: int) -> None:
        self.workload = workload
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self.problems = []
        #: Per-run timings behind the reported medians, for the report file.
        self.samples = {}

    def attempt(self, run_once):
        """One whole run; ``None`` when it raised or failed its check."""
        self.attempted += 1
        try:
            run = run_once()
        except Exception:  # a broken run is counted, not fatal
            self.failed += 1
            self.problems.append(traceback.format_exc(limit=3))
            return None
        if run.problems:
            self.failed += 1
            self.problems.extend(run.problems)
            return None
        return run


class HostProbe:
    """A fixed reference computation, timed between the steps of the runs.

    The host shares its CPUs with other tenants, and their load changes
    how fast the same code runs, with no time stolen from the process by
    the hypervisor: within one process, the medians of windows of twelve
    identical whole runs had quartiles 13-20% apart.  The probe mixes
    interpreter work, a walk over thousands of scattered small sets,
    NumPy kernels on small arrays and random gathers over a few
    megabytes, as the workloads do, on fixed inputs and never with the
    package's code, so a change to the package leaves its time
    alone while a busier host slows it too.  Scaling each window's median
    run time by ``REFERENCE_PROBE_S`` over the probes' median time in the
    same window brought that spread from 20% to 4% on static-crash.
    """

    #: Seconds between probe samples; a step longer than that is
    #: followed by one sample.
    INTERVAL = 0.25

    def __init__(self) -> None:
        import numpy as np

        rng = np.random.default_rng(0)
        self._keys = rng.integers(0, 5_000, 20_000)
        self._values = rng.random(20_000)
        self._big_keys = rng.integers(0, 600_000, 600_000)
        self._big_values = rng.random(600_000)
        self._scatter = rng.integers(0, 600_000, 100_000)
        self._buffer = np.empty(600_000)
        # Scattered small Python objects, as in a dict-of-sets overlay.
        self._sets = {
            int(node): set(rng.integers(0, 3_000, 20).tolist())
            for node in rng.permutation(3_000)
        }
        self._set_members = sum(len(members) for members in self._sets.values())
        self._last = -float("inf")
        self.times = []

    def _work(self) -> None:
        import numpy as np

        total, table = 0, {}
        for i in range(3_000):
            total += i * 3 % 7
            table[i & 255] = total
        np.fromiter(
            (member for members in self._sets.values() for member in sorted(members)),
            dtype=np.int64,
            count=self._set_members,
        )
        for _ in range(2):
            order = np.argsort(self._keys, kind="stable")
            gathered = self._values[order]
            np.bincount(self._keys, weights=gathered, minlength=5_000)
            np.minimum(gathered[:10_000], gathered[10_000:])
            self._buffer[self._scatter[::-1]] = self._big_values[self._scatter]
        keys = self._big_keys[:50_000]
        order = np.argsort(keys)
        np.bincount(keys % 50_000, weights=self._big_values[order])

    def sample(self) -> None:
        start = time.perf_counter()
        self._work()
        end = time.perf_counter()
        self.times.append(end - start)
        self._last = end

    def between_steps(self) -> None:
        if time.perf_counter() - self._last >= self.INTERVAL:
            self.sample()

    def scale(self) -> float:
        """Reference seconds per second measured over the probes so far."""
        return REFERENCE_PROBE_S / statistics.median(self.times)


def measure(session: Session, seconds: float, probe: HostProbe) -> dict:
    """Untraced whole runs for ``seconds``, at least MIN_RUNS of them."""
    runs, setups = [], []
    deadline = time.perf_counter() + seconds
    while session.attempted < MIN_RUNS or time.perf_counter() < deadline:
        # Free the previous run's cycles first, so each run starts from
        # the same heap and the peak RSS is that of one run.
        gc.collect()
        run = session.attempt(
            lambda: session.workload.whole_run(session.seed, between_steps=probe.between_steps)
        )
        if run is not None:
            runs.append(run)
            setups.append(run.setup_s)
            for _ in range(EXTRA_SETUPS):
                start = time.perf_counter()
                session.workload.setup(session.seed)
                setups.append(time.perf_counter() - start)
                probe.sample()
    if not runs:
        return {}
    session.samples = {
        "setup_s": setups,
        "run_s": [r.run_s for r in runs],
        "step_s": [r.step_s for r in runs],
        "probe_s": probe.times,
    }
    scale = probe.scale()
    setup_wall = _median(setups)
    run_wall = _median([r.run_s for r in runs])
    setup_s, run_s = setup_wall * scale, run_wall * scale
    return {
        "setup_s": setup_s,
        "run_s": run_s,
        "time_to_estimate_s": setup_s + run_s,
        "exchanges_per_s": runs[0].completed / run_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "runs": len(runs),
        "setup_samples": len(setups),
        "probe_samples": len(probe.times),
        "host_scale": scale,
        "setup_s_wall": setup_wall,
        "run_s_wall": run_wall,
        "final_rel_error": _median([r.rel_error for r in runs]),
        "convergence_factor": _median([r.convergence_factor for r in runs]),
    }


def measure_traced(session: Session, seconds: float, recorder) -> dict:
    """Alternating untraced/traced whole runs; medians of the layer metrics."""
    import numpy as np

    from bench_trace import layer_metrics, tracing

    plain_tte, traced_tte, per_run = [], [], []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or (
        len(per_run) < MIN_RUNS and session.attempted < 4 * MIN_RUNS
    ):
        plain = session.attempt(lambda: session.workload.whole_run(session.seed))
        first = len(recorder.spans)
        recorder.run_id += 1
        recorder.counts.clear()

        def traced_run():
            with tracing(recorder):
                run = session.workload.whole_run(session.seed, span=recorder.span)
            if plain is not None and (
                run.estimates.dtype != plain.estimates.dtype
                or run.estimates.tobytes() != plain.estimates.tobytes()
            ):
                run.problems.append("traced final estimates differ from the untraced run")
            return run

        traced = session.attempt(traced_run)
        if plain is None or traced is None:
            continue
        plain_tte.append(plain.time_to_estimate_s)
        traced_tte.append(traced.time_to_estimate_s)
        per_run.append(layer_metrics(recorder.spans[first:], first, recorder.counts, traced))
    if not per_run:
        return {}
    metrics = {name: float(np.median([m[name] for m in per_run])) for name in per_run[0]}
    metrics["trace.overhead_s"] = _median(traced_tte) - _median(plain_tte)
    metrics["samples"] = len(per_run)
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SOURCE, "repro", "__init__.py")):
        print(f"error: no repro package under {SOURCE}; run from a checkout", file=sys.stderr)
        return 2
    # One thread everywhere: set before NumPy is first imported.
    for name in THREAD_VARIABLES:
        os.environ[name] = "1"
    for path in (SOURCE, os.path.dirname(os.path.abspath(__file__))):
        if path not in sys.path:
            sys.path.insert(0, path)

    import bench_workloads
    from bench_trace import LAYER_METRICS, SpanRecorder

    if args.workload not in bench_workloads.WORKLOADS:
        print(
            f"error: unknown workload {args.workload!r}; "
            f"expected one of {sorted(bench_workloads.WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    workload = bench_workloads.make_workload(args.workload)
    # Warm-up at smoke scale: lazy imports and first-call costs are paid
    # once per process, before anything is timed.
    bench_workloads.make_workload(args.workload, "tiny").whole_run(args.seed)

    session = Session(workload, args.seed)
    recorder = SpanRecorder()
    if args.trace:
        measured = measure_traced(session, args.seconds, recorder)
        units = {metric.name: metric.unit for metric in LAYER_METRICS}
    else:
        probe = HostProbe()
        for _ in range(10):
            probe.sample()
        probe.times.clear()
        measured = measure(session, args.seconds, probe)
        units = END_TO_END
    correct = session.failed == 0 and bool(measured)
    report = {
        "provenance": provenance(args, workload),
        "measured": measured,
        "samples": session.samples,
        "problems": session.problems,
    }
    os.makedirs(OUTPUT, exist_ok=True)
    stem = os.path.join(OUTPUT, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, default=str)
    if args.trace:
        recorder.write(stem + ".spans.jsonl")

    print("provenance " + json.dumps(report["provenance"], default=str))
    for problem in session.problems:
        print("problem: " + problem.strip().replace("\n", " | "))
    for name, value in measured.items():
        print(f"{name:48s} {value:.6g} {units.get(name, '')}")
    print(f"{'failed_frac':48s} {session.failed / max(session.attempted, 1):.6g}")
    result = {
        "correct": correct,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": {
            name: {"value": measured.get(name, 0.0), "unit": unit}
            for name, unit in units.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
