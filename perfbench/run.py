#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload fleet-fifo --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace 1``
alternates untraced and traced iterations and reports the per-layer metrics
(spans are written to ``perfbench/out/``).  The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
The program is imported from ``src/``; without it the run exits non-zero.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
#: Declares every metric's name and unit; a run reports exactly these.
SPEC = ROOT / "BENCHMARK.json"

#: Fresh interpreters started per run to time set-up; the median is reported.
SETUP_REPEATS = 5
#: Floors on iterations per run, whatever ``--seconds`` says.
MIN_ITERATIONS = 4
MIN_TRACED = 2
#: Thread-pool sizes pinned to one before NumPy loads.
SINGLE_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def _median_and_tail(values: list[float], worse: str = "higher") -> str:
    """Median, plus the most extreme percentile on the ``worse`` side that
    still has ten samples beyond it, with the sample count."""
    count = len(values)
    text = f"median {statistics.median(values):.6g}"
    if count >= 20:
        ordered = sorted(values, reverse=worse == "lower")
        text += f", p{100.0 * (1.0 - 10.0 / count):.0f} toward {worse} {ordered[count - 11]:.6g}"
    return text + f", n={count}"


def _setup_probe(workload_name: str, seed: int) -> None:
    """In a fresh interpreter: import the program and build the workload."""
    from perfbench.calibrate import Stopwatch, speed_factor

    # Set-up is import and allocation work, which the NumPy kernel tracks
    # better than the Python one.  The block imports NumPy, so its speed is
    # probed right after it, not during it.
    with Stopwatch() as watch:
        import repro  # noqa: F401

        from perfbench.workloads import WORKLOADS

        WORKLOADS[workload_name].construct(seed)
    factor = speed_factor("numpy")
    print(json.dumps({"raw_s": watch.elapsed, "scaled_s": watch.elapsed * factor}))


def _setup_seconds(workload_name: str, seed: int) -> tuple[list[float], list[float]]:
    """Raw and speed-scaled set-up seconds of ``SETUP_REPEATS`` interpreters."""
    raw, scaled = [], []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload_name, "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        sample = json.loads(done.stdout.strip().splitlines()[-1])
        raw.append(sample["raw_s"])
        scaled.append(sample["scaled_s"])
    return raw, scaled


def _iterate(workload, prepared, tracer=None, stopwatch=None):
    gc.collect()
    return workload.iterate(prepared, tracer, stopwatch)


def _input_seeds(workload, seed: int) -> list[int]:
    """The seeds of the run's independent inputs, all derived from ``seed``."""
    count = workload.inputs_per_run
    return [seed * count + index for index in range(count)]


def _timed_run(workload, args, notes: list[str]) -> tuple[dict, int, list[str]]:
    from perfbench.calibrate import SpeedSampler
    from perfbench.checks import digest
    from perfbench.workloads import trimmed_mean

    inputs = [workload.prepare(seed) for seed in _input_seeds(workload, args.seed)]
    sampler = SpeedSampler(workload.probe_kernel)
    raw_rates, req_rates, pass_rates, factors = [], [], [], []
    digests: list = [None] * len(inputs)
    sims: list[dict] = []
    errors: list[str] = []
    attempted = 0
    outcome = None
    deadline = time.perf_counter() + args.seconds
    iteration = 0
    while iteration < max(MIN_ITERATIONS, len(inputs)) or time.perf_counter() < deadline:
        which = iteration % len(inputs)
        outcome = None  # let the previous iteration's report go first
        outcome = _iterate(workload, inputs[which], stopwatch=sampler)
        scaled_s = outcome.host_s * sampler.factor
        factors.append(sampler.factor)
        raw_rates.append(outcome.requests / outcome.host_s)
        req_rates.append(outcome.requests / scaled_s)
        pass_rates.append(outcome.passes / scaled_s)
        attempted += outcome.requests
        this = digest(outcome.payload)
        if digests[which] is None:
            # Checked once per input, outside the timed block; only the
            # digest and the simulated statistics are kept, so the process
            # holds one iteration's report at a time, as `repro serve` does.
            digests[which] = this
            errors += workload.check(outcome)
            sims.append(workload.sim_metrics(outcome))
        elif this != digests[which]:
            errors.append(f"repeats of input {which} disagree: digests {digests[which]} != {this}")
        iteration += 1
    outcome = None
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    raw_setup, setup = _setup_seconds(args.workload, args.seed)
    notes += [
        f"digest {args.workload} seed={args.seed} {' '.join(digests)}",
        f"host_req_per_s: {_median_and_tail(req_rates, 'lower')}",
        f"host_examples_per_s: {_median_and_tail(pass_rates, 'lower')}",
        f"setup_s: {_median_and_tail(setup)}",
        f"unscaled host_req_per_s: {_median_and_tail(raw_rates, 'lower')}",
        f"unscaled setup_s: {_median_and_tail(raw_setup)}",
        f"speed factors: {_median_and_tail(factors)}",
    ]
    metrics = {
        "setup_s": statistics.median(setup),
        "host_req_per_s": statistics.median(req_rates),
        "host_examples_per_s": statistics.median(pass_rates),
        "peak_rss_mb": peak_rss_mb,
    }
    for name in sims[0]:
        metrics[name] = trimmed_mean(sim[name] for sim in sims)
    return metrics, attempted, errors


def _traced_run(workload, args, notes: list[str], names) -> tuple[dict, int, list[str]]:
    from perfbench.checks import digest
    from perfbench.layers import layer_metrics
    from perfbench.tracing import Tracer

    prepared = workload.prepare(_input_seeds(workload, args.seed)[0])
    layers = [name for name in names if name != "trace.overhead_frac"]

    plain, traced, samples, digests = [], [], [], set()
    attempted = 0
    outcome = tracer = None
    deadline = time.perf_counter() + args.seconds
    while len(traced) < MIN_TRACED or time.perf_counter() < deadline:
        outcome = tracer = None
        outcome = _iterate(workload, prepared)
        plain.append(outcome.host_s)
        digests.add(digest(outcome.payload))
        attempted += outcome.requests
        outcome = None
        tracer = Tracer(run_id=f"{args.workload}-seed{args.seed}-{len(traced)}")
        outcome = _iterate(workload, prepared, tracer)
        traced.append(outcome.host_s)
        digests.add(digest(outcome.payload))
        attempted += outcome.requests
        samples.append(layer_metrics(workload, outcome, tracer.totals(), layers))
    errors = workload.check(outcome)
    if len(digests) != 1:
        errors.append(f"traced and untraced iterations disagree: digests {sorted(digests)}")
    path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
    tracer.write(path)
    notes += [
        f"digest {args.workload} seed={args.seed} {next(iter(digests))}",
        f"untraced host s: {_median_and_tail(plain)}",
        f"traced host s: {_median_and_tail(traced)}",
        f"spans of the last traced iteration: {path.relative_to(ROOT)} ({len(tracer.spans)} spans)",
    ]
    metrics = {name: statistics.median(sample[name] for sample in samples) for name in samples[0]}
    metrics["trace.overhead_frac"] = statistics.median(traced) / statistics.median(plain) - 1.0
    return metrics, attempted, errors


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: the program is missing ({SRC / 'repro'} not found)", file=sys.stderr)
        return 2
    # One thread: BLAS worker threads would compete with the interpreter for
    # the host's cores and make host timings depend on the machine's load.
    for name in SINGLE_THREAD_VARS:
        os.environ[name] = "1"
    sys.path[:0] = [str(SRC), str(ROOT)]
    if args.setup_probe:
        _setup_probe(args.workload, args.seed)
        return 0

    from repro.evaluation.env_overrides import ENV_OVERRIDE_VARS

    overridden = [name for name in ENV_OVERRIDE_VARS if name in os.environ]
    if overridden:
        print(f"error: unset {', '.join(overridden)} before benchmarking", file=sys.stderr)
        return 2
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        known = ", ".join(sorted(WORKLOADS))
        print(f"error: unknown workload {args.workload!r}; known: {known}", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("error: --seed must be >= 0", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    spec = json.loads(SPEC.read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    notes: list[str] = []
    metrics: dict = {}
    attempted = 0
    try:
        if args.trace:
            metrics, attempted, errors = _traced_run(workload, args, notes, list(units))
        else:
            metrics, attempted, errors = _timed_run(workload, args, notes)
    except Exception:  # a run that raises counts every operation as failed
        traceback.print_exc()
        errors = ["the run raised"]
    else:
        if set(metrics) != set(units):
            errors.append(
                f"metrics computed {sorted(set(metrics) - set(units))} are not declared in "
                f"{SPEC.name}, declared {sorted(set(units) - set(metrics))} are not computed"
            )
    for line in notes:
        print(line)
    for error in errors:
        print(f"CHECK FAILED: {error}")
    attempted = max(attempted, 1)
    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": attempted if errors else 0,
        "metrics": {
            name: {"value": float(metrics.get(name, 0.0)), "unit": unit}
            for name, unit in units.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
