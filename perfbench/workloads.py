"""The benchmark's four workloads.

Each workload builds its inputs from the run's seed, runs one measured
iteration (optionally traced), and derives the simulated (``sim_*``)
statistics from the result.  Three are serving workloads driven through
``simulate_online`` / ``simulate_decode_online``; ``sparse-accuracy`` runs
the Fig. 6 accuracy protocol on the NumPy transformer.  Every constant below
is part of the workload definition: changing one changes the benchmark.
"""

from __future__ import annotations

import statistics
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

from perfbench.calibrate import Stopwatch
from perfbench.checks import check_accuracy, check_serving
from repro.core.sparse_attention import make_sparse_attention_impl
from repro.datasets.length_distributions import sample_lengths
from repro.datasets.tasks import build_proxy_task, evaluate_model_on_task
from repro.decode import GeometricOutputLength, simulate_decode_online
from repro.config import DEFAULT_BATCH_SIZE, DEFAULT_TOP_K
from repro.devices import GLOBAL_SCHEDULE_CACHE, build_fleet
from repro.evaluation.fig6_accuracy import reduced_config
from repro.faults import get_fault_schedule
from repro.platforms.fpga import build_proposed_fpga
from repro.serving import (
    ClassMixArrivals,
    CostModelRouter,
    FixedSizeBatcher,
    FlashCrowdArrivals,
    LeastLoadedRouter,
    PoissonArrivals,
    PriorityDeadlineBatcher,
    QueueDepthAutoscaler,
    SLOSpec,
    TimeoutBatcher,
    simulate_online,
)
from repro.transformer.configs import (
    FIG6_EVALUATION_PAIRS,
    FIG7_EVALUATION_PAIRS,
    get_dataset_config,
    get_model_config,
)
from repro.transformer.encoder import dense_attention_impl
from repro.transformer.model import TransformerModel

__all__ = ["WORKLOADS", "Outcome", "trimmed_mean"]

#: The top-k sweep around the paper's operating point (DEFAULT_TOP_K = 30).
TOP_K_SWEEP = (50, 40, 30, 20, 10)


def trimmed_mean(values) -> float:
    """Mean after dropping the highest and the lowest value (of three or more).

    How a run combines the ``sim_*`` figures of its inputs: steadier than the
    median for the near-normal spread between inputs, yet one input with an
    extreme tail does not carry the result.
    """
    ordered = sorted(values)
    if len(ordered) >= 3:
        ordered = ordered[1:-1]
    return statistics.fmean(ordered)


@dataclass
class Outcome:
    """One iteration's result."""

    host_s: float
    #: Work items for ``host_req_per_s``: requests offered (serving) or proxy
    #: examples carried through the whole k sweep (accuracy).
    requests: int
    #: Model passes for ``host_examples_per_s``: one per encoder request, one
    #: per generated token (decode), one per dense or top-k forward (accuracy).
    passes: int
    #: JSON-ready result; its digest must repeat across iterations.
    payload: dict
    report: object
    #: The objects the iteration ran on (devices, models) for the checks.
    parts: dict
    #: Counts recorded at traced boundaries (empty when untraced).
    counts: dict = field(default_factory=dict)


def _span(tracer, name: str):
    return tracer.span(name) if tracer is not None else nullcontext()


# ----------------------------------------------------------------------
# Serving workloads
# ----------------------------------------------------------------------


class ServingWorkload:
    """A simulated-serving workload: one engine call over generated traffic."""

    decode = False
    #: The speed-probe kernel like this workload's own work (see calibrate).
    probe_kernel = "python"
    #: Independent inputs a run cycles through; its ``sim_*`` metrics are the
    #: trimmed means over them, which steadies tail statistics a single
    #: stream leaves at the mercy of one spike or a handful of crashes.
    inputs_per_run = 1

    def __init__(self, name: str, why: str, num_requests: int) -> None:
        self.name = name
        self.why = why
        self.num_requests = num_requests

    def prepare(self, seed: int):
        """Run-wide inputs; serving workloads rebuild everything per iteration."""
        return seed

    def construct(self, seed: int) -> None:
        """Everything set-up builds: the inputs and one iteration's objects."""
        self.prepare(seed)
        self.components()

    def check(self, outcome: Outcome) -> list[str]:
        return check_serving(outcome.report, outcome.parts["devices"], self.decode)

    def components(self) -> dict:
        """Fresh engine arguments (fleet, arrivals, policies) for one iteration."""
        raise NotImplementedError

    def engine(self, **kwargs):
        return simulate_online(**kwargs)

    def instrument(self, parts: dict, tracer) -> None:
        """Wrap the public methods of every object handed to the engine."""
        tracer.wrap(parts["arrivals"], "generate", "arrivals.generate")
        policy = parts["batch_policy"]
        tracer.wrap(policy, "form_batch", "formation")
        tracer.wrap(policy, "next_action_time", "formation")
        tracer.wrap(parts["router"], "select", "routing")
        for device in parts["devices"]:
            tracer.wrap(device, "execute", "devices.execute")
            tracer.wrap(device, "batch_latency_seconds", "devices.probe")
            tracer.wrap(device, "decode_step_latency_seconds", "decode.step_cost")
            tracer.wrap(device.scheduler, "schedule", "scheduling.solve")
        if parts.get("autoscaler") is not None:
            tracer.wrap(parts["autoscaler"], "decide", "autoscaler.decide")

    def iterate(self, prepared, tracer=None, stopwatch=None) -> Outcome:
        seed = prepared
        stopwatch = stopwatch or Stopwatch()
        parts = self.components()
        if tracer is not None:
            self.instrument(parts, tracer)
        # A `repro serve` invocation starts with an empty schedule cache.
        GLOBAL_SCHEDULE_CACHE.clear()
        with stopwatch:
            with _span(tracer, "engine"):
                report = self.engine(**parts, num_requests=self.num_requests, seed=seed)
            with _span(tracer, "report.to_dict"):
                payload = report.to_dict()
        if self.decode:
            passes = report.total_output_tokens
        else:
            passes = report.num_completed
        return Outcome(stopwatch.elapsed, report.num_requests, passes, payload, report, parts)

    def sim_metrics(self, outcome: Outcome) -> dict:
        report = outcome.report
        latency = np.array([r.latency for r in report.records])
        p50, p99 = np.percentile(latency, [50, 99]) * 1e3
        per_token = [
            batch.execution.latency_seconds / sum(batch.execution.lengths)
            for batch in report.batches
        ]
        return {
            "sim_p50_latency_ms": float(p50),
            "sim_p99_latency_ms": float(p99),
            "sim_goodput_qps": report.goodput_qps,
            "sim_attainment": report.attainment_rate,
            "sim_j_per_kreq": report.total_energy_joules / report.num_completed * 1e3,
            # Encoder requests emit their single output at completion, so
            # time to first token is the latency; the per-token figure is a
            # batch's service time per prompt token and throughput is
            # completions.
            "sim_ttft_p99_ms": float(p99),
            "sim_itl_p99_ms": float(np.percentile(per_token, 99) * 1e3),
            "sim_tokens_per_s": report.sustained_qps,
        }


class FleetFifo(ServingWorkload):
    def components(self) -> dict:
        return {
            "devices": build_fleet(["sparse-fpga"], dataset="mrpc", replicas=100),
            "dataset": "mrpc",
            # ~0.8 of the fleet's capacity: 100 devices x ~110 seq/s each at
            # batch 16 on mrpc lengths.
            "arrivals": PoissonArrivals(rate_qps=8800.0),
            "batch_policy": FixedSizeBatcher(batch_size=16),
            "router": LeastLoadedRouter(),
            "slo": SLOSpec(base_s=0.155),
        }


class ElasticTenants(ServingWorkload):
    inputs_per_run = 8

    def components(self) -> dict:
        return {
            "devices": build_fleet(["sparse-fpga"], dataset="mrpc", replicas=16),
            "dataset": "mrpc",
            "arrivals": ClassMixArrivals(
                base=FlashCrowdArrivals(
                    rate_qps=250.0, spike_ratio=5.0, spike_start_s=10.0, spike_duration_s=6.0
                ),
                mix="interactive:0.3,batch:0.5,best-effort:0.2",
            ),
            "batch_policy": PriorityDeadlineBatcher(batch_size=16),
            "router": CostModelRouter(blacklist_s=0.05),
            "autoscaler": QueueDepthAutoscaler(scale_up_depth=2.0, scale_down_depth=0.5),
            "provisioning_lag_s": 1.0,
            "autoscale_interval_s": 0.5,
            "min_devices": 8,
            "faults": [get_fault_schedule("crash-restart", mtbf_s=4.0, downtime_s=0.05)],
            "max_retries": 2,
            "retry_backoff_s": 0.05,
            "class_queue_limits": {"best-effort": 8},
        }


class DecodeKv(ServingWorkload):
    decode = True
    inputs_per_run = 6

    def components(self) -> dict:
        return {
            "devices": build_fleet(
                ["sparse-fpga"], dataset="mrpc", replicas=4, kv_cache_bytes=32 * 2**20
            ),
            "dataset": "mrpc",
            # ~0.75 of the closed-loop decode capacity of this fleet.
            "arrivals": PoissonArrivals(rate_qps=210.0),
            "output_lengths": GeometricOutputLength(mean_output_len=32.0, max_output_len=128),
            "batch_policy": TimeoutBatcher(batch_size=16, timeout_s=0.02),
            "router": LeastLoadedRouter(),
            "slo": SLOSpec(base_s=0.05, per_output_token_s=0.004),
            "iteration_level": True,
        }

    def engine(self, **kwargs):
        return simulate_decode_online(**kwargs)

    def sim_metrics(self, outcome: Outcome) -> dict:
        report = outcome.report
        metrics = super().sim_metrics(outcome)
        metrics["sim_ttft_p99_ms"] = report.ttft_percentile(99) * 1e3
        metrics["sim_itl_p99_ms"] = report.inter_token_percentile(99) * 1e3
        metrics["sim_tokens_per_s"] = report.sustained_tokens_per_second
        return metrics


# ----------------------------------------------------------------------
# Sparse-attention accuracy (Fig. 6 protocol)
# ----------------------------------------------------------------------


@dataclass
class _Pair:
    model: str
    dataset: str
    teacher: TransformerModel


@dataclass
class AccuracyResult:
    """Scores per pair and k, plus the proxy corpora they were measured on."""

    tasks: list
    baseline: list[float]
    scores: list[dict]


class SparseAccuracy:
    """Reduced models over the paper's pairs, top-k sweep, 1-bit pre-selection."""

    inputs_per_run = 1
    probe_kernel = "numpy"
    #: The proxy corpora (token ids and lengths) are fixed, so host cost does
    #: not move with the run's seed; the seed draws the teacher weights, and
    #: with them the labels and every score.
    corpus_seed = 2022
    examples_per_pair = 4
    max_length_cap = 64
    quant_bits = 1
    #: Fig. 7 evaluations per run, at seeds derived from the run's seed; each
    #: sim_* metric is their trimmed mean, as over a serving run's inputs.
    hardware_inputs = 5

    def __init__(self, name: str, why: str) -> None:
        self.name = name
        self.why = why

    def prepare(self, seed: int):
        pairs = [
            _Pair(
                model=model,
                dataset=dataset,
                teacher=TransformerModel(reduced_config(get_model_config(model)), seed=seed),
            )
            for model, dataset in FIG6_EVALUATION_PAIRS
        ]
        return seed, pairs

    construct = prepare

    def _model(self, teacher, impl, top_k, tracer, counts):
        """A clone of ``teacher`` using ``impl``; traced clones count MACs."""
        if tracer is not None and impl is not None:
            traced = tracer.wrap_callable(impl, "core.attention")

            def impl(hidden_states, weights, num_heads, mask, _inner=traced):
                n, d = hidden_states.shape
                kept = n if top_k is None else min(top_k, n)
                counts["attention_calls"] += 1
                counts["attention_macs"] += 2 * n * kept * d
                counts["dense_macs"] += 2 * n * n * d
                if top_k is not None:
                    counts["kept_keys"] += n * kept
                    counts["all_keys"] += n * n
                return _inner(hidden_states, weights, num_heads, mask)

        model = teacher.with_attention(impl)
        if tracer is not None:
            tracer.wrap(model, "classify", "transformer.forward")
            tracer.wrap(model, "extract_span", "transformer.forward")
        return model

    def iterate(self, prepared, tracer=None, stopwatch=None) -> Outcome:
        seed, pairs = prepared
        stopwatch = stopwatch or Stopwatch()
        counts = dict.fromkeys(
            ("attention_calls", "attention_macs", "dense_macs", "kept_keys", "all_keys"), 0
        )
        with stopwatch:
            result = self._sweep(seed, pairs, tracer, counts)
        requests = sum(len(task) for task in result.tasks)
        passes = requests * (2 + len(TOP_K_SWEEP))
        parts = {"pairs": pairs, "seed": seed}
        payload = self._payload(pairs, result)
        return Outcome(stopwatch.elapsed, requests, passes, payload, result, parts, counts)

    def _sweep(self, seed, pairs, tracer, counts) -> AccuracyResult:
        """Label each pair's proxy corpus, then score dense and every top-k."""
        result = AccuracyResult(tasks=[], baseline=[], scores=[])
        for pair in pairs:
            teacher = self._model(pair.teacher, None, None, tracer, counts)
            with _span(tracer, "transformer.proxy_task"):
                task = build_proxy_task(
                    pair.dataset,
                    teacher,
                    num_examples=self.examples_per_pair,
                    seed=self.corpus_seed,
                    max_length_cap=self.max_length_cap,
                )
            dense = self._model(pair.teacher, dense_attention_impl, None, tracer, counts)
            with _span(tracer, "transformer.proxy_task"):
                result.baseline.append(evaluate_model_on_task(dense, task)["score"])
            by_k = {}
            for k in TOP_K_SWEEP:
                impl = make_sparse_attention_impl(top_k=k, quant_bits=self.quant_bits)
                sparse = self._model(pair.teacher, impl, k, tracer, counts)
                with _span(tracer, "transformer.proxy_task"):
                    by_k[k] = evaluate_model_on_task(sparse, task)["score"]
            result.scores.append(by_k)
            result.tasks.append(task)
        return result

    def _payload(self, pairs, result: AccuracyResult) -> dict:
        return {
            "pairs": [
                {
                    "model": pair.model,
                    "dataset": pair.dataset,
                    "lengths": task.lengths,
                    "baseline": base,
                    "scores": {str(k): v for k, v in by_k.items()},
                }
                for pair, task, base, by_k in zip(
                    pairs, result.tasks, result.baseline, result.scores
                )
            ]
        }

    def hardware_seeds(self, seed: int) -> list[int]:
        return [seed * self.hardware_inputs + index for index in range(self.hardware_inputs)]

    def hardware_batches(self, seed: int) -> list:
        """(pair label, platform, lengths) for each Fig. 7 pair.

        The hardware side of the sweep, measured as Fig. 7(a) measures it
        (``fig7_throughput._evaluate_workload``): one ``DEFAULT_BATCH_SIZE``
        batch of lengths drawn from the pair's dataset with ``seed``,
        arriving at once on the proposed design at ``DEFAULT_TOP_K``.
        """
        batches = []
        for model, dataset in FIG7_EVALUATION_PAIRS:
            dataset_config = get_dataset_config(dataset)
            lengths = sample_lengths(dataset_config, DEFAULT_BATCH_SIZE, seed=seed)
            platform = build_proposed_fpga(
                get_model_config(model), dataset_config, top_k=DEFAULT_TOP_K
            )
            batches.append((f"{model}:{dataset}", platform, [int(x) for x in lengths]))
        return batches

    def check(self, outcome: Outcome) -> list[str]:
        return check_accuracy(self, outcome)

    def sim_metrics(self, outcome: Outcome) -> dict:
        runs = [self._fig7_metrics(seed) for seed in self.hardware_seeds(outcome.parts["seed"])]
        return {name: trimmed_mean(run[name] for run in runs) for name in runs[0]}

    def _fig7_metrics(self, seed: int) -> dict:
        latency, per_token = [], []
        busy = energy = 0.0
        for _, platform, lengths in self.hardware_batches(seed):
            result = platform.end_to_end(lengths)
            schedule = platform.schedule(lengths)
            completion = schedule.sequence_completion_cycles()
            latency += [completion[i] / schedule.clock_hz for i in range(len(lengths))]
            per_token.append(result.latency_seconds / sum(lengths))
            busy += result.latency_seconds
            energy += result.energy_joules
        p50, p99 = np.percentile(latency, [50, 99]) * 1e3
        # Batches run back to back, so simulated time is the summed makespan.
        throughput = len(latency) / busy
        return {
            "sim_p50_latency_ms": float(p50),
            "sim_p99_latency_ms": float(p99),
            # Fig. 7 sets no deadline, so no sequence is late: goodput is
            # throughput and attainment is 1.
            "sim_goodput_qps": throughput,
            "sim_attainment": 1.0,
            "sim_j_per_kreq": energy / len(latency) * 1e3,
            "sim_ttft_p99_ms": float(p99),
            "sim_itl_p99_ms": float(np.percentile(per_token, 99) * 1e3),
            "sim_tokens_per_s": throughput,
        }

    def accuracy_drop_pp(self, outcome: Outcome) -> float:
        """Mean proxy-score drop at the paper's top-k, in percentage points."""
        result = outcome.report
        drops = [base - by_k[DEFAULT_TOP_K] for base, by_k in zip(result.baseline, result.scores)]
        return float(np.mean(drops))


WORKLOADS = {
    workload.name: workload
    for workload in (
        FleetFifo(
            "fleet-fifo",
            "100-device static fleet at 0.8 load, FIFO batches: schedule-cache misses, "
            "routing scans and report assembly dominate",
            num_requests=20000,
        ),
        ElasticTenants(
            "elastic-tenants",
            "autoscaled pool, flash crowd of three classes, crashes: cache-hit cost-model "
            "probes and engine bookkeeping dominate",
            num_requests=8000,
        ),
        DecodeKv(
            "decode-kv",
            "iteration-level decode on 4 devices with a 32 MiB KV cache near capacity: "
            "per-token decode steps and KV admission dominate",
            num_requests=4000,
        ),
        SparseAccuracy(
            "sparse-accuracy",
            "Fig. 6 top-k sweep on reduced models: the only workload running core sparse "
            "attention and the NumPy transformer",
        ),
    )
}
