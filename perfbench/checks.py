"""Output checks run on every benchmark run, outside the timed section.

Each check returns a list of failure messages; an empty list means the
outputs are correct.  The checks rely only on public report fields and on
re-costing batches through the program's own reference path.
"""

from __future__ import annotations

import hashlib
import json
import os
from collections import Counter
from contextlib import contextmanager

import numpy as np

from repro.devices import build_device

__all__ = [
    "check_accuracy",
    "check_serving",
    "digest",
    "latency_parts",
]

#: Float slack for orderings where the engine itself compares with an epsilon
#: (arrivals are admitted up to 1e-12 s early).
_TIME_SLACK = 1e-9
#: Batches re-costed on the reference path per run.
RECOST_SAMPLE = 8


def digest(payload: dict) -> str:
    """A short stable hash of a JSON-ready result (every simulated statistic)."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def latency_parts(report) -> dict[str, np.ndarray]:
    """Per-record latency split: formation wait, backlog wait, service time.

    Formation wait runs from arrival to dispatch (the batch policy held the
    request), backlog wait from dispatch to start (the routed device was
    busy), service from start to completion.
    """
    records = report.records
    arrival = np.array([r.request.arrival_time for r in records])
    dispatch = np.array([r.dispatch_time for r in records])
    start = np.array([r.start_time for r in records])
    completion = np.array([r.completion_time for r in records])
    return {
        "formation": dispatch - arrival,
        "backlog": start - dispatch,
        "service": completion - start,
        "latency": np.array([r.latency for r in records]),
    }


@contextmanager
def _reference_costing():
    """Select the pure-Python pipeline engine with the schedule cache off."""
    overrides = {"REPRO_PIPELINE_ENGINE": "reference", "REPRO_SCHEDULE_CACHE": "off"}
    os.environ.update(overrides)
    try:
        yield
    finally:
        for name in overrides:
            os.environ.pop(name, None)


def _recost(device, lengths, execution, label: str) -> list[str]:
    device.reset()
    again = device.execute(lengths)
    if again.latency_seconds != execution.latency_seconds:
        return [
            f"{label}: reference latency {again.latency_seconds!r} "
            f"!= recorded {execution.latency_seconds!r}"
        ]
    if list(again.completion_offsets) != list(execution.completion_offsets):
        return [f"{label}: reference completion offsets differ"]
    return []


def _sample(items: list, count: int) -> list:
    if len(items) <= count:
        return list(items)
    picks = np.linspace(0, len(items) - 1, count).round().astype(int)
    return [items[i] for i in picks]


def check_serving(report, devices, decode: bool) -> list[str]:
    errors: list[str] = []
    offered = report.num_requests
    completed = len(report.records)
    shed = len(report.shed_requests)
    if completed + shed != offered:
        errors.append(f"conservation: {completed} completed + {shed} shed != {offered} offered")
    ids = [r.request.request_id for r in report.records]
    ids += [r.request_id for r in report.shed_requests]
    if sorted(ids) != list(range(offered)):
        errors.append("conservation: request ids are not each accounted for exactly once")

    causes = Counter(report.shed_causes.get(r.request_id) for r in report.shed_requests)
    expected = {
        "shed": report.num_shed,
        "late": report.num_shed_late,
        "shed-predicted": report.num_shed_predicted,
        "crashed": report.num_shed_crashed,
    }
    if dict(causes) != {cause: n for cause, n in expected.items() if n}:
        errors.append(f"conservation: shed causes {dict(causes)} != counters {expected}")
    if report.class_summaries is not None:
        for name, summary in report.class_summaries.items():
            by_cause = (
                summary.shed_admission
                + summary.shed_predicted
                + summary.shed_late
                + summary.shed_crashed
            )
            if summary.completed + summary.shed != summary.offered or by_cause != summary.shed:
                errors.append(f"conservation: class {name} does not balance")
        if sum(s.offered for s in report.class_summaries.values()) != offered:
            errors.append("conservation: classes do not sum to the offered requests")

    for record in report.records:
        r = record.request
        ordered = (
            r.arrival_time <= record.dispatch_time + _TIME_SLACK
            and record.dispatch_time <= record.start_time
            and record.start_time <= record.completion_time
        )
        if decode:
            first_token = record.first_token_time
            ordered = ordered and record.start_time <= first_token <= record.completion_time
        if not ordered:
            errors.append(f"record {r.request_id}: arrival <= dispatch <= start <= completion")
            break

    parts = latency_parts(report)
    residual = parts["formation"] + parts["backlog"] + parts["service"] - parts["latency"]
    if residual.size and np.max(np.abs(residual)) > _TIME_SLACK:
        errors.append("latency decomposition does not sum to the recorded latency")

    if decode:
        generated = completed + sum(d["decode_tokens"] for d in report.decode_devices)
        wanted = sum(r.request.output_len for r in report.records)
        if generated != wanted:
            errors.append(f"decode: {generated} tokens generated != {wanted} requested")

    # Re-cost a fixed sample of fault-free batches on the reference engine
    # with no schedule cache: latency and offsets must match bit for bit.
    by_id = {r.request.request_id: r for r in report.records}
    clean = [
        batch
        for batch in report.batches
        if devices[batch.device_index].fault_timeline is None
        or devices[batch.device_index].fault_timeline.multiplier(batch.start_time) == 1.0
    ]
    reference = build_device("sparse-fpga", dataset=report.dataset.lower())
    with _reference_costing():
        for batch in _sample(clean, RECOST_SAMPLE):
            execution = batch.execution
            errors += _recost(reference, execution.lengths, execution, f"batch {batch.batch_id}")
            if decode:
                continue  # decode records complete at their last token, not at prefill
            for position, request_id in enumerate(batch.request_ids):
                expected = batch.start_time + execution.completion_offsets[position]
                if by_id[request_id].completion_time != expected:
                    errors.append(f"batch {batch.batch_id}: request {request_id} drifted")
    return errors


def check_accuracy(workload, outcome) -> list[str]:
    errors: list[str] = []
    result = outcome.report
    for pair, score in zip(outcome.parts["pairs"], result.baseline):
        if score != 100.0:
            errors.append(f"{pair.model}:{pair.dataset}: dense teacher scores {score}, not 100")
    for scores in result.scores:
        if any(not 0.0 <= v <= 100.0 for v in scores.values()):
            errors.append("a top-k score falls outside [0, 100]")
    # Re-run the Fig. 7 batches behind the sim_* metrics on the reference
    # engine: makespan and every sequence's completion must match exactly.
    batches = [
        batch
        for seed in workload.hardware_seeds(outcome.parts["seed"])
        for batch in workload.hardware_batches(seed)
    ]
    fast = [(label, p.schedule(lengths)) for label, p, lengths in batches]
    with _reference_costing():
        slow = [p.schedule(lengths) for _, p, lengths in batches]
    for (label, a), b in zip(fast, slow):
        if a.makespan_cycles != b.makespan_cycles:
            errors.append(f"{label}: reference makespan {b.makespan_cycles} != {a.makespan_cycles}")
        elif a.sequence_completion_cycles() != b.sequence_completion_cycles():
            errors.append(f"{label}: reference sequence completions differ")
    return errors
