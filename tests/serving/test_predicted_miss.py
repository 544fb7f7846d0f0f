"""Deadline-aware admission at arrival (``shed_on_predicted_miss``)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.decode import simulate_decode_online
from repro.devices import GLOBAL_SCHEDULE_CACHE, build_fleet
from repro.faults import ScriptedFaults
from repro.serving import (
    FixedSizeBatcher,
    PoissonArrivals,
    Request,
    SLOSpec,
    simulate_online,
)
from repro.serving.policies import _TIME_EPS
from repro.serving.slo import PredictedMissGate

_FLEET = ("gpu-rtx6000",)


def _mixed_stream(n=16, spacing=0.05, tight_every=2):
    """Alternating zero-slack and generously-budgeted explicit requests."""
    requests = []
    for i in range(n):
        arrival = i * spacing
        tight = i % tight_every == 0
        requests.append(
            Request(
                request_id=i,
                length=64,
                arrival_time=arrival,
                deadline=arrival if tight else arrival + 10.0,
            )
        )
    return requests


class TestPredictedMissShedding:
    def test_zero_slack_requests_shed_at_arrival(self):
        report = simulate_online(
            build_fleet(_FLEET, dataset="mrpc"),
            "mrpc",
            arrivals=_mixed_stream(),
            batch_policy=FixedSizeBatcher(batch_size=4),
            shed_on_predicted_miss=True,
        )
        # Every zero-slack request is a provable miss; every 10-second
        # budget is attainable.  The shed stream counts against attainment.
        assert report.num_shed_predicted == 8
        assert report.num_completed == 8
        assert len(report.shed_requests) == 8
        assert report.attainment_rate == pytest.approx(0.5)
        assert report.to_dict()["num_shed_predicted"] == 8

    def test_default_off_serves_everything(self):
        report = simulate_online(
            build_fleet(_FLEET, dataset="mrpc"),
            "mrpc",
            arrivals=_mixed_stream(),
            batch_policy=FixedSizeBatcher(batch_size=4),
        )
        assert report.num_shed_predicted == 0
        assert report.num_completed == 16
        # Deadline-blind serving wastes device time on the zero-slack half.
        assert report.attainment_rate == pytest.approx(0.5)

    def test_generous_deadlines_identical_with_knob_on(self):
        """With no predicted miss the knob must not perturb the simulation."""
        kwargs = dict(
            dataset="mrpc",
            arrivals=PoissonArrivals(rate_qps=200.0),
            num_requests=48,
            batch_policy=FixedSizeBatcher(batch_size=8),
            slo=SLOSpec(base_s=10.0),
            seed=7,
        )
        base = simulate_online(build_fleet(_FLEET, dataset="mrpc"), **kwargs)
        gated = simulate_online(
            build_fleet(_FLEET, dataset="mrpc"),
            shed_on_predicted_miss=True,
            **kwargs,
        )
        assert gated.num_shed_predicted == 0
        assert base.to_dict() == gated.to_dict()

    def test_counter_is_distinct_from_admission_and_late_shedding(self):
        report = simulate_online(
            build_fleet(_FLEET, dataset="mrpc"),
            "mrpc",
            arrivals=_mixed_stream(),
            batch_policy=FixedSizeBatcher(batch_size=4),
            shed_on_predicted_miss=True,
        )
        assert report.num_shed == 0
        assert report.num_shed_late == 0
        assert report.num_shed_predicted == 8

    def test_all_shed_report_renders_without_records(self):
        """An all-shed run (every deadline provably missed) must still report.

        Percentiles over zero served requests render as None instead of
        raising -- the CLI reaches this with tight SLOs + the knob.
        """
        requests = [
            Request(request_id=i, length=64, arrival_time=i * 0.05, deadline=i * 0.05)
            for i in range(8)
        ]
        report = simulate_online(
            build_fleet(_FLEET, dataset="mrpc"),
            "mrpc",
            arrivals=requests,
            batch_policy=FixedSizeBatcher(batch_size=4),
            shed_on_predicted_miss=True,
        )
        assert report.num_completed == 0
        assert report.num_shed_predicted == 8
        payload = report.to_dict()
        assert payload["latency_ms"] == {"p50": None, "p95": None, "p99": None}
        assert payload["queueing_delay_ms"] == {"p50": None, "p99": None}
        row = report.as_row()
        assert row["p99_ms"] is None
        assert report.attainment_rate == 0.0

    def test_decode_engine_supports_the_knob(self):
        report = simulate_decode_online(
            build_fleet(_FLEET, dataset="mrpc"),
            "mrpc",
            arrivals=_mixed_stream(),
            batch_policy=FixedSizeBatcher(batch_size=4),
            shed_on_predicted_miss=True,
        )
        assert report.num_shed_predicted == 8
        assert report.num_completed == 8


def _reference_late(fleet, estimates, queue, now):
    """The per-request provable-miss check: every device's start, read per request."""
    late = []
    for request in queue:
        if request.deadline is None:
            continue
        for index, device in enumerate(fleet):
            key = (index, request.length)
            if key not in estimates:
                estimates[key] = device.batch_latency_seconds([request.length])
            if device.next_start(now) + estimates[key] <= request.deadline + _TIME_EPS:
                break
        else:
            late.append(request)
    return late


class TestOnePassGate:
    """``late_requests`` over a queue equals asking request by request."""

    @staticmethod
    def _gated_fleet():
        """sparse / baseline FPGA + GPU with staggered backlogs and one outage."""
        fleet = build_fleet(("sparse-fpga", "baseline-fpga", "gpu-rtx6000"), dataset="mrpc")
        probes = []
        for index, device in enumerate(fleet):
            device.book_interval(0.0, 0.001 * (index + 1))

            def recorded(lengths, _index=index, _probe=device.batch_latency_seconds):
                probes.append((_index, tuple(lengths)))
                return _probe(lengths)

            device.batch_latency_seconds = recorded
        outage = ScriptedFaults(crashes=((0, 0.002, 0.004),))
        fleet[0].bind_fault_timeline(outage.build_timeline(0, seed=0))
        return fleet, probes

    def test_one_pass_sheds_and_probes_like_per_request_checks(self):
        rng = np.random.default_rng(11)
        queue = [
            Request(
                request_id=i,
                length=int(rng.integers(8, 104)),
                arrival_time=0.0,
                deadline=None if i % 9 == 0 else float(rng.uniform(0.0, 0.08)),
            )
            for i in range(60)
        ]
        outcomes = []
        for one_pass in (True, False):
            GLOBAL_SCHEDULE_CACHE.clear()
            fleet, probes = self._gated_fleet()
            gate, estimates = PredictedMissGate(fleet), {}
            shed = []
            for now in (0.0, 0.003, 0.008, 0.02):
                if one_pass:
                    late = gate.late_requests(queue, now)
                else:
                    late = _reference_late(fleet, estimates, queue, now)
                shed.append([r.request_id for r in late])
                if one_pass:
                    assert [r for r in queue if gate.predicted_miss(r, now)] == late
            counters = [
                (device.cache_hits, device.cache_misses)
                for device in fleet
                if device.schedule_cache_stats() is not None
            ]
            outcomes.append((shed, probes, counters))
        one_pass, per_request = outcomes
        assert one_pass == per_request
        shed, probes, _ = one_pass
        assert 0 < len(shed[0]) < len(shed[-1]) < len(queue)  # the gate discriminates
        assert {index for index, _ in probes} == {0, 1, 2}  # every backend is asked
        # Some requests stop at the first device: a min over the fleet would
        # probe more than the per-request check does.
        assert len(probes) < 3 * len({length for _, (length,) in probes})
