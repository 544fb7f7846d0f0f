"""Heterogeneous fleets, device-level continuous batching, and admission control."""

from __future__ import annotations

import json

import pytest

from repro.devices import build_device, build_fleet
from repro.serving import (
    PoissonArrivals,
    TimeoutBatcher,
    simulate_online,
)
from repro.serving.routing import LeastLoadedRouter, RoundRobinRouter
from repro.transformer.configs import MRPC, ModelConfig

_SMALL_MODEL = ModelConfig(name="fleet-2L", num_layers=2, hidden_dim=768, num_heads=12)


@pytest.fixture(scope="module")
def mixed_fleet():
    """One cycle-accurate sparse FPGA plus one analytical GPU."""
    return build_fleet(("sparse-fpga", "gpu-rtx6000"), model=_SMALL_MODEL, dataset="mrpc")


@pytest.fixture(scope="module")
def sparse_device():
    return build_device("sparse-fpga", model=_SMALL_MODEL, dataset="mrpc")


class TestHeterogeneousFleet:
    def test_mixed_fleet_report_covers_both_backends(self, mixed_fleet):
        """Acceptance: one simulate_online call runs cycle-accurate + analytical."""
        report = simulate_online(
            mixed_fleet,
            MRPC,
            PoissonArrivals(rate_qps=1500),
            num_requests=96,
            batch_policy=TimeoutBatcher(batch_size=16, timeout_s=0.005),
        )
        payload = json.loads(json.dumps(report.to_dict()))
        backends = {entry["backend"] for entry in payload["devices"]}
        assert backends == {"cycle-accurate", "analytical"}
        assert all(entry["batches"] > 0 for entry in payload["devices"])
        assert all(entry["energy_joules"] > 0 for entry in payload["devices"])

    def test_least_loaded_shifts_traffic_toward_the_faster_device(self):
        """The FPGA drains its backlog faster than the CPU, so it serves more."""
        fleet = build_fleet(("sparse-fpga", "cpu-xeon"), model=_SMALL_MODEL, dataset="mrpc")
        fast_latency = fleet[0].batch_latency_seconds([MRPC.avg_length] * 16)
        slow_latency = fleet[1].batch_latency_seconds([MRPC.avg_length] * 16)
        assert fast_latency < slow_latency
        report = simulate_online(
            fleet,
            MRPC,
            PoissonArrivals(rate_qps=2000),
            num_requests=192,
            batch_policy=TimeoutBatcher(batch_size=16, timeout_s=0.002),
            router=LeastLoadedRouter(),
        )
        fpga, cpu = report.devices
        assert fpga.num_requests > cpu.num_requests
        # Both still participate: least-loaded is load balancing, not pinning.
        assert cpu.num_batches > 0

    def test_round_robin_splits_traffic_evenly_regardless_of_speed(self):
        fleet = build_fleet(("sparse-fpga", "cpu-xeon"), model=_SMALL_MODEL, dataset="mrpc")
        report = simulate_online(
            fleet,
            MRPC,
            PoissonArrivals(rate_qps=2000),
            num_requests=192,
            batch_policy=TimeoutBatcher(batch_size=16, timeout_s=0.002),
            router=RoundRobinRouter(),
        )
        fpga, cpu = report.devices
        assert fpga.num_batches == pytest.approx(cpu.num_batches, abs=1)


class TestFleetConstruction:
    def test_duplicate_device_instances_are_rejected(self, sparse_device):
        """Serving state lives on the Device; aliasing one instance across
        two fleet slots would silently serialize the fleet."""
        with pytest.raises(ValueError, match="appears twice"):
            simulate_online(
                [sparse_device, sparse_device],
                MRPC,
                PoissonArrivals(rate_qps=100),
                num_requests=8,
            )

    def test_build_fleet_replicas_are_distinct_instances(self):
        fleet = build_fleet(("sparse-fpga",), model=_SMALL_MODEL, dataset="mrpc", replicas=2)
        assert fleet[0] is not fleet[1]

    def test_replicas_of_one_build_share_only_the_accelerator(self):
        fleet = build_fleet(
            ("sparse-fpga", "baseline-fpga"), model=_SMALL_MODEL, dataset="mrpc", replicas=2
        )
        sparse, baseline, sparse_twin, baseline_twin = fleet
        assert sparse.accelerator is sparse_twin.accelerator
        assert baseline.accelerator is baseline_twin.accelerator
        assert sparse.accelerator is not baseline.accelerator
        assert sparse.scheduler is not sparse_twin.scheduler
        # Nothing is shared across calls, nor with a device built alone.
        again = build_fleet(("sparse-fpga",), model=_SMALL_MODEL, dataset="mrpc")
        alone = build_device("sparse-fpga", model=_SMALL_MODEL, dataset="mrpc")
        assert again[0].accelerator is not sparse.accelerator
        assert alone.accelerator is not again[0].accelerator
        # Different knobs mean different designs, even within one call.
        varied = build_fleet(
            ("sparse-fpga", "fpga"), model=_SMALL_MODEL, dataset="mrpc", top_k=4
        ) + build_fleet(("sparse-fpga",), model=_SMALL_MODEL, dataset="mrpc")
        assert varied[0].accelerator is varied[1].accelerator
        assert varied[0].accelerator.top_k != varied[2].accelerator.top_k

    def test_optional_knobs_reach_only_declaring_factories(self):
        """top_k lands on FPGA builds (aliases included) and is dropped by
        analytical devices; unknown keywords still raise."""
        fleet = build_fleet(
            ("fpga", "gpu-rtx6000"), model=_SMALL_MODEL, dataset="mrpc", top_k=4
        )
        assert fleet[0].accelerator.top_k == 4
        with pytest.raises(TypeError):
            build_fleet(("gpu-rtx6000",), model=_SMALL_MODEL, warp_speed=9)


class TestContinuousBatching:
    def test_saturated_qps_strictly_exceeds_blocking(self, sparse_device):
        """Acceptance: admitting into the draining pipeline raises capacity."""
        kwargs = dict(
            num_requests=96,
            batch_policy=TimeoutBatcher(batch_size=4, timeout_s=0.001),
        )
        arrivals = PoissonArrivals(rate_qps=5000)  # far past saturation
        blocking = simulate_online(sparse_device, MRPC, arrivals, **kwargs)
        continuous = simulate_online(
            sparse_device, MRPC, arrivals, continuous_batching=True, **kwargs
        )
        assert continuous.sustained_qps > blocking.sustained_qps
        assert continuous.continuous_batching and not blocking.continuous_batching

    def test_mixed_fleet_supports_continuous_batching(self, mixed_fleet):
        report = simulate_online(
            mixed_fleet,
            MRPC,
            PoissonArrivals(rate_qps=1500),
            num_requests=64,
            batch_policy=TimeoutBatcher(batch_size=8, timeout_s=0.002),
            continuous_batching=True,
        )
        assert report.num_completed == 64
        assert report.to_dict()["continuous_batching"] is True

    def test_analytical_devices_gain_nothing_from_continuous_batching(self):
        """No internal pipeline to stream into: batches serialize either way."""
        device = build_device("gpu-rtx6000", model=_SMALL_MODEL)
        kwargs = dict(
            num_requests=64,
            batch_policy=TimeoutBatcher(batch_size=8, timeout_s=0.001),
        )
        arrivals = PoissonArrivals(rate_qps=5000)
        blocking = simulate_online(device, MRPC, arrivals, **kwargs)
        continuous = simulate_online(
            device, MRPC, arrivals, continuous_batching=True, **kwargs
        )
        assert continuous.sustained_qps == pytest.approx(blocking.sustained_qps)

    def test_energy_is_not_double_counted_across_overlapping_batches(self, sparse_device):
        """Board power is charged over merged busy time, not per-batch sums."""
        kwargs = dict(
            num_requests=96,
            batch_policy=TimeoutBatcher(batch_size=4, timeout_s=0.001),
        )
        arrivals = PoissonArrivals(rate_qps=5000)
        blocking = simulate_online(sparse_device, MRPC, arrivals, **kwargs)
        continuous = simulate_online(
            sparse_device, MRPC, arrivals, continuous_batching=True, **kwargs
        )
        for report in (blocking, continuous):
            summary = report.devices[0]
            expected = sparse_device.power_watts * summary.busy_seconds
            assert summary.energy_joules == pytest.approx(expected)
        # Same work in less busy time: continuous batching saves energy.
        assert continuous.devices[0].energy_joules < blocking.devices[0].energy_joules

    def test_completion_order_and_causality_hold_under_continuous_batching(
        self, sparse_device
    ):
        report = simulate_online(
            sparse_device,
            MRPC,
            PoissonArrivals(rate_qps=5000),
            num_requests=64,
            batch_policy=TimeoutBatcher(batch_size=4, timeout_s=0.001),
            continuous_batching=True,
        )
        for record in report.records:
            assert record.request.arrival_time <= record.dispatch_time
            assert record.dispatch_time <= record.start_time
            assert record.start_time < record.completion_time


class TestAdmissionControl:
    def test_overload_sheds_and_bounds_tail_latency(self, sparse_device):
        kwargs = dict(
            num_requests=96,
            batch_policy=TimeoutBatcher(batch_size=4, timeout_s=0.001),
        )
        arrivals = PoissonArrivals(rate_qps=5000)
        unshed = simulate_online(sparse_device, MRPC, arrivals, **kwargs)
        shed = simulate_online(
            sparse_device, MRPC, arrivals, max_queue_depth=8, **kwargs
        )
        assert shed.num_shed > 0
        assert shed.num_completed + shed.num_shed == shed.num_requests
        assert shed.latency_percentile(99) < unshed.latency_percentile(99)
        payload = shed.to_dict()
        assert payload["num_shed"] == shed.num_shed
        assert payload["shed_rate"] == pytest.approx(shed.num_shed / shed.num_requests)
        assert shed.as_row()["shed_rate"] > 0

    def test_light_load_sheds_nothing(self, sparse_device):
        report = simulate_online(
            sparse_device,
            MRPC,
            PoissonArrivals(rate_qps=100),
            num_requests=48,
            batch_policy=TimeoutBatcher(batch_size=4, timeout_s=0.001),
            max_queue_depth=8,
        )
        assert report.num_shed == 0
        assert report.shed_rate == 0.0

    def test_max_queue_depth_validation(self, sparse_device):
        with pytest.raises(ValueError, match="max_queue_depth"):
            simulate_online(
                sparse_device,
                MRPC,
                PoissonArrivals(rate_qps=100),
                num_requests=8,
                max_queue_depth=0,
            )


class TestSteadyStateStatistics:
    def test_zero_warmup_matches_raw_statistics(self, sparse_device):
        report = simulate_online(
            sparse_device, MRPC, PoissonArrivals(rate_qps=300), num_requests=64
        )
        assert report.steady_latency_percentile(99, 0.0) == report.latency_percentile(99)
        assert report.steady_qps(0.0) == report.sustained_qps

    def test_warmup_discards_the_cold_start(self, sparse_device):
        report = simulate_online(
            sparse_device, MRPC, PoissonArrivals(rate_qps=300), num_requests=64
        )
        steady = report.steady_records(0.25)
        cutoff = 0.25 * report.arrival_horizon_seconds
        assert steady
        assert all(r.request.arrival_time >= cutoff for r in steady)
        assert len(steady) < len(report.records)
        assert report.steady_qps(0.25) > 0

    def test_warmup_survives_overload_drain_tails(self, sparse_device):
        """The cutoff is based on arrivals, not the makespan: under overload
        the drain tail dwarfs the arrival window, and a makespan-based
        cutoff would silently discard every record."""
        report = simulate_online(
            sparse_device,
            MRPC,
            PoissonArrivals(rate_qps=5000),
            num_requests=96,
            batch_policy=TimeoutBatcher(batch_size=4, timeout_s=0.001),
        )
        assert report.arrival_horizon_seconds < 0.5 * report.makespan_seconds
        steady = report.steady_records(0.6)
        assert steady
        assert len(steady) < len(report.records)

    def test_warmup_fraction_is_validated(self, sparse_device):
        report = simulate_online(
            sparse_device, MRPC, PoissonArrivals(rate_qps=300), num_requests=16
        )
        with pytest.raises(ValueError):
            report.steady_records(1.0)
        with pytest.raises(ValueError):
            report.steady_records(-0.1)
