"""Open-loop online serving: latency vs offered load on a small fleet.

The closed-batch experiments measure how fast pre-formed batches of 16 drain
through the accelerator.  This example asks the deployment question instead:
requests arrive over time (Poisson traffic), a dynamic batcher cuts batches
under a 20 ms deadline, and a least-loaded router spreads them over two
boards.  Sweeping the offered QPS shows the classic hockey-stick: flat tail
latency at low load, then divergence once the fleet saturates -- and the gap
between the closed-loop drain rate and the sustainable open-loop rate shows
what deadline-pressured small batches cost on a deeply pipelined design.

Run with:  python examples/online_serving.py
"""

from __future__ import annotations

from repro.devices import build_fleet
from repro.evaluation.report import format_key_values, format_table
from repro.experiments import run_experiment
from repro.serving import BurstyArrivals, PoissonArrivals, TimeoutBatcher, simulate_online
from repro.transformer import BERT_BASE


def main() -> None:
    sweep = run_experiment(
        "serving-sweep",
        {
            "datasets": ("mrpc", "rte"),
            "load_fractions": (0.1, 0.2, 0.3, 0.4, 0.5),
            "batch_policies": ("timeout",),
            "requests": 192,
            "num_accelerators": 2,
            "warmup_fraction": 0.0,
            "cache_length_bucket": None,
        },
    )
    print(
        format_table(
            sweep.as_rows(),
            title="Latency vs offered load (BERT-base, 2 accelerators, Poisson arrivals)",
        )
    )
    print(
        format_key_values(
            {
                f"closed-loop capacity ({name})": f"{qps:.1f} seq/s"
                for name, qps in sweep.capacity_qps.items()
            }
        )
    )

    # The same fleet under bursty (MMPP) traffic at a moderate average load:
    # the average rate is identical, but bursts inflate the tail.
    fleet = build_fleet(("sparse-fpga",), model=BERT_BASE, dataset="mrpc", replicas=2)
    rate = 0.3 * sweep.capacity_qps["MRPC"]
    rows = []
    for process in (
        PoissonArrivals(rate_qps=rate),
        BurstyArrivals(rate_qps=rate, burst_ratio=6.0),
    ):
        report = simulate_online(
            fleet,
            "mrpc",
            arrivals=process,
            num_requests=192,
            batch_policy=TimeoutBatcher(batch_size=16, timeout_s=20e-3),
        )
        rows.append(report.as_row())
    print(format_table(rows, title="Poisson vs bursty traffic at the same average load"))
    print(
        "Bursty arrivals push the same average QPS through short high-rate windows, so\n"
        "queues form during bursts and the p99 latency inflates even though the fleet\n"
        "is far from saturated on average."
    )

    # The unified Device API mixes backends in one fleet: the cycle-accurate
    # sparse FPGA next to the analytical RTX 6000 roofline model.  Device-level
    # continuous batching lets the FPGA admit a new batch while the previous
    # one drains its coarse pipeline, which recovers the capacity that small
    # deadline-pressured batches otherwise leave on the table.
    mixed = build_fleet(("sparse-fpga", "gpu-rtx6000"), model=BERT_BASE, dataset="mrpc")
    small_batches = TimeoutBatcher(batch_size=4, timeout_s=2e-3)
    rows = []
    for continuous in (False, True):
        report = simulate_online(
            mixed,
            "mrpc",
            arrivals=PoissonArrivals(rate_qps=2.0 * rate),
            num_requests=192,
            batch_policy=small_batches,
            continuous_batching=continuous,
        )
        row = report.as_row()
        row["continuous"] = continuous
        rows.append(row)
    print(format_table(rows, title="Mixed fleet (FPGA + GPU): block-per-batch vs continuous batching"))
    print(
        format_table(
            [
                {
                    "device": device.accelerator,
                    "backend": device.backend,
                    "requests": device.num_requests,
                    "energy_j": (
                        round(device.energy_joules, 2)
                        if device.energy_joules is not None
                        else None
                    ),
                }
                for device in report.devices
            ],
            title="Per-device accounting of the continuous-batching run",
        )
    )


if __name__ == "__main__":
    main()
