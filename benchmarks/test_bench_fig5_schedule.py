"""Fig. 5: length-aware coarse-grained dynamic pipeline (batch of 5, lengths 140..72)."""

from __future__ import annotations

from conftest import run_once

from repro.evaluation.report import format_key_values, format_table
from repro.experiments import run_experiment


def test_bench_fig5_length_aware_schedule(benchmark, write_report):
    result = run_once(benchmark, run_experiment, "fig5")

    text = format_table(result.as_rows(), title="Fig. 5 - scheduling the example batch (cycles)")
    occupancy = result.length_aware.timeline.stage_occupancy()
    text += "\n" + format_table(
        [
            {
                "stage": name,
                "busy_cycles": occ.busy_cycles,
                "bubble_cycles": occ.bubble_cycles,
                "utilization": round(occ.utilization, 3),
            }
            for name, occ in occupancy.items()
        ],
        title="Length-aware schedule: per-stage occupancy (paper: ~100% utilization, no bubbles)",
    )
    text += "\n" + format_key_values(
        {
            "batch lengths": result.lengths,
            "saved vs sequential (cycles)": result.saved_cycles_vs_sequential,
            "saved vs padded (cycles)": result.saved_cycles_vs_padded,
            "speedup vs sequential": round(result.speedup_vs_sequential, 2),
            "speedup vs padded": round(result.speedup_vs_padded, 2),
        }
    )
    write_report("fig5_length_aware_schedule", text)

    assert result.length_aware.average_utilization > 0.95
    assert result.saved_cycles_vs_sequential > 0
