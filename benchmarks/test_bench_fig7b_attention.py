"""Fig. 7(b): attention-core cross-platform throughput comparison."""

from __future__ import annotations

from conftest import run_once

from repro.evaluation.report import format_table
from repro.experiments import run_experiment


def test_bench_fig7b_attention_speedups(benchmark, write_report):
    result = run_once(benchmark, run_experiment, "fig7b")

    text = format_table(result.as_rows(), title="Fig. 7(b) - attention-core speedup of the proposed FPGA design")
    geomeans = result.geomean_speedups()
    paper = result.paper_geomeans()
    text += "\n" + format_table(
        [
            {
                "platform": key,
                "geomean_speedup_measured": round(geomeans[key], 1),
                "geomean_speedup_paper": paper[key],
            }
            for key in geomeans
        ],
        title="Geometric-mean attention speedups vs the paper's reported values",
    )
    write_report("fig7b_attention", text)

    # Shape checks: much larger speedups than end-to-end, same platform ordering
    # as the paper (CPU >> edge GPU >> GPU server, FPGA baseline in between).
    end_to_end = run_experiment("fig7a").geomean_speedups()
    assert geomeans["cpu"] > end_to_end["cpu"]
    assert geomeans["cpu"] > geomeans["jetson_tx2"] > geomeans["rtx6000"]
    assert geomeans["fpga_baseline"] > geomeans["rtx6000"]
