"""Cross-platform throughput and energy comparison (Fig. 7 + Table 2).

Evaluates the four paper workloads (BERT-base on SQuAD/RTE/MRPC, BERT-large
on SQuAD, batch 16) on the CPU / edge-GPU / server-GPU analytical models, the
FPGA baseline and the proposed length-aware sparse-attention FPGA design,
then prints the speedup matrix, the geometric means next to the paper's
reported values, and the Table 2 energy-efficiency rows.

Run with:  python examples/cross_platform_throughput.py
"""

from __future__ import annotations

from repro.evaluation.report import format_table
from repro.experiments import run_experiment


def main() -> None:
    # Table 2 is computed from a Fig. 7(a) run, which it keeps.
    table2 = run_experiment("table2")
    end_to_end = table2.fig7
    attention = run_experiment("fig7b")

    print(format_table(end_to_end.as_rows(), title="Fig. 7(a) - end-to-end speedups of the proposed design"))
    print(
        format_table(
            [
                {
                    "platform": key,
                    "measured geomean": round(value, 1),
                    "paper geomean": end_to_end.paper_geomeans()[key],
                }
                for key, value in end_to_end.geomean_speedups().items()
            ],
            title="Fig. 7(a) geometric means",
        )
    )
    print(format_table(attention.as_rows(), title="Fig. 7(b) - attention-core speedups of the proposed design"))
    print(
        format_table(
            [
                {
                    "platform": key,
                    "measured geomean": round(value, 1),
                    "paper geomean": attention.paper_geomeans()[key],
                }
                for key, value in attention.geomean_speedups().items()
            ],
            title="Fig. 7(b) geometric means",
        )
    )

    print(format_table(table2.as_rows(), title="Table 2 - throughput & energy efficiency"))


if __name__ == "__main__":
    main()
