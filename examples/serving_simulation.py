"""Serving a synthetic request stream on the proposed accelerator.

Draws a few hundred requests from each dataset's Table 1 length distribution,
buckets them into batches of 16, serves them on the proposed design with the
length-aware scheduler and with the padding baseline, and reports aggregate
throughput plus the p50/p99 per-sequence latency -- the view a deployment
engineer would want before adopting the accelerator.

Run with:  python examples/serving_simulation.py
"""

from __future__ import annotations

from repro.evaluation.report import format_table
from repro.hardware import build_sparse_accelerator
from repro.scheduling import PaddedScheduler
from repro.serving import simulate_serving
from repro.transformer import BERT_BASE, DATASET_ZOO


def main() -> None:
    rows = []
    for dataset in DATASET_ZOO.values():
        accelerator = build_sparse_accelerator(
            BERT_BASE, top_k=30, avg_seq=dataset.avg_length, max_seq=dataset.max_length
        )
        for label, scheduler in (("length-aware (ours)", None), ("padded baseline", PaddedScheduler())):
            report = simulate_serving(
                accelerator, dataset, num_requests=192, batch_size=16, scheduler=scheduler
            )
            row = report.as_row()
            row["scheduler"] = label
            rows.append(row)

    print(
        format_table(
            rows,
            title="Serving 192 synthetic requests per dataset on the proposed FPGA design (BERT-base)",
        )
    )
    print(
        "The length-aware scheduler sustains the same hardware at a higher request rate and\n"
        "lower tail latency because no cycle is spent on padding tokens and the coarse\n"
        "pipeline never drains between sequences."
    )


if __name__ == "__main__":
    main()
