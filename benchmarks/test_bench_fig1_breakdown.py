"""Fig. 1(c): encoder operator time-consumption breakdown (BERT-base, 128 tokens)."""

from __future__ import annotations

from conftest import run_once

from repro.evaluation.report import format_key_values, format_table
from repro.experiments import run_experiment


def test_bench_fig1_breakdown(benchmark, write_report):
    result = run_once(benchmark, run_experiment, "fig1")

    text = format_table(result.as_rows(), title="Fig. 1(c) - encoder time breakdown (GPU time model)")
    text += "\n" + format_key_values(
        {
            "model": result.model,
            "sequence_length": result.sequence_length,
            "self-attention share (%)": round(result.attention_share_percent, 1),
            "paper claim": "~60% of encoder time in self-attention",
        }
    )
    flops = run_experiment("fig1", {"mode": "flops"})
    text += "\n" + format_table(
        flops.as_rows(), title="Same breakdown in raw FLOPs (drives the FPGA stage allocation)"
    )
    write_report("fig1_breakdown", text)

    assert 50.0 <= result.attention_share_percent <= 70.0
