"""Tests for the per-figure/table experiment harnesses (fast configurations)."""

from __future__ import annotations

import pytest

from repro.evaluation.fig6_accuracy import reduced_config
from repro.evaluation.report import format_key_values, format_table
from repro.experiments import run_experiment
from repro.transformer.configs import BERT_BASE, BERT_LARGE


class TestFig1:
    def test_time_mode_attention_share_matches_paper_claim(self):
        result = run_experiment("fig1")
        # "around 60% of the time is spent in the self-attention workflow"
        assert 50.0 <= result.attention_share_percent <= 70.0

    def test_flops_mode_differs_from_time_mode(self):
        time_share = run_experiment("fig1", {"mode": "time"}).attention_share_percent
        flops_share = run_experiment("fig1", {"mode": "flops"}).attention_share_percent
        assert flops_share < time_share

    def test_shares_sum_to_100(self):
        result = run_experiment("fig1")
        assert sum(row.share_percent for row in result.rows) == pytest.approx(100.0)

    def test_all_eight_legend_entries_present(self):
        assert len(run_experiment("fig1").rows) == 8

    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError):
            run_experiment("fig1", {"mode": "latency"})

    def test_attention_share_grows_with_sequence_length(self):
        short = run_experiment("fig1", {"sequence_length": 64}).attention_share_percent
        long = run_experiment("fig1", {"sequence_length": 512}).attention_share_percent
        assert long > short


class TestTable1:
    def test_model_rows_cover_all_four_models(self):
        result = run_experiment("table1", {"num_sampled_sequences": 500})
        assert {row["model"] for row in result.model_rows} == {
            "DistilBERT",
            "BERT-base",
            "RoBERTa",
            "BERT-large",
        }

    def test_sampled_statistics_close_to_paper(self):
        result = run_experiment("table1", {"num_sampled_sequences": 2000})
        for row in result.dataset_rows:
            assert row["avg_sampled"] == pytest.approx(row["avg_paper"], rel=0.15)
            assert row["max_sampled"] == row["max_paper"]


class TestFig5:
    @pytest.fixture(scope="class")
    def fig5(self):
        return run_experiment("fig5")

    def test_uses_the_paper_batch(self, fig5):
        assert fig5.lengths == [140, 100, 82, 78, 72]

    def test_length_aware_has_near_full_utilization(self, fig5):
        assert fig5.length_aware.average_utilization > 0.95

    def test_saved_latency_is_positive(self, fig5):
        assert fig5.saved_cycles_vs_sequential > 0
        assert fig5.saved_cycles_vs_padded > 0

    def test_speedups_reported(self, fig5):
        assert fig5.speedup_vs_sequential > 1.5
        assert fig5.speedup_vs_padded > 1.2

    def test_summary_rows(self, fig5):
        rows = fig5.as_rows()
        assert [row["scheduler"] for row in rows] == ["length-aware", "padded", "sequential"]


class TestFig6:
    @pytest.fixture(scope="class")
    def fig6(self):
        # A two-pair, small-corpus configuration keeps the test fast while
        # exercising the full sweep machinery.
        return run_experiment(
            "fig6",
            {
                "pairs": ("distilbert:mrpc", "distilbert:squad"),
                "top_k_values": (50, 30, 10),
                "examples": 4,
                "max_length": 64,
            },
        )

    def test_baseline_scores_100_by_construction(self, fig6):
        assert all(pair.baseline_score == pytest.approx(100.0) for pair in fig6.pairs)

    def test_all_requested_k_values_present(self, fig6):
        for pair in fig6.pairs:
            assert set(pair.scores_by_k) == {50, 30, 10}

    def test_drops_are_monotone_in_k(self, fig6):
        for pair in fig6.pairs:
            assert pair.drop(10) >= pair.drop(30) - 1e-9
            assert pair.drop(30) >= pair.drop(50) - 1e-9

    def test_aggregates(self, fig6):
        assert fig6.average_drop(10) >= fig6.average_drop(50)
        assert fig6.max_drop(10) >= 0.0

    def test_row_serialization(self, fig6):
        rows = fig6.as_rows()
        assert len(rows) == 2
        assert "top30" in rows[0]

    def test_reduced_config_preserves_family_ordering(self):
        base = reduced_config(BERT_BASE)
        large = reduced_config(BERT_LARGE)
        assert large.num_layers > base.num_layers
        assert large.hidden_dim > base.hidden_dim
        assert base.hidden_dim % base.num_heads == 0


class TestFig7AndTable2:
    @pytest.fixture(scope="class")
    def fig7(self):
        return run_experiment("fig7a", {"batch_size": 8})

    @pytest.fixture(scope="class")
    def table2(self):
        return run_experiment("table2", {"batch_size": 8})

    def test_proposed_wins_against_every_platform_geomean(self, fig7):
        for speedup in fig7.geomean_speedups().values():
            assert speedup > 1.0

    def test_platform_ordering_matches_paper(self, fig7):
        geomeans = fig7.geomean_speedups()
        assert geomeans["cpu"] > geomeans["jetson_tx2"] > geomeans["rtx6000"]

    def test_geomeans_within_2x_of_paper(self, fig7):
        geomeans = fig7.geomean_speedups()
        for key, paper_value in fig7.paper_geomeans().items():
            assert paper_value / 2.5 <= geomeans[key] <= paper_value * 2.5

    def test_attention_panel_speedups_exceed_end_to_end(self, fig7):
        attention = run_experiment("fig7b", {"batch_size": 8})
        assert attention.geomean_speedups()["cpu"] > fig7.geomean_speedups()["cpu"]

    def test_table2_ours_beats_gpu_energy_efficiency_by_4x(self, table2):
        ours = table2.row("Ours FPGA")
        gpu = table2.row("GPU RTX 6000")
        assert ours.energy_efficiency_gopj > 4 * gpu.energy_efficiency_gopj

    def test_table2_contains_six_rows(self, table2):
        assert len(table2.rows) == 6
        assert table2.paper_rows()["Ours FPGA"]["throughput_gops"] == 3600.0

    def test_table2_unknown_row_lookup_raises(self, table2):
        with pytest.raises(KeyError):
            table2.row("TPU v4")


class TestReportRendering:
    def test_format_table_alignment_and_content(self):
        text = format_table([{"a": 1, "b": "x"}, {"a": 22, "b": None}], title="T")
        assert text.startswith("T\n")
        assert "22" in text
        assert text.count("\n") >= 4

    def test_format_table_empty(self):
        assert "(empty)" in format_table([], title="nothing")

    def test_format_key_values(self):
        text = format_key_values({"speedup": 2.5999, "platform": "cpu"}, title="geo")
        assert "geo" in text
        assert "2.6" in text
        assert "cpu" in text
