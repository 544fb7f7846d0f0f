"""Tests for the top-level accelerator factories and their design properties."""

from __future__ import annotations

import dataclasses

import pytest

from repro.hardware.accelerator import (
    STAGE_NAMES,
    build_baseline_accelerator,
    build_sparse_accelerator,
)
from repro.hardware.resources import FpgaResources
from repro.transformer.configs import BERT_BASE, BERT_LARGE, DISTILBERT


@pytest.fixture(scope="module")
def sparse_accel():
    return build_sparse_accelerator(BERT_BASE, top_k=30, avg_seq=128, max_seq=512)


@pytest.fixture(scope="module")
def baseline_accel():
    return build_baseline_accelerator(BERT_BASE, avg_seq=128, max_seq=512)


class TestSparseAcceleratorDesign:
    def test_has_three_coarse_stages(self, sparse_accel):
        assert [stage.name for stage in sparse_accel.stages] == list(STAGE_NAMES)

    def test_fits_in_slr0(self, sparse_accel):
        assert sparse_accel.fits_capacity()

    def test_dsp_utilization_is_high(self, sparse_accel):
        # The design-space exploration should leave most of the DSP budget in use.
        assert sparse_accel.utilization()["dsp"] > 0.75

    def test_stage_latencies_balanced_at_design_point(self, sparse_accel):
        latencies = sparse_accel.stage_latencies(128)
        assert max(latencies) / min(latencies) < 1.6

    def test_latency_roughly_linear_in_sequence_length(self, sparse_accel):
        # The proposed design's operators are O(n); doubling the length should
        # roughly double the per-layer latency (within fill overheads and the
        # quadratic-but-cheap pre-selection term).
        short = sparse_accel.layer_latency_cycles(128)
        long = sparse_accel.layer_latency_cycles(256)
        assert 1.7 < long / short < 2.8

    def test_peak_ops_close_to_paper_value(self, sparse_accel):
        # 3000 DSP x 2 ops x 200 MHz = 1.2 TOPS attainable; the design uses
        # most of it.
        assert sparse_accel.peak_ops() > 0.8 * 1.2e12

    def test_stage_lookup(self, sparse_accel):
        assert sparse_accel.stage_by_name("At-Comp").name == "At-Comp"
        with pytest.raises(KeyError):
            sparse_accel.stage_by_name("missing")

    def test_sequence_latency_scales_with_model_depth(self):
        base = build_sparse_accelerator(BERT_BASE, avg_seq=128, max_seq=256)
        distil = build_sparse_accelerator(DISTILBERT, avg_seq=128, max_seq=256)
        assert base.sequence_latency_cycles(128) > 1.8 * distil.sequence_latency_cycles(128)

    def test_attention_only_variant_has_two_stages_and_no_ffn(self):
        accel = build_sparse_accelerator(
            BERT_BASE, avg_seq=128, max_seq=256, attention_core_only=True
        )
        assert len(accel.stages) == 2
        all_ops = [name for stage in accel.stages for name in stage.operator_names()]
        assert "ffn_linear1" not in all_ops
        assert "qkv_linear" not in all_ops


class TestBaselineAcceleratorDesign:
    def test_fits_in_slr0(self, baseline_accel):
        assert baseline_accel.fits_capacity()

    def test_has_dense_attention_operators(self, baseline_accel):
        all_ops = [name for stage in baseline_accel.stages for name in stage.operator_names()]
        assert "attention_scores" in all_ops
        assert "approx_scores" not in all_ops

    def test_baseline_slower_than_sparse_at_long_lengths(self, sparse_accel, baseline_accel):
        # At the padded SQuAD length the dense baseline's quadratic attention
        # dominates; the sparse design is faster per layer.
        assert baseline_accel.layer_latency_cycles(512) > sparse_accel.layer_latency_cycles(512)

    def test_bert_large_design_also_fits(self):
        accel = build_sparse_accelerator(BERT_LARGE, avg_seq=177, max_seq=821)
        assert accel.fits_capacity()

    def test_attention_only_variant(self):
        accel = build_baseline_accelerator(
            BERT_BASE, avg_seq=128, max_seq=256, attention_core_only=True
        )
        all_ops = [name for stage in accel.stages for name in stage.operator_names()]
        assert set(all_ops) == {"attention_scores", "scale_mask", "softmax", "attention_context"}


def _fresh_sum(stages) -> FpgaResources:
    total = FpgaResources()
    for stage in stages:
        total = total + stage.total_resources()
    return total


class TestResourceMemo:
    def test_resources_equal_a_fresh_sum_over_the_stages(self, sparse_accel, baseline_accel):
        for accel in (sparse_accel, baseline_accel):
            assert accel.resources() == _fresh_sum(accel.stages)
            assert accel.resources() == accel.resources()
            assert accel.peak_ops() == 2.0 * _fresh_sum(accel.stages).dsp * accel.clock_hz

    def test_replaced_stages_do_not_inherit_the_memo(self, sparse_accel):
        sparse_accel.resources()
        smaller = dataclasses.replace(sparse_accel, stages=sparse_accel.stages[:1])
        assert smaller.resources() == _fresh_sum(sparse_accel.stages[:1])
        assert smaller.resources() != sparse_accel.resources()
        assert sparse_accel.resources() == _fresh_sum(sparse_accel.stages)


class TestTopKValidation:
    @pytest.mark.parametrize("top_k", [0, -3])
    def test_non_positive_top_k_is_rejected(self, top_k):
        with pytest.raises(ValueError, match="top_k"):
            build_sparse_accelerator(BERT_BASE, top_k=top_k, avg_seq=128, max_seq=256)

    def test_top_k_of_one_builds(self):
        accel = build_sparse_accelerator(BERT_BASE, top_k=1, avg_seq=128, max_seq=256)
        assert accel.top_k == 1
