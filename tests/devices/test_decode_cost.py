"""Closed-form oracle for the decode-step cost model, plus its validation.

One decode step of ``B`` running requests with contexts ``c_1..c_B`` costs

    kv_bytes_per_token * sum(min(c_i, k)) / bw
    + max(weight_bytes / bw, B * 2P / peak_ops)
    + step overhead

where ``k`` is the device's decode top-k (no cap when dense), ``P`` the
model's parameter count and ``peak_ops`` two ops per MAC per cycle over every
allocated DSP for the FPGA designs (``effective_gops`` for an analytical
platform).  Every term here is derived from the model, the stage hardware and
the platform, not from the device's own cost-model methods.
"""

from __future__ import annotations

import pytest

import repro.devices  # noqa: F401 - imports register the device catalog
from repro import config as global_config
from repro.devices import AnalyticalDevice, Device, build_device, build_fleet
from repro.platforms.devices import RTX_6000
from repro.transformer.configs import ModelConfig

_SMALL_MODEL = ModelConfig(name="dev-2L", num_layers=2, hidden_dim=768, num_heads=12)
_TOP_K = 30
_GPU_BANDWIDTH = 672e9

#: Contexts below, at and above the top-k cap; one weight-bound single
#: request and batches large enough to be MAC-bound.
CONTEXTS = [
    [12],
    [400],
    [5, 29, 30, 31, 400],
    [1, 64, 128, 256, 512, 17, 30, 31] * 2,
]


def _fpga_oracle(device, contexts: list[int], top_k: int | None) -> float:
    model = _SMALL_MODEL
    accelerator = device.accelerator
    per_token = 2 * model.num_layers * model.hidden_dim * global_config.KV_BYTES_PER_ELEMENT_FPGA
    bandwidth = device.hbm.peak_bandwidth * device.hbm.efficiency
    dsp = sum(stage.total_resources().dsp for stage in accelerator.stages)
    peak_ops = 2 * dsp * accelerator.clock_hz
    weight_bytes = model.num_parameters * global_config.MODEL_QUANT_BITS // 8
    return _oracle(contexts, top_k, per_token, bandwidth, weight_bytes, peak_ops)


def _gpu_oracle(contexts: list[int], top_k: int | None) -> float:
    model = _SMALL_MODEL
    per_token = (
        2 * model.num_layers * model.hidden_dim * global_config.KV_BYTES_PER_ELEMENT_ANALYTICAL
    )
    weight_bytes = model.num_parameters * global_config.KV_BYTES_PER_ELEMENT_ANALYTICAL
    peak_ops = RTX_6000.effective_gops * 1e9
    return _oracle(contexts, top_k, per_token, _GPU_BANDWIDTH, weight_bytes, peak_ops)


def _oracle(contexts, top_k, per_token, bandwidth, weight_bytes, peak_ops) -> float:
    kv_tokens = sum(c if top_k is None else min(c, top_k) for c in contexts)
    weight_seconds = weight_bytes / bandwidth
    mac_seconds = len(contexts) * 2 * _SMALL_MODEL.num_parameters / peak_ops
    compute = max(weight_seconds, mac_seconds)
    return per_token * kv_tokens / bandwidth + compute + global_config.DECODE_STEP_OVERHEAD_S


@pytest.fixture(scope="module")
def sparse_device():
    return build_device("sparse-fpga", model=_SMALL_MODEL, dataset="mrpc", top_k=_TOP_K)


@pytest.fixture(scope="module")
def baseline_device():
    return build_device("baseline-fpga", model=_SMALL_MODEL, dataset="mrpc")


def _gpu(decode_top_k: int | None = _TOP_K) -> AnalyticalDevice:
    return AnalyticalDevice(
        RTX_6000,
        model_config=_SMALL_MODEL,
        mem_bandwidth_bytes=_GPU_BANDWIDTH,
        decode_top_k=decode_top_k,
    )


class TestDecodeStepOracle:
    @pytest.mark.parametrize("contexts", CONTEXTS)
    def test_sparse_design_caps_kv_reads_at_its_top_k(self, sparse_device, contexts):
        assert sparse_device.decode_top_k == _TOP_K
        expected = _fpga_oracle(sparse_device, contexts, _TOP_K)
        actual = sparse_device.decode_step_latency_seconds(contexts)
        assert actual == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("contexts", CONTEXTS)
    def test_dense_baseline_reads_the_full_context(self, baseline_device, contexts):
        assert baseline_device.decode_top_k is None
        expected = _fpga_oracle(baseline_device, contexts, None)
        actual = baseline_device.decode_step_latency_seconds(contexts)
        assert actual == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("decode_top_k", [_TOP_K, None])
    @pytest.mark.parametrize("contexts", CONTEXTS)
    def test_analytical_gpu(self, contexts, decode_top_k):
        expected = _gpu_oracle(contexts, decode_top_k)
        actual = _gpu(decode_top_k).decode_step_latency_seconds(contexts)
        assert actual == pytest.approx(expected, rel=1e-12)

    def test_cases_cover_both_sides_of_the_compute_roofline(self, sparse_device):
        gpu = _gpu()
        for device in (sparse_device, gpu):
            floor = device.decode_compute_seconds(1)
            assert device.decode_compute_seconds(len(CONTEXTS[0])) == floor
            assert device.decode_compute_seconds(len(CONTEXTS[-1])) > floor


class TestDecodeStepValidation:
    def test_empty_batch_is_rejected(self, sparse_device):
        with pytest.raises(ValueError, match="at least one"):
            sparse_device.decode_step_latency_seconds([])

    @pytest.mark.parametrize("bad", [0, -4])
    def test_context_below_one_is_rejected(self, sparse_device, bad):
        with pytest.raises(ValueError, match=">= 1"):
            sparse_device.decode_step_latency_seconds([12, bad])
        with pytest.raises(ValueError, match=">= 1"):
            _gpu().decode_step_latency_seconds([bad])

    def test_device_without_a_decode_model_raises(self):
        with pytest.raises(NotImplementedError, match="no decode cost model"):
            Device().decode_step_latency_seconds([12])

    def test_decode_constants_survive_reset(self, sparse_device):
        contexts = CONTEXTS[2]
        before = (
            sparse_device.kv_bytes_per_token(),
            sparse_device.kv_read_bandwidth(),
            sparse_device.decode_compute_seconds(3),
            sparse_device.decode_step_latency_seconds(contexts),
        )
        sparse_device.reset(continuous_batching=True)
        sparse_device.reset()
        after = (
            sparse_device.kv_bytes_per_token(),
            sparse_device.kv_read_bandwidth(),
            sparse_device.decode_compute_seconds(3),
            sparse_device.decode_step_latency_seconds(contexts),
        )
        assert after == before


class TestTopKValidation:
    @pytest.mark.parametrize("top_k", [0, -3])
    def test_analytical_decode_top_k_must_be_positive(self, top_k):
        with pytest.raises(ValueError, match="decode_top_k"):
            _gpu(top_k)

    @pytest.mark.parametrize("top_k", [0, -3])
    def test_build_fleet_rejects_a_non_positive_top_k(self, top_k):
        with pytest.raises(ValueError, match="top_k"):
            build_fleet(["sparse-fpga"], dataset="mrpc", top_k=top_k)
