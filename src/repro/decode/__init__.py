"""Autoregressive decoder workloads: prefill/decode split, KV-cache as a
device resource, iteration-level continuous batching.

The encoder serving stack (:mod:`repro.serving`) models single-shot
requests; this package extends it to generation:

* :class:`DecodeRequest` / :class:`DecodeRequestRecord` -- requests carrying
  a sampled ``output_len`` and records carrying TTFT / inter-token latency.
* :mod:`~repro.decode.output_lengths` -- registered ``output-length``
  distributions (``fixed``, ``uniform``, ``geometric``).
* :func:`simulate_decode_online` -- the two-phase engine, a phase
  (:class:`~repro.decode.engine.DecodePhase`) of the serving event loop:
  prefill as an ordinary batch, then iteration-level continuous batching over
  :meth:`~repro.devices.Device.decode_step_latency_seconds`, with
  token-level KV-cache admission on devices built with ``kv_cache_bytes``.
* The ``decode-sweep`` experiment (:mod:`~repro.decode.sweep`) -- TTFT /
  inter-token latency / SLO attainment versus offered load, iteration-level
  versus request-level admission, and top-k sparse attention as an
  accuracy-versus-KV-capacity operating point.
"""

from .engine import DecodeServingReport, simulate_decode_online
from .output_lengths import (
    FixedOutputLength,
    GeometricOutputLength,
    OutputLengthDistribution,
    UniformOutputLength,
    as_decode_requests,
    generate_decode_requests,
    get_output_lengths,
)
from .request import DecodeRequest, DecodeRequestRecord
from .sweep import (
    DecodeSweepConfig,
    DecodeSweepResult,
    decode_concurrency_limit,
    run_decode_sweep,
)

__all__ = [
    "DecodeSweepConfig",
    "DecodeSweepResult",
    "decode_concurrency_limit",
    "run_decode_sweep",
    "DecodeRequest",
    "DecodeRequestRecord",
    "DecodeServingReport",
    "FixedOutputLength",
    "GeometricOutputLength",
    "OutputLengthDistribution",
    "UniformOutputLength",
    "as_decode_requests",
    "generate_decode_requests",
    "get_output_lengths",
    "simulate_decode_online",
]
