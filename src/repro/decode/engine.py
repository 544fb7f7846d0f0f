"""Iteration-level continuous batching for autoregressive decode workloads.

:func:`simulate_decode_online` generalizes the encoder engine
(:func:`~repro.serving.engine.simulate_online`) to two-phase requests.  It
runs the encoder engine's own event loop over the shared
:class:`~repro.serving.core.DispatchCore`; all it brings is
:class:`DecodePhase`, the core's per-run phase for two-phase requests:

* **Prefill** *is* an encoder batch -- batch policy, router, per-device
  admission limits, the device's own ``execute`` cost model, batch records
  and device accounting -- and produces the request's first token
  (TTFT = prefill completion).  The phase only admits it against the KV
  cache and decides where its requests land.
* **Decode** then generates the remaining ``output_len - 1`` tokens one
  iteration at a time: every step costs
  :meth:`~repro.devices.Device.decode_step_latency_seconds` over the running
  batch's context lengths (KV bytes read per step), and requests *join the
  running batch at any step boundary* after their prefill finishes and leave
  the instant they complete -- vLLM/Orca-style iteration-level continuous
  batching.  ``iteration_level=False`` degrades to the classic request-level
  (gang) baseline: a batch decodes to full completion before anyone joins,
  early finishers hold their KV and slots until the gang drains.

**KV-cache capacity is a first-class device resource**: a device built with
``kv_cache_bytes`` admits prefills token-by-token against its cache
occupancy -- each request reserves ``(length + output_len) *
kv_bytes_per_token()`` for its prompt and every token it will generate, and
releases it on completion (gang end in request-level mode).  A batch that
does not fit waits for releases; a request that could never fit an empty
cache raises immediately.

With every ``output_len == 1`` there is no decode step, no joiner, and no
KV event: the loop's trajectory is the encoder engine's, record for record
-- the property tests pin this reduction down on the whole report payload.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .. import config as global_config
from ..devices import BatchExecution, Device
from ..hardware.accelerator import Accelerator
from ..transformer.configs import DatasetConfig
from ..serving.arrivals import ArrivalProcess
from ..serving.core import _EPS, DispatchCore, EncoderPhase, prepare_components
from ..serving.engine import (
    OnlineServingReport,
    _device_summaries,
    _fleet_scheduler_label,
    _prepare_fleet,
    _run_event_loop,
)
from ..serving.policies import BatchPolicy
from ..serving.request import Request
from ..serving.routing import Router
from ..serving.slo import SLOSpec, assign_deadlines
from .output_lengths import (
    OutputLengthDistribution,
    as_decode_requests,
    generate_decode_requests,
    get_output_lengths,
)
from .request import DecodeRequest, DecodeRequestRecord

__all__ = ["DecodePhase", "DecodeServingReport", "simulate_decode_online"]


@dataclass
class _RunningRequest:
    """One request past prefill, decoding on (or waiting to join) a device."""

    request: DecodeRequest
    dispatch_time: float
    start_time: float
    batch_id: int
    #: When prefill finishes: the first token, and the earliest join instant.
    ready_time: float
    #: Tokens produced so far (prefill produces the first).
    generated: int = 1

    @property
    def context_length(self) -> int:
        """KV rows the next decode step attends over (prompt + generated)."""
        return self.request.length + self.generated

    @property
    def done(self) -> bool:
        return self.generated >= self.request.output_len

    def record(self, device_index: int, completion_time: float) -> DecodeRequestRecord:
        return DecodeRequestRecord(
            request=self.request,
            dispatch_time=self.dispatch_time,
            start_time=self.start_time,
            completion_time=completion_time,
            device_index=device_index,
            batch_id=self.batch_id,
            first_token_time=self.ready_time,
        )


@dataclass
class _DeviceDecodeState:
    """Per-device decode bookkeeping the engine loop drives."""

    running: list[_RunningRequest] = field(default_factory=list)
    joiners: list[_RunningRequest] = field(default_factory=list)
    #: Request-level (gang) mode: finished members whose KV stays reserved
    #: until the whole gang drains.
    gang_done: list[_RunningRequest] = field(default_factory=list)
    #: In-flight decode step (at most one per device).
    step_end: float | None = None
    step_members: list[_RunningRequest] = field(default_factory=list)
    #: KV-cache occupancy in reserved bytes, and its high-water mark.
    reserved_bytes: int = 0
    kv_peak_bytes: int = 0
    #: Pending releases for requests that complete at prefill
    #: (``output_len == 1``): (release_time, bytes) min-heap.
    release_heap: list[tuple[float, int]] = field(default_factory=list)
    num_steps: int = 0
    decode_tokens: int = 0


@dataclass
class DecodeServingReport(OnlineServingReport):
    """Results of one decode serving simulation.

    Extends the encoder report with the decode phase's metrics: TTFT and
    inter-token latency percentiles, token goodput, per-device decode-step
    and KV-occupancy accounting, and the admission mode that produced them.
    """

    iteration_level: bool = True
    output_lengths: str | None = None
    #: Prefill dispatches deferred or split because KV reservations did not
    #: fit the selected device's cache at that instant.
    num_kv_stalls: int = 0
    #: Per-device decode accounting: steps, generated tokens, KV peak/cap.
    decode_devices: list[dict] = field(default_factory=list)

    # ------------------------------------------------------------------
    # Token accounting
    # ------------------------------------------------------------------

    @property
    def total_output_tokens(self) -> int:
        """Tokens generated across all completed requests."""
        return int(sum(getattr(r, "num_output_tokens", 1) for r in self.records))

    @property
    def sustained_tokens_per_second(self) -> float:
        """Generated tokens per second of simulated time (token goodput)."""
        if self.makespan_seconds <= 0:
            return 0.0
        return self.total_output_tokens / self.makespan_seconds

    # ------------------------------------------------------------------
    # TTFT / inter-token latency
    # ------------------------------------------------------------------

    def ttft_percentile(self, percentile: float) -> float:
        """Time-to-first-token percentile in seconds."""
        if not self.records:
            raise ValueError("no requests were served")
        return float(np.percentile(self._metric_array("ttft"), percentile))

    def _inter_token_values(self, warmup_fraction: float = 0.0) -> np.ndarray:
        records = self.steady_records(warmup_fraction)
        return np.array(
            [
                r.inter_token_latency
                for r in records
                if getattr(r, "inter_token_latency", None) is not None
            ],
            dtype=np.float64,
        )

    def inter_token_percentile(self, percentile: float) -> float | None:
        """Per-token decode latency percentile in seconds (None when the
        stream generated no tokens past prefill)."""
        values = self._inter_token_values()
        if values.size == 0:
            return None
        return float(np.percentile(values, percentile))

    def steady_ttft_percentile(
        self, percentile: float, warmup_fraction: float = 0.0
    ) -> float:
        """TTFT percentile over the post-warm-up records."""
        values = np.array(
            [r.ttft for r in self.steady_records(warmup_fraction)], dtype=np.float64
        )
        if values.size == 0:
            raise ValueError("no requests were served")
        return float(np.percentile(values, percentile))

    @property
    def num_decode_steps(self) -> int:
        """Decode iterations executed across the fleet."""
        return int(sum(d["num_decode_steps"] for d in self.decode_devices))

    def to_dict(self) -> dict:
        payload = super().to_dict()
        itl_p50 = self.inter_token_percentile(50)
        itl_p95 = self.inter_token_percentile(95)
        payload.update(
            {
                "iteration_level": self.iteration_level,
                "output_lengths": self.output_lengths,
                "num_kv_stalls": self.num_kv_stalls,
                "num_decode_steps": self.num_decode_steps,
                "total_output_tokens": self.total_output_tokens,
                "sustained_tokens_per_second": self.sustained_tokens_per_second,
                "ttft_ms": {
                    "p50": self.ttft_percentile(50) * 1e3,
                    "p95": self.ttft_percentile(95) * 1e3,
                },
                "inter_token_ms": {
                    "p50": itl_p50 * 1e3 if itl_p50 is not None else None,
                    "p95": itl_p95 * 1e3 if itl_p95 is not None else None,
                },
                "decode_devices": list(self.decode_devices),
            }
        )
        return payload

    def as_row(self) -> dict:
        row = super().as_row()
        row["mode"] = "iteration" if self.iteration_level else "request"
        row["ttft_p50_ms"] = round(self.ttft_percentile(50) * 1e3, 2)
        itl = self.inter_token_percentile(50)
        row["itl_p50_ms"] = round(itl * 1e3, 3) if itl is not None else None
        row["tok_per_s"] = round(self.sustained_tokens_per_second, 1)
        return row


class DecodePhase(EncoderPhase):
    """The two-phase (prefill/decode) phase of the shared event loop.

    Prefill is an ordinary batch of the dispatch core: this phase only adds
    KV admission to it and decides where its requests land -- a finished
    :class:`DecodeRequestRecord` for ``output_len == 1``, otherwise a joiner
    waiting for its device's next decode step.  Around each pump it retires
    due KV releases and decode steps and starts new steps; the steps'
    bookkeeping is the only state it owns.
    """

    def __init__(
        self, fleet: list[Device], report: DecodeServingReport, iteration_level: bool
    ) -> None:
        self.fleet = fleet
        self.report = report
        self.iteration_level = iteration_level
        self.states = [_DeviceDecodeState() for _ in fleet]

    def _drain_kv_releases(self, index: int, now: float) -> None:
        state = self.states[index]
        while state.release_heap and state.release_heap[0][0] <= now + _EPS:
            _, nbytes = heapq.heappop(state.release_heap)
            state.reserved_bytes -= nbytes

    def admit(self, index: int, batch: list[DecodeRequest], now: float) -> int:
        """Requests to dispatch now: all-or-nothing up to a capacity chunk.

        The target prefix is the longest that fits an *empty* cache (a
        whole formed batch can exceed total capacity); it dispatches only
        once the cache has room for all of it at once.  Admitting eagerly
        whenever a single slot frees would fragment prefill into tiny
        batches, which a weight-streaming accelerator pays for dearly --
        deferring (return 0) keeps prefill batches capacity-sized.
        """
        device = self.fleet[index]
        if device.kv_cache_bytes is None:
            return len(batch)
        per_token = device.kv_bytes_per_token()
        self._drain_kv_releases(index, now)
        free = device.kv_cache_bytes - self.states[index].reserved_bytes
        target = need_total = 0
        for request in batch:
            need = request.total_tokens * per_token
            if need > device.kv_cache_bytes:
                raise ValueError(
                    f"request {request.request_id} needs {need} KV bytes "
                    f"({request.length}+{request.output_len} tokens) but device "
                    f"'{device.name}' caps its cache at {device.kv_cache_bytes}; "
                    "raise kv_cache_bytes or bound the output-length distribution"
                )
            if need_total + need > device.kv_cache_bytes:
                break
            need_total += need
            target += 1
        if need_total > free:
            # The capacity-sized chunk does not fit yet: the whole batch
            # waits at the queue head for a KV release.
            self.report.num_kv_stalls += 1
            return 0
        if target < len(batch):
            self.report.num_kv_stalls += 1
        return target

    def land(self, report, planned) -> None:
        """Reserve each prefilled request's KV: its prompt plus every token
        it will generate (conservative by exactly the final token, whose KV
        is written but never read).  A request whose only token came from
        prefill completes now, as an encoder request would, and its KV frees
        at completion; the rest wait to join a decode step."""
        index = planned.device_index
        device = self.fleet[index]
        state = self.states[index]
        per_token = device.kv_bytes_per_token()
        for position, request in enumerate(planned.requests):
            member = _RunningRequest(
                request=request,
                dispatch_time=planned.dispatch_time,
                start_time=planned.start_time,
                batch_id=planned.batch_id,
                ready_time=planned.start_time + planned.execution.completion_offsets[position],
            )
            if device.kv_cache_bytes is not None:
                state.reserved_bytes += request.total_tokens * per_token
                state.kv_peak_bytes = max(state.kv_peak_bytes, state.reserved_bytes)
            if not member.done:
                state.joiners.append(member)
                continue
            report.records.append(member.record(index, member.ready_time))
            if device.kv_cache_bytes is not None:
                heapq.heappush(
                    state.release_heap, (member.ready_time, request.total_tokens * per_token)
                )

    def before_pump(self, now: float) -> None:
        """Free due KV releases and retire decode steps that have ended."""
        for index, state in enumerate(self.states):
            if self.fleet[index].kv_cache_bytes is not None:
                self._drain_kv_releases(index, now)
            if state.step_end is not None and state.step_end <= now + _EPS:
                self._finish_step(index, state.step_end)

    def _finish_step(self, index: int, step_end: float) -> None:
        state = self.states[index]
        device = self.fleet[index]
        per_token = device.kv_bytes_per_token()
        still_running: list[_RunningRequest] = []
        for member in state.step_members:
            member.generated += 1
            state.decode_tokens += 1
            if not member.done:
                still_running.append(member)
                continue
            self.report.records.append(member.record(index, step_end))
            if device.kv_cache_bytes is None:
                continue
            if self.iteration_level:
                state.reserved_bytes -= member.request.total_tokens * per_token
            else:
                state.gang_done.append(member)
        state.running = still_running
        state.step_members = []
        state.step_end = None
        if not self.iteration_level and not state.running and state.gang_done:
            # Request-level batching: the gang's KV (only ever held on a
            # capped cache) frees once every member has finished.
            for member in state.gang_done:
                state.reserved_bytes -= member.request.total_tokens * per_token
            state.gang_done = []

    def after_pump(self, now: float) -> None:
        """Start a decode step on every idle device with requests to run."""
        for index, state in enumerate(self.states):
            if state.step_end is None:
                self._start_step(index, state, now)

    def _start_step(self, index: int, state: _DeviceDecodeState, now: float) -> None:
        device = self.fleet[index]
        # Join: iteration-level admits at any step boundary; request-level
        # only into an empty (fully drained) batch.
        if state.joiners and (self.iteration_level or not state.running):
            ready = [j for j in state.joiners if j.ready_time <= now + _EPS]
            if ready:
                ready.sort(key=lambda j: (j.ready_time, j.request.request_id))
                slots = (
                    len(ready)
                    if device.max_batch_size is None
                    else max(device.max_batch_size - len(state.running), 0)
                )
                joining = ready[:slots]
                if joining:
                    joined = {id(j) for j in joining}
                    state.joiners = [j for j in state.joiners if id(j) not in joined]
                    state.running.extend(joining)
        if not state.running:
            return
        contexts = [member.context_length for member in state.running]
        latency = device.decode_step_latency_seconds(contexts)
        start = device.next_start(now)
        execution = BatchExecution(
            device=device.name,
            lengths=contexts,
            latency_seconds=latency,
            completion_offsets=[latency] * len(contexts),
            admit_seconds=latency,
        )
        device.dispatch(execution, start)
        state.step_members = list(state.running)
        state.step_end = start + latency
        state.num_steps += 1

    def next_event_time(self) -> float:
        next_event = math.inf
        for state in self.states:
            if state.step_end is not None:
                next_event = min(next_event, state.step_end)
            elif state.joiners:
                next_event = min(next_event, min(j.ready_time for j in state.joiners))
            if state.release_heap:
                next_event = min(next_event, state.release_heap[0][0])
        return next_event

    def has_work(self) -> bool:
        return any(s.running or s.joiners or s.step_end is not None for s in self.states)

    def finish(self, report) -> list[bool]:
        """Land the per-device decode accounting; a device that only ran
        decode steps still did work (and is charged energy for it)."""
        for index, device in enumerate(self.fleet):
            state = self.states[index]
            report.decode_devices.append(
                {
                    "device": index,
                    "num_decode_steps": state.num_steps,
                    "decode_tokens": state.decode_tokens,
                    "kv_cache_bytes": device.kv_cache_bytes,
                    "kv_peak_bytes": (
                        state.kv_peak_bytes if device.kv_cache_bytes is not None else None
                    ),
                }
            )
        return [
            report.devices[i].num_batches > 0 or state.num_steps > 0
            for i, state in enumerate(self.states)
        ]


def simulate_decode_online(
    devices: Accelerator | Device | Sequence[Accelerator | Device],
    dataset: DatasetConfig | str,
    arrivals: ArrivalProcess | Sequence[Request],
    num_requests: int | None = None,
    output_lengths: OutputLengthDistribution | str | int = "geometric",
    batch_policy: BatchPolicy | None = None,
    router: Router | None = None,
    scheduler=None,
    seed: int = global_config.DEFAULT_SEED,
    continuous_batching: bool = False,
    max_queue_depth: int | None = None,
    slo: SLOSpec | None = None,
    iteration_level: bool = True,
    shed_on_predicted_miss: bool = False,
    class_queue_limits: dict[str, int] | None = None,
) -> DecodeServingReport:
    """Run the two-phase (prefill/decode) serving simulation.

    Parameters mirror :func:`~repro.serving.engine.simulate_online`; the
    decode-specific ones:

    output_lengths:
        How many tokens each generated request produces: a registered
        ``output-length`` distribution name (``"fixed"``, ``"uniform"``,
        ``"geometric"``), a distribution instance, or an int shorthand for a
        fixed length.  Ignored when ``arrivals`` is an explicit request list
        (those carry their own ``output_len``; plain requests mean 1).
    iteration_level:
        ``True`` (default): requests join the running batch at any decode
        step after prefill and leave on completion.  ``False``: request-level
        (gang) admission -- the running batch decodes to full completion
        before anyone joins, and early finishers hold KV and slots until the
        gang drains.  The default strictly dominates at saturation; the knob
        exists to measure by how much.

    Every device must carry a decode cost model
    (:meth:`~repro.devices.Device.supports_decode`); devices built with
    ``kv_cache_bytes`` enforce token-level KV admission as described in the
    module docstring.
    """
    dataset, fleet = _prepare_fleet(devices, dataset, scheduler, max_queue_depth)
    for device in fleet:
        if not device.supports_decode():
            raise ValueError(
                f"device '{device.name}' ({device.backend}) has no decode cost "
                "model (kv_bytes_per_token / kv_read_bandwidth); it cannot "
                "serve decoder workloads"
            )

    if isinstance(arrivals, ArrivalProcess):
        distribution = get_output_lengths(output_lengths)
        requests = generate_decode_requests(
            dataset, arrivals, num_requests, distribution, seed
        )
        arrival_name = arrivals.name
        offered_qps = arrivals.rate_qps
        output_label = distribution.name
    else:
        requests = as_decode_requests(
            sorted(arrivals, key=lambda r: (r.arrival_time, r.request_id))
        )
        arrival_name = "explicit"
        last = requests[-1].arrival_time if requests else 0.0
        offered_qps = len(requests) / last if last > 0 else None
        output_label = "explicit"
    if not requests:
        raise ValueError("the arrival stream is empty")
    if slo is not None:
        requests = assign_deadlines(requests, slo)

    batch_policy, router = prepare_components(batch_policy, router, fleet, dataset)

    for device in fleet:
        device.reset(continuous_batching=continuous_batching)

    report = DecodeServingReport(
        dataset=dataset.name,
        arrival_process=arrival_name,
        batch_policy=batch_policy.name,
        router=router.name,
        scheduler=_fleet_scheduler_label(fleet),
        offered_qps=offered_qps,
        num_requests=len(requests),
        continuous_batching=continuous_batching,
        queue_limit=max_queue_depth,
        slo=slo.to_dict() if slo is not None else None,
        iteration_level=iteration_level,
        output_lengths=output_label,
        devices=_device_summaries(fleet),
    )
    core = DispatchCore(
        fleet,
        report,
        batch_policy,
        router,
        max_queue_depth=max_queue_depth,
        shed_on_predicted_miss=shed_on_predicted_miss,
        class_queue_limits=class_queue_limits,
    )
    core.phase = DecodePhase(fleet, report, iteration_level)
    _run_event_loop(core, fleet, requests)
    return report
