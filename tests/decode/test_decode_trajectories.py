"""Pinned decode trajectories: the engine's output must not drift across commits.

Each scenario hashes every record's (request_id, dispatch, start, first
token, completion, device, batch_id) plus the admission and decode counters,
and compares the digest with one checked in here.  The seed-determinism
matrix compares two runs of the *same* code; this test compares today's
code against the trajectories the engine produced when they were recorded,
so a refactor of the dispatch path or the event loop that changes any
decode timing fails here even when every invariant still holds.

After an intended behaviour change, re-record a scenario by pasting the
digest its failure message reports.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.decode import GeometricOutputLength, simulate_decode_online
from repro.devices import build_device
from repro.devices.schedule_cache import GLOBAL_SCHEDULE_CACHE
from repro.serving.arrivals import PoissonArrivals
from repro.serving.classes import ClassMixArrivals
from repro.serving.policies import TimeoutBatcher
from repro.serving.slo import SLOSpec
from repro.transformer.configs import SQUAD_V11 as SQUAD, get_model_config

BERT = get_model_config("bert-base")


def _fleet(count: int, kv_mb: float | None = None, **knobs):
    if kv_mb is not None:
        knobs["kv_cache_bytes"] = int(kv_mb * 2**20)
    return [
        build_device("sparse-fpga", model=BERT, dataset=SQUAD, **knobs)
        for _ in range(count)
    ]


def _run(fleet, arrivals, num_requests, **kwargs):
    GLOBAL_SCHEDULE_CACHE.clear()
    return simulate_decode_online(
        fleet,
        SQUAD,
        arrivals,
        num_requests=num_requests,
        output_lengths=GeometricOutputLength(mean_output_len=16.0, max_output_len=64),
        seed=2022,
        **kwargs,
    )


SCENARIOS = {
    "iteration-kv-cap": lambda: _run(
        _fleet(2, kv_mb=24.0), PoissonArrivals(rate_qps=60.0), 90
    ),
    "gang": lambda: _run(
        _fleet(2, kv_mb=24.0),
        PoissonArrivals(rate_qps=60.0),
        90,
        iteration_level=False,
    ),
    "uncapped": lambda: _run(
        _fleet(1, max_batch_size=8), PoissonArrivals(rate_qps=40.0), 80
    ),
    "class-mix-queue-limits": lambda: _run(
        _fleet(2, kv_mb=32.0),
        ClassMixArrivals(
            base=PoissonArrivals(rate_qps=90.0), mix="interactive:0.5,best-effort:0.5"
        ),
        90,
        batch_policy=TimeoutBatcher(batch_size=8, timeout_s=0.01),
        class_queue_limits={"best-effort": 3},
        max_queue_depth=24,
    ),
    "slo-predicted-miss": lambda: _run(
        _fleet(2, kv_mb=24.0),
        PoissonArrivals(rate_qps=80.0),
        90,
        slo=SLOSpec(base_s=0.05, per_output_token_s=0.004),
        shed_on_predicted_miss=True,
    ),
}

#: Digests recorded from the engine; see the module docstring to re-record.
EXPECTED = {
    "class-mix-queue-limits": "2a04529192bb88341010e5b71e680c50dacef53a1d4e61970743236a405e9834",
    "gang": "12b7b6f51bb08094426bc6da191f8fce05da550f6afe18b766a55806e65c3a83",
    "iteration-kv-cap": "812fecb3bd49cfcaa927526d20ddce861a5a6854c6adfa92995e50319387123c",
    "slo-predicted-miss": "771c7691d87550d7e965f63f535f61fe8b2789d283b6c938473e2c5942870941",
    "uncapped": "30fef911e812c42aa79a865998619631189a7df087ba5ef4606e7642ffe8a4ab",
}


def trajectory_digest(report) -> str:
    records = [
        [
            r.request.request_id,
            repr(r.dispatch_time),
            repr(r.start_time),
            repr(r.first_token_time),
            repr(r.completion_time),
            r.device_index,
            r.batch_id,
        ]
        for r in report.records
    ]
    counters = {
        "num_kv_stalls": report.num_kv_stalls,
        "num_limit_splits": report.num_limit_splits,
        "num_shed": report.num_shed,
        "num_shed_late": report.num_shed_late,
        "num_shed_predicted": report.num_shed_predicted,
        "num_decode_steps": report.num_decode_steps,
    }
    text = json.dumps({"records": records, "counters": counters}, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_decode_trajectory_is_pinned(name):
    digest = trajectory_digest(SCENARIOS[name]())
    assert digest == EXPECTED[name], f"{name!r}: {digest!r}"
