"""Pinned serving payloads: the experiments' JSON must not drift across commits.

Each scenario runs one registered experiment through
:func:`repro.experiments.run_report` and hashes its whole payload (config
echo plus result, ``json.dumps(sort_keys=True)``), then compares the digest
with one checked in here.  The seed-determinism matrix compares two runs of
the *same* code; this test compares today's code against the payloads the
experiments produced when they were recorded, so a refactor of how a config
reaches the engine (fleet, policy, router, faults, classes, SLO, remedies,
autoscaler) that changes any reported number fails here.

After an intended behaviour change, re-record a scenario by pasting the
digest its failure message reports.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.devices.schedule_cache import GLOBAL_SCHEDULE_CACHE
from repro.experiments import run_report

#: Crash-restart chaos on a small analytical fleet with every remedy on.
_CHAOS = {
    "dataset": "mrpc",
    "requests": 48,
    "devices": ("gpu-rtx6000",),
    "num_accelerators": 3,
    "routing": "cost-model",
    "slo_ms": 80.0,
    "faults": "crash-restart",
    "fault_mtbf_s": 0.05,
    "fault_downtime_s": 0.02,
    "hedging": True,
    "max_retries": 2,
    "blacklist_ms": 20.0,
}

#: Paired routers, an SLO, a fault axis and a class axis on one sweep.
_SWEEP = {
    "datasets": ("mrpc",),
    "load_fractions": (0.5, 1.1),
    "batch_policies": ("timeout", "deadline"),
    "routers": ("least-loaded", "cost-model"),
    "requests": 32,
    "batch_size": 8,
    "devices": ("sparse-fpga", "gpu-rtx6000"),
    "slo_ms": 80.0,
    "faults": ("none", "crash-restart"),
    "fault_mtbf_s": 0.3,
    "classes": ("none", "interactive:0.5,best-effort:0.5"),
    "hedging": True,
    "max_retries": 1,
    "blacklist_ms": 50.0,
}

SCENARIOS = {
    "serve-online-chaos": (
        "serve",
        {
            **_CHAOS,
            "qps": 400.0,
            "batch_policy": "priority-deadline",
            "classes": "interactive:0.5,best-effort:0.5",
            "class_queue_limits": "best-effort:4",
            "device_max_batch_size": 3,
            "device_max_batch_tokens": 200,
        },
    ),
    "serve-online-autoscale": (
        "serve",
        {
            "dataset": "mrpc",
            "qps": 400.0,
            "requests": 64,
            "devices": ("gpu-rtx6000",),
            "num_accelerators": 3,
            "slo_ms": 100.0,
            "autoscaler": "queue-depth",
            "provisioning_lag_s": 0.05,
            "autoscale_interval_s": 0.02,
        },
    ),
    # The arrival gate judges against the initial pool while scale-ups,
    # crashes, blacklisting and hedges change the fleet behind it.
    "serve-online-autoscale-gate": (
        "serve",
        {
            "dataset": "mrpc",
            "qps": 300.0,
            "requests": 96,
            "devices": ("gpu-rtx6000",),
            "num_accelerators": 4,
            "min_devices": 2,
            "slo_ms": 80.0,
            "batch_policy": "deadline",
            "routing": "cost-model",
            "blacklist_ms": 20.0,
            "faults": "crash-restart",
            "fault_mtbf_s": 0.15,
            "fault_downtime_s": 0.02,
            "hedging": True,
            "shed_on_predicted_miss": True,
            "autoscaler": "predicted-attainment",
            "provisioning_lag_s": 0.02,
            "autoscale_interval_s": 0.01,
        },
    ),
    "serve-sweep-axes": (
        "serve",
        {
            **_CHAOS,
            "requests": 32,
            "devices": ("sparse-fpga", "gpu-rtx6000"),
            "num_accelerators": 1,
            "fault_mtbf_s": 0.3,
            "classes": "interactive:0.5,best-effort:0.5",
        },
    ),
    "serving-sweep-jobs1": ("serving-sweep", {**_SWEEP, "jobs": 1}),
    "serving-sweep-jobs2": ("serving-sweep", {**_SWEEP, "jobs": 2}),
    "plan-compare-autoscaler": (
        "plan",
        {
            "devices": ("gpu-rtx6000", "cpu-xeon"),
            "max_per_type": 2,
            "max_total": 3,
            "arrival": "poisson",
            "qps": 150.0,
            "requests": 64,
            "slo_ms": 100.0,
            "attainment_target": 0.9,
            "compare_autoscaler": "queue-depth",
            "provisioning_lag_s": 0.05,
            "autoscale_interval_s": 0.02,
        },
    ),
}

#: Digests recorded from the experiments; see the module docstring to re-record.
EXPECTED = {
    "plan-compare-autoscaler": "dfda109096a26fa526d4c5e00fd040b07d5684796db47f66211a13ee1114e970",
    "serve-online-autoscale": "8edc44b933e87d7a7bba45e89c7cf8357b847a863ff2b5e380573dc9c6b421fe",
    "serve-online-autoscale-gate": "8a6f58780121a0f7935b42a4bfd432f5b624be84eb4763eeaaa9f6752cc67e18",
    "serve-online-chaos": "7367bce6a145da0aa14ab16ada07ce8cdcb6abbe581a7911113aa79a2db0b6ed",
    "serve-sweep-axes": "3c06ef6f0c64535e65768a1b6748b4dc642e5aca6fe03a028249d4a6e0330f3e",
    "serving-sweep-jobs1": "92797d50d0110140bdaeac8eb2a20c9991e69da64e76209c4ff8a1505127d523",
    "serving-sweep-jobs2": "8f03cd1b30aaa221a9672cce7d4bf1d7ceba79c8a149e3306a08d318c3f2a99a",
}


def payload_digest(name: str, config: dict) -> str:
    GLOBAL_SCHEDULE_CACHE.clear()
    payload = run_report(name, config).payload
    text = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_serving_payload_is_pinned(scenario):
    digest = payload_digest(*SCENARIOS[scenario])
    assert digest == EXPECTED[scenario], f"{scenario!r}: {digest!r}"
