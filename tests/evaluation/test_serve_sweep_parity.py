"""``serve`` without ``--qps`` is the ``serving-sweep`` of one dataset.

Sweep mode of ``serve`` builds a serving-sweep config from its own fields,
so the two commands must report the same sweep for the same knobs --
including the fault, remedy, class-mix and SLO knobs that used to be copied
by hand between them.
"""

from __future__ import annotations

from repro.experiments import run_experiment

_SHARED = {
    "requests": 32,
    "devices": ("gpu-rtx6000",),
    "num_accelerators": 2,
    "slo_ms": 80.0,
    "fault_mtbf_s": 0.3,
    "hedging": True,
    "max_retries": 1,
    "blacklist_ms": 50.0,
}


def test_serve_sweep_mode_equals_serving_sweep():
    served = run_experiment(
        "serve",
        {
            **_SHARED,
            "dataset": "mrpc",
            "routing": "cost-model",
            "faults": "crash-restart",
            "classes": "interactive:0.5,best-effort:0.5",
        },
    )
    swept = run_experiment(
        "serving-sweep",
        {
            **_SHARED,
            "datasets": ("mrpc",),
            "router": "cost-model",
            "faults": ("crash-restart",),
            "classes": ("interactive:0.5,best-effort:0.5",),
            # serve's own default: exact billing.
            "cache_length_bucket": None,
        },
    )
    assert served.mode == "sweep"
    assert served.sweep.to_dict() == swept.to_dict()
    assert swept.faults == ("crash-restart",)
    assert any(point.report.num_crashes for point in swept.points)
