"""The per-layer figures of one traced iteration."""

from __future__ import annotations

import numpy as np

from perfbench.checks import latency_parts
from perfbench.workloads import SparseAccuracy

__all__ = ["layer_metrics"]


def _ms_percentile(values: np.ndarray, q: float) -> float:
    return float(np.percentile(values, q) * 1e3) if values.size else 0.0


def layer_metrics(workload, outcome, totals, names) -> dict[str, float]:
    """Per-layer figures of one traced iteration: every one of ``names``,
    zero where the workload does not run the layer.

    Times come from the spans (``self_s`` excludes child spans); counts come
    from the spans or, where the program already counts, from the report.
    """
    calls, total, own = totals.calls, totals.total_s, totals.self_s
    m = dict.fromkeys(names, 0.0)
    m.update(
        {
            "arrivals.generate_s": total["arrivals.generate"],
            "formation.calls": calls["formation"],
            "formation.self_s": own["formation"],
            "routing.calls": calls["routing"],
            "routing.self_s": own["routing"],
            "devices.execute_calls": calls["devices.execute"],
            "devices.execute_s": total["devices.execute"],
            "devices.probe_calls": calls["devices.probe"],
            "devices.probe_s": total["devices.probe"],
            "scheduling.solves": calls["scheduling.solve"],
            "scheduling.solve_s": total["scheduling.solve"],
            "engine.self_s": own["engine"],
            "report.to_dict_s": total["report.to_dict"],
            "autoscaler.decisions": calls["autoscaler.decide"],
            "autoscaler.decide_s": total["autoscaler.decide"],
            "decode.step_cost_s": total["decode.step_cost"],
            "transformer.forward_calls": calls["transformer.forward"],
            "transformer.forward_self_s": own["transformer.forward"],
            "transformer.proxy_task_s": total["transformer.proxy_task"],
            "core.attention_s": total["core.attention"],
        }
    )
    if isinstance(workload, SparseAccuracy):
        counts = outcome.counts
        m["core.attention_calls"] = counts["attention_calls"]
        m["core.attention_macs"] = counts["attention_macs"]
        m["core.dense_macs"] = counts["dense_macs"]
        m["core.kept_key_ratio"] = counts["kept_keys"] / counts["all_keys"]
        m["accuracy_drop_pp"] = workload.accuracy_drop_pp(outcome)
        return m

    report = outcome.report
    parts = latency_parts(report)
    batch_sizes = [len(batch.request_ids) for batch in report.batches]
    cache = report.schedule_cache or {"hits": 0, "misses": 0, "hit_rate": 0.0}
    m.update(
        {
            "arrivals.requests": report.num_requests,
            "formation.batches": len(report.batches),
            "formation.mean_batch": float(np.mean(batch_sizes)),
            "formation.preemptions": report.num_preemptions or 0,
            "formation.shed_late": report.num_shed_late,
            "formation.wait_p50_ms": _ms_percentile(parts["formation"], 50),
            "formation.wait_p99_ms": _ms_percentile(parts["formation"], 99),
            "routing.limit_splits": report.num_limit_splits,
            "routing.backlog_wait_p99_ms": _ms_percentile(parts["backlog"], 99),
            "devices.cache_hits": cache["hits"],
            "devices.cache_misses": cache["misses"],
            "devices.cache_hit_ratio": cache["hit_rate"],
            "devices.service_p99_ms": _ms_percentile(parts["service"], 99),
            "devices.busy_frac": report.average_device_utilization,
            "report.records": len(report.records),
            "autoscaler.scale_events": max(len(report.scaling_timeline) - 1, 0),
            "faults.crashes": report.num_crashes,
            "faults.replayed": report.num_replayed,
            "faults.retries": report.num_retries,
            "faults.shed_crashed": report.num_shed_crashed,
        }
    )
    if workload.decode:
        m["decode.steps"] = report.num_decode_steps
        m["decode.tokens"] = report.total_output_tokens
        m["decode.kv_stalls"] = report.num_kv_stalls
        m["decode.kv_peak_mb"] = max(d["kv_peak_bytes"] or 0 for d in report.decode_devices) / 2**20
    return m
