"""Fleet-composition search: the cheapest fleet that meets the target.

The search space is every *composition* -- a count per catalog device name,
bounded by ``max_per_type`` and ``max_total`` -- and the objective is the
cheapest composition (by fleet $/hr) whose deadline attainment on the
workload reaches ``attainment_target``.  Three properties make the search
practical and reproducible:

* **Price-ordered enumeration.**  Candidates are sorted by
  ``(fleet $/hr, counts)`` before any evaluation, so the first feasible
  candidate in that order *is* the cheapest feasible fleet, with
  deterministic tie-breaking.
* **Exact superset pruning.**  Once a composition is known feasible, every
  strict componentwise superset is skipped: device prices are positive, so
  a superset costs strictly more and can never be the cheapest feasible
  fleet.  (It also cannot improve the Pareto frontier's cost axis; the
  extra idle hardware only adds cost and idle energy.)  Pruned candidates
  are reported with the composition that eliminated them.
* **Wave-parallel evaluation.**  Candidates are evaluated through
  :func:`repro.serving.simulate_online` in fixed-size waves whose
  partitioning does **not** depend on ``jobs``; pruning decisions happen
  only at wave boundaries.  Workers return plain scalar summaries, so
  ``jobs=1`` and ``jobs=4`` produce byte-identical results.

The module also computes the Pareto frontier over the three axes a buyer
actually trades off: fleet $/hr (minimize), attainment (maximize), and
J/Mreq (minimize).
"""

from __future__ import annotations

import json
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

#: Multiprocessing context for the search's worker pool (None = platform
#: default).  Tests point this at a spawn context to prove the submit-time
#: environment capture works without relying on fork inheritance.
_MP_CONTEXT = None

#: Candidates evaluated per wave.  Fixed (never derived from ``jobs``) so
#: the pruning decisions -- taken at wave boundaries -- are identical
#: whatever the parallelism, which is what makes ``--jobs`` byte-stable.
_WAVE_SIZE = 8

from ..devices import Device, build_device, build_fleet
from ..devices.schedule_cache import persist_schedule_cache, persistent_cache_dir
from ..evaluation.env_overrides import apply_env_overrides, capture_env_overrides
from ..evaluation.serving_sweep import slo_spec_from_ms
from ..serving.arrivals import TraceArrivals
from ..serving.engine import OnlineServingReport, simulate_online
from ..serving.policies import get_batch_policy
from ..serving.routing import get_router

__all__ = [
    "CandidateResult",
    "PlanSearchResult",
    "enumerate_compositions",
    "evaluate_composition",
    "fleet_price_per_hour",
    "load_trace",
    "pareto_frontier",
    "reference_trace_path",
    "replay_composition",
    "search_fleets",
]


def reference_trace_path() -> Path:
    """The checked-in reference arrival trace the default plan runs against."""
    return Path(__file__).resolve().parent / "traces" / "reference_trace.json"


def load_trace(path: str | Path) -> tuple:
    """Load an arrival trace file: a JSON list of times or [time, length] pairs."""
    payload = json.loads(Path(path).read_text())
    if isinstance(payload, dict):
        payload = payload["trace"]
    if not isinstance(payload, list) or not payload:
        raise ValueError(f"trace file {path} must hold a non-empty JSON list")
    entries = []
    for entry in payload:
        if isinstance(entry, (list, tuple)):
            time, length = entry
            entries.append((float(time), int(length)))
        else:
            entries.append(float(entry))
    return tuple(entries)


def enumerate_compositions(
    num_types: int, max_per_type: int, max_total: int
) -> list[tuple[int, ...]]:
    """All count vectors with ``1 <= sum(counts) <= max_total``, each ``<= max_per_type``."""
    if num_types < 1:
        raise ValueError("need at least one device type")
    if max_per_type < 1:
        raise ValueError("max_per_type must be >= 1")
    if max_total < 1:
        raise ValueError("max_total must be >= 1")
    compositions: list[tuple[int, ...]] = []

    def extend(prefix: tuple[int, ...], remaining: int) -> None:
        if remaining == 0:
            if 0 < sum(prefix) <= max_total:
                compositions.append(prefix)
            return
        for count in range(max_per_type + 1):
            if sum(prefix) + count > max_total:
                break
            extend(prefix + (count,), remaining - 1)

    extend((), num_types)
    return compositions


def fleet_price_per_hour(
    counts: tuple[int, ...], prices: tuple[float, ...]
) -> float:
    """Dollar rate of a static composition: sum of count x device price."""
    return float(sum(count * price for count, price in zip(counts, prices)))


def _is_strict_superset(counts: tuple[int, ...], base: tuple[int, ...]) -> bool:
    """True when ``counts`` contains ``base`` componentwise and adds devices."""
    return counts != base and all(c >= b for c, b in zip(counts, base))


@dataclass
class CandidateResult:
    """One evaluated fleet composition with its planner-facing scalars."""

    devices: tuple[str, ...]
    counts: tuple[int, ...]
    price_per_hour_usd: float
    attainment: float | None = None
    goodput_qps: float | None = None
    cost_usd: float | None = None
    joules_per_mreq: float | None = None
    makespan_seconds: float | None = None
    num_completed: int | None = None
    meets_target: bool = False
    evaluated: bool = False
    #: The feasible composition whose superset relation pruned this one.
    pruned_by: tuple[int, ...] | None = None

    @property
    def fleet(self) -> str:
        """Human-readable composition, e.g. ``2x sparse-fpga + 1x cpu-xeon``."""
        parts = [
            f"{count}x {name}"
            for name, count in zip(self.devices, self.counts)
            if count > 0
        ]
        return " + ".join(parts)

    def to_dict(self) -> dict:
        return {
            "fleet": self.fleet,
            "counts": list(self.counts),
            "price_per_hour_usd": round(self.price_per_hour_usd, 6),
            "attainment": None if self.attainment is None else round(self.attainment, 6),
            "goodput_qps": None if self.goodput_qps is None else round(self.goodput_qps, 6),
            "cost_usd": None if self.cost_usd is None else round(self.cost_usd, 6),
            "joules_per_mreq": (
                None if self.joules_per_mreq is None else round(self.joules_per_mreq, 3)
            ),
            "makespan_seconds": (
                None if self.makespan_seconds is None else round(self.makespan_seconds, 6)
            ),
            "num_completed": self.num_completed,
            "meets_target": self.meets_target,
            "evaluated": self.evaluated,
            "pruned_by": None if self.pruned_by is None else list(self.pruned_by),
        }


@dataclass
class PlanSearchResult:
    """Outcome of one fleet search: the winner plus the full evaluated field."""

    devices: tuple[str, ...]
    device_prices: tuple[float, ...]
    attainment_target: float
    num_enumerated: int
    #: Evaluated candidates, in (fleet $/hr, counts) order.
    candidates: list[CandidateResult] = field(default_factory=list)
    #: Candidates skipped by superset pruning, in the same order.
    pruned: list[CandidateResult] = field(default_factory=list)
    #: Cheapest feasible composition, or None when nothing met the target.
    chosen: CandidateResult | None = None
    #: Pareto-optimal evaluated candidates over ($/hr min, attainment max,
    #: J/Mreq min), in (fleet $/hr, counts) order.
    frontier: list[CandidateResult] = field(default_factory=list)


def _composition_fleet(options: dict, counts: tuple[int, ...]) -> list[Device]:
    names: list[str] = []
    for name, count in zip(options["devices"], counts):
        names.extend([name] * count)
    return build_fleet(
        names,
        model=options["model"],
        dataset=options["dataset"],
        cache_length_bucket=options["cache_length_bucket"],
    )


def replay_composition(
    options: dict, counts: tuple[int, ...], **engine_kwargs
) -> OnlineServingReport:
    """Replay the plan's trace on one composition as a static fleet.

    ``engine_kwargs`` are extra :func:`simulate_online` options, e.g. the
    autoscaler knobs of the ``plan`` experiment's elastic-pool comparison.
    """
    return simulate_online(
        _composition_fleet(options, counts),
        options["dataset"],
        TraceArrivals(trace=options["trace"]),
        num_requests=options["num_requests"],
        batch_policy=get_batch_policy(
            options["batch_policy"],
            batch_size=options["batch_size"],
            timeout_s=options["timeout_ms"] * 1e-3,
        ),
        router=get_router(options["routing"]),
        seed=options["seed"],
        continuous_batching=options["continuous_batching"],
        slo=slo_spec_from_ms(options["slo_ms"], options["slo_per_token_ms"]),
        **engine_kwargs,
    )


def evaluate_composition(options: dict, counts: tuple[int, ...]) -> dict:
    """Replay the plan's trace on one composition; return plain scalars only.

    The return value must stay picklable *and* free of anything
    runtime-dependent (timings, cache counters), because ``--jobs 1`` and
    ``--jobs 4`` must produce byte-identical plans.
    """
    report = replay_composition(options, counts)
    return {
        "attainment": report.attainment_rate,
        "goodput_qps": report.goodput_qps,
        "cost_usd": report.cost_usd,
        "joules_per_mreq": report.joules_per_million_requests,
        "makespan_seconds": report.makespan_seconds,
        "num_completed": report.num_completed,
    }


def _candidate_worker(options: dict, counts: tuple[int, ...], env: dict | None = None) -> dict:
    """Process-pool entry point: re-apply env overrides, then evaluate."""
    apply_env_overrides(env)
    return evaluate_composition(options, counts)


def _catalog_prices(options: dict) -> tuple[float, ...]:
    """Per-hour price of each catalog entry, read off probe devices.

    Building a probe honours registry aliases and any factory defaults, so
    the ordering prices are exactly what the evaluated fleets will bill.
    """
    prices = []
    for name in options["devices"]:
        device = build_device(name, model=options["model"], dataset=options["dataset"])
        price = device.price_per_hour_usd
        if price is None or price <= 0:
            raise ValueError(
                f"device '{name}' has no positive price_per_hour_usd; the "
                "planner can only rank priced devices"
            )
        prices.append(float(price))
    return tuple(prices)


def pareto_frontier(candidates: list[CandidateResult]) -> list[CandidateResult]:
    """Non-dominated candidates over ($/hr min, attainment max, J/Mreq min).

    A candidate is dominated when another is at least as good on all three
    axes and strictly better on one.  Missing attainment counts as worst
    (never served a deadline), missing energy as worst (unmetered fleet).
    """

    def axes(candidate: CandidateResult) -> tuple[float, float, float]:
        attainment = -1.0 if candidate.attainment is None else candidate.attainment
        energy = float("inf") if candidate.joules_per_mreq is None else candidate.joules_per_mreq
        return (candidate.price_per_hour_usd, -attainment, energy)

    frontier = []
    for candidate in candidates:
        mine = axes(candidate)
        dominated = False
        for other in candidates:
            if other is candidate:
                continue
            theirs = axes(other)
            if all(t <= m for t, m in zip(theirs, mine)) and theirs != mine:
                dominated = True
                break
        if not dominated:
            frontier.append(candidate)
    return frontier


def search_fleets(options: dict, jobs: int = 1, prune: bool = True) -> PlanSearchResult:
    """Run the fleet-composition search.

    ``options`` is the plain-dict evaluation context (built by the ``plan``
    experiment; must be picklable): device names, trace, SLO, batching and
    routing knobs, and the search bounds ``max_per_type`` / ``max_total`` /
    ``attainment_target``.  ``jobs`` parallelizes evaluation inside each
    wave; the result is byte-identical whatever its value.
    """
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    prices = _catalog_prices(options)
    compositions = enumerate_compositions(
        len(options["devices"]), options["max_per_type"], options["max_total"]
    )
    ordered = sorted(
        compositions, key=lambda counts: (fleet_price_per_hour(counts, prices), counts)
    )

    result = PlanSearchResult(
        devices=tuple(options["devices"]),
        device_prices=prices,
        attainment_target=options["attainment_target"],
        num_enumerated=len(ordered),
    )
    feasible: list[tuple[int, ...]] = []

    def make_candidate(counts: tuple[int, ...]) -> CandidateResult:
        return CandidateResult(
            devices=result.devices,
            counts=counts,
            price_per_hour_usd=fleet_price_per_hour(counts, prices),
        )

    def record(candidate: CandidateResult, summary: dict) -> None:
        candidate.evaluated = True
        for key, value in summary.items():
            setattr(candidate, key, value)
        candidate.meets_target = (
            candidate.attainment is not None
            and candidate.attainment >= options["attainment_target"]
        )
        result.candidates.append(candidate)
        if candidate.meets_target:
            feasible.append(candidate.counts)
            if result.chosen is None:
                result.chosen = candidate

    executor = None
    if jobs > 1:
        # Snapshot the warm parent cache first so spawned workers -- which
        # load REPRO_SCHEDULE_CACHE_DIR on their first device reset -- start
        # from it instead of recomputing every schedule.
        if persistent_cache_dir() is not None:
            persist_schedule_cache()
        env = capture_env_overrides()
        executor = ProcessPoolExecutor(max_workers=jobs, mp_context=_MP_CONTEXT)
    try:
        queue = list(ordered)
        while queue:
            wave, queue = queue[:_WAVE_SIZE], queue[_WAVE_SIZE:]
            kept: list[tuple[int, ...]] = []
            for counts in wave:
                pruned_by = next(
                    (base for base in feasible if _is_strict_superset(counts, base)),
                    None,
                )
                if prune and pruned_by is not None:
                    candidate = make_candidate(counts)
                    candidate.pruned_by = pruned_by
                    result.pruned.append(candidate)
                else:
                    kept.append(counts)
            if not kept:
                continue
            if executor is not None:
                futures = [
                    executor.submit(_candidate_worker, options, counts, env)
                    for counts in kept
                ]
                summaries = [future.result() for future in futures]
            else:
                summaries = [evaluate_composition(options, counts) for counts in kept]
            for counts, summary in zip(kept, summaries):
                record(make_candidate(counts), summary)
    finally:
        if executor is not None:
            executor.shutdown()

    result.frontier = pareto_frontier(result.candidates)
    return result
