"""Deterministic, seeded fault schedules and the per-device health timeline.

Production fleets fail in three characteristic ways the serving literature
cares about, and each gets a registered schedule (``kind="fault"``):

* :class:`CrashRestartFaults` -- the device goes *offline* for a sampled
  downtime (a crashed worker process, a reset board).  The in-flight batch
  is lost; whether its requests are replayed is the schedule's ``replay``
  knob, mirroring the live gateway's requeue-exactly-once supervision.
* :class:`StragglerFaults` -- the device intermittently runs *slow* (a
  thermal neighbor, a noisy host): sampled slow periods multiply every
  batch latency by a fixed factor.
* :class:`ThermalThrottleFaults` -- a deterministic periodic multiplier
  ramp (heat up, hold at the throttled clock, cool down), the shape of a
  device that throttles under sustained load.
* :class:`ScriptedFaults` -- explicit crash/slowdown events for
  reproducible scenarios (the sim-vs-live crash contract replays one).

Every schedule materializes into one :class:`DeviceFaultTimeline` per
device.  Timelines are **lazy and deterministic**: events are generated
from a dedicated RNG stream seeded on ``(seed, salt, schedule, device)``
in event order, so the same seed yields the same fault history no matter
how (or whether) the timeline is queried -- and the arrival/length streams
of the run are untouched, which is what keeps fault-free replays
byte-identical to runs without the fault machinery.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..registry import REGISTRY, register

__all__ = [
    "CrashRestartFaults",
    "DeviceFaultTimeline",
    "FaultInjector",
    "FaultSchedule",
    "ScriptedFaults",
    "StragglerFaults",
    "ThermalThrottleFaults",
    "compose_timelines",
    "get_fault_schedule",
]

#: Salt isolating the fault RNG streams from the arrival/length streams
#: (the arrivals use 0x5E12; see :mod:`repro.serving.arrivals`).
_FAULT_STREAM_SALT = 0xFA17

#: Floor on sampled downtimes, so a crash window is never empty.
_MIN_DOWNTIME_S = 1e-6


class DeviceFaultTimeline:
    """One device's health over time: offline windows + a latency multiplier.

    The serving engines read three things off a timeline:

    * :meth:`next_online` gates :meth:`~repro.devices.Device.next_start`, so
      routers, deadline estimates, and admission checks all see outages;
    * :meth:`first_crash_in` tells the dispatch core whether an execution
      window loses its batch (and when the supervisor would notice);
    * :meth:`multiplier` scales an execution's latency at its start instant
      (stragglers, thermal throttling).

    Subclasses generate *offline windows* ``(crash_time, recover_time)`` in
    :meth:`_extend`; windows must be emitted in order and non-overlapping
    (renewal processes are, by construction).  The base class is the
    identity timeline: always online, multiplier 1.0.
    """

    def __init__(self) -> None:
        #: Offline windows generated so far, in start order.
        self._windows: list[tuple[float, float]] = []
        self._horizon = 0.0
        #: The online gap ``[start, end)`` around :meth:`next_online`'s last
        #: answer; ``end`` never lies beyond what was generated by then.
        self._gap = (0.0, 0.0)

    # -- generation ----------------------------------------------------

    def _extend(self, until: float) -> None:
        """Generate offline windows through ``until`` (subclass hook)."""

    def _ensure(self, until: float) -> None:
        if until > self._horizon:
            self._extend(until)
            self._horizon = until

    # -- queries the serving engines use -------------------------------

    def multiplier(self, t: float) -> float:
        """Latency multiplier for an execution starting at ``t`` (>= 1.0)."""
        return 1.0

    def next_online(self, t: float) -> float:
        """Earliest instant >= ``t`` at which the device is online.

        The answer's online gap is remembered: a later query inside it is
        online at once, with no scan.  The gap ends at the next generated
        crash, or at the generated horizon when none is generated yet:
        windows are only ever appended after it, so the answer stays exact
        (and the fault history does not depend on how far it is generated).
        """
        start, end = self._gap
        if start <= t < end:
            return t
        self._ensure(t)
        online = t
        start = float("-inf")
        end = None
        for crash, recover in self._windows:
            if crash > online:
                end = crash
                break
            if online < recover:
                online = recover
                self._ensure(online)
            start = recover
        self._gap = (start, self._horizon if end is None else end)
        return online

    def first_crash_in(self, start: float, end: float) -> tuple[float, float] | None:
        """First ``(crash_time, recover_time)`` with crash in ``[start, end)``."""
        if end <= start:
            return None
        self._ensure(end)
        for crash, recover in self._windows:
            if crash >= end:
                break
            if crash >= start:
                return (crash, recover)
        return None

    # -- reporting ------------------------------------------------------

    def crashes_before(self, horizon: float) -> int:
        """Offline windows opening in ``[0, horizon)``."""
        self._ensure(horizon)
        return sum(1 for crash, _ in self._windows if crash < horizon)

    def downtime_before(self, horizon: float) -> float:
        """Seconds of ``[0, horizon)`` the device spent offline."""
        self._ensure(horizon)
        return float(
            sum(
                max(min(recover, horizon) - max(crash, 0.0), 0.0)
                for crash, recover in self._windows
                if crash < horizon
            )
        )


class _RenewalCrashTimeline(DeviceFaultTimeline):
    """Crash windows from a renewal process: Exp(mtbf) gaps, Exp(mean) downtimes."""

    def __init__(self, mtbf_s: float, downtime_s: float, seed_key: list[int]) -> None:
        super().__init__()
        self._mtbf_s = mtbf_s
        self._downtime_s = downtime_s
        self._rng = np.random.default_rng(seed_key)
        self._clock = 0.0

    def _extend(self, until: float) -> None:
        if self._mtbf_s <= 0 or not np.isfinite(self._mtbf_s):
            return
        # Generate whole windows in order; the draw count depends only on
        # how far the timeline has been generated, never on the query
        # pattern, so every engine sees the same fault history.
        while self._clock <= until:
            crash = self._clock + float(self._rng.exponential(self._mtbf_s))
            downtime = max(float(self._rng.exponential(self._downtime_s)), _MIN_DOWNTIME_S)
            self._windows.append((crash, crash + downtime))
            self._clock = crash + downtime


class _RenewalSlowdownTimeline(DeviceFaultTimeline):
    """Slow periods from a renewal process: device online but multiplied."""

    def __init__(
        self, mtbs_s: float, duration_s: float, multiplier: float, seed_key: list[int]
    ) -> None:
        super().__init__()
        self._mtbs_s = mtbs_s
        self._duration_s = duration_s
        self._multiplier = multiplier
        self._rng = np.random.default_rng(seed_key)
        self._clock = 0.0
        self._slow: list[tuple[float, float]] = []

    def _extend(self, until: float) -> None:
        if self._mtbs_s <= 0 or not np.isfinite(self._mtbs_s) or self._multiplier == 1.0:
            return
        while self._clock <= until:
            start = self._clock + float(self._rng.exponential(self._mtbs_s))
            duration = max(float(self._rng.exponential(self._duration_s)), _MIN_DOWNTIME_S)
            self._slow.append((start, start + duration))
            self._clock = start + duration

    def multiplier(self, t: float) -> float:
        self._ensure(t)
        for start, end in self._slow:
            if start > t:
                break
            if start <= t < end:
                return self._multiplier
        return 1.0


class _ThermalTimeline(DeviceFaultTimeline):
    """Deterministic periodic multiplier ramp: heat, hold, cool, rest."""

    def __init__(
        self, period_s: float, ramp_s: float, hold_s: float, peak_multiplier: float
    ) -> None:
        super().__init__()
        self._period_s = period_s
        self._ramp_s = ramp_s
        self._hold_s = hold_s
        self._peak = peak_multiplier

    def multiplier(self, t: float) -> float:
        if self._peak == 1.0 or self._period_s <= 0:
            return 1.0
        phase = float(t) % self._period_s
        if phase < self._ramp_s:
            return 1.0 + (self._peak - 1.0) * (phase / self._ramp_s)
        phase -= self._ramp_s
        if phase < self._hold_s:
            return self._peak
        phase -= self._hold_s
        if phase < self._ramp_s:
            return self._peak - (self._peak - 1.0) * (phase / self._ramp_s)
        return 1.0


class _ScriptedTimeline(DeviceFaultTimeline):
    """Explicit crash windows + slowdown segments for one device."""

    def __init__(
        self,
        crashes: list[tuple[float, float]],
        slowdowns: list[tuple[float, float, float]],
    ) -> None:
        super().__init__()
        self._windows = sorted((crash, crash + downtime) for crash, downtime in crashes)
        self._slowdowns = sorted(slowdowns)
        self._horizon = float("inf")  # fully materialized up front

    def multiplier(self, t: float) -> float:
        for start, end, factor in self._slowdowns:
            if start > t:
                break
            if start <= t < end:
                return factor
        return 1.0


class _CompositeTimeline(DeviceFaultTimeline):
    """Several schedules' timelines seen as one device health view.

    Multipliers compound (a straggler period during a thermal ramp is slower
    than either alone); offline windows union (any child offline = offline).
    """

    def __init__(self, children: list[DeviceFaultTimeline]) -> None:
        super().__init__()
        self._children = children

    def multiplier(self, t: float) -> float:
        factor = 1.0
        for child in self._children:
            factor *= child.multiplier(t)
        return factor

    def next_online(self, t: float) -> float:
        online = t
        while True:
            moved = max(child.next_online(online) for child in self._children)
            if moved <= online:
                return online
            online = moved

    def first_crash_in(self, start: float, end: float) -> tuple[float, float] | None:
        first: tuple[float, float] | None = None
        for child in self._children:
            hit = child.first_crash_in(start, end)
            if hit is not None and (first is None or hit[0] < first[0]):
                first = hit
        if first is None:
            return None
        # Recovery is when *every* child is back online.
        return (first[0], self.next_online(first[1]))

    def crashes_before(self, horizon: float) -> int:
        return sum(child.crashes_before(horizon) for child in self._children)

    def downtime_before(self, horizon: float) -> float:
        # Approximate the union by the max per child; exact when children's
        # windows do not overlap (distinct failure modes rarely do, and the
        # figure is reporting-only).
        return max(
            (child.downtime_before(horizon) for child in self._children), default=0.0
        )


def compose_timelines(timelines: list[DeviceFaultTimeline]) -> DeviceFaultTimeline:
    """One device timeline from several schedules' timelines."""
    if len(timelines) == 1:
        return timelines[0]
    return _CompositeTimeline(timelines)


class FaultSchedule:
    """Base class: one failure mode, materialized per device and seed."""

    name: str = "fault"

    def build_timeline(
        self, device_index: int, seed: int, schedule_index: int = 0
    ) -> DeviceFaultTimeline:
        """The deterministic fault history of one device under this schedule."""
        raise NotImplementedError

    def describe(self) -> dict:
        """JSON-ready self-description (lands in the report's ``faults``)."""
        return {"name": self.name}

    @staticmethod
    def _seed_key(seed: int, schedule_index: int, device_index: int) -> list[int]:
        """A dedicated RNG stream per (run, schedule, device)."""
        return [int(seed), _FAULT_STREAM_SALT, int(schedule_index), int(device_index)]


@register("fault", "crash-restart", aliases=("crash",))
@dataclass
class CrashRestartFaults(FaultSchedule):
    """Device crashes and restarts: offline windows from a renewal process.

    Config knobs: ``mtbf_s`` (mean seconds between crashes per device;
    ``0`` or ``inf`` disables), ``downtime_s`` (mean offline seconds per
    crash), ``replay`` (requeue the lost in-flight batch exactly once,
    mirroring the live gateway's supervision; ``False`` loses it, leaving
    recovery to the engine's retry remedy).
    """

    mtbf_s: float = 30.0
    downtime_s: float = 2.0
    replay: bool = True
    name: str = "crash-restart"

    def __post_init__(self) -> None:
        if self.mtbf_s < 0:
            raise ValueError("mtbf_s must be >= 0 (0 disables crashes)")
        if self.downtime_s <= 0:
            raise ValueError("downtime_s must be > 0")

    def build_timeline(
        self, device_index: int, seed: int, schedule_index: int = 0
    ) -> DeviceFaultTimeline:
        return _RenewalCrashTimeline(
            self.mtbf_s,
            self.downtime_s,
            self._seed_key(seed, schedule_index, device_index),
        )

    def describe(self) -> dict:
        return {
            "name": self.name,
            "mtbf_s": self.mtbf_s,
            "downtime_s": self.downtime_s,
            "replay": self.replay,
        }


@register("fault", "straggler", aliases=("slow",))
@dataclass
class StragglerFaults(FaultSchedule):
    """Intermittent slow periods: latency multiplied, device still online.

    Config knobs: ``mtbs_s`` (mean seconds between slow periods per device;
    ``0`` or ``inf`` disables), ``duration_s`` (mean slow-period seconds),
    ``multiplier`` (latency factor while slow, >= 1).
    """

    mtbs_s: float = 20.0
    duration_s: float = 5.0
    multiplier: float = 2.5
    name: str = "straggler"

    def __post_init__(self) -> None:
        if self.mtbs_s < 0:
            raise ValueError("mtbs_s must be >= 0 (0 disables slow periods)")
        if self.duration_s <= 0:
            raise ValueError("duration_s must be > 0")
        if self.multiplier < 1.0:
            raise ValueError("multiplier must be >= 1")

    def build_timeline(
        self, device_index: int, seed: int, schedule_index: int = 0
    ) -> DeviceFaultTimeline:
        return _RenewalSlowdownTimeline(
            self.mtbs_s,
            self.duration_s,
            self.multiplier,
            self._seed_key(seed, schedule_index, device_index),
        )

    def describe(self) -> dict:
        return {
            "name": self.name,
            "mtbs_s": self.mtbs_s,
            "duration_s": self.duration_s,
            "multiplier": self.multiplier,
        }


@register("fault", "thermal-throttle", aliases=("thermal",))
@dataclass
class ThermalThrottleFaults(FaultSchedule):
    """Deterministic periodic throttling ramp (heat, hold, cool, rest).

    Config knobs: ``period_s`` (seconds per cycle), ``ramp_s`` (seconds to
    reach / leave the throttled clock), ``hold_s`` (seconds held at the
    peak), ``peak_multiplier`` (latency factor at the throttled clock;
    ``1.0`` disables).  Deterministic -- no RNG stream -- so every device
    rides the same ramp.
    """

    period_s: float = 60.0
    ramp_s: float = 10.0
    hold_s: float = 20.0
    peak_multiplier: float = 1.5
    name: str = "thermal-throttle"

    def __post_init__(self) -> None:
        if self.period_s <= 0:
            raise ValueError("period_s must be > 0")
        if self.ramp_s < 0 or self.hold_s < 0:
            raise ValueError("ramp_s and hold_s must be >= 0")
        if 2 * self.ramp_s + self.hold_s > self.period_s:
            raise ValueError("2 * ramp_s + hold_s must fit inside period_s")
        if self.peak_multiplier < 1.0:
            raise ValueError("peak_multiplier must be >= 1")

    def build_timeline(
        self, device_index: int, seed: int, schedule_index: int = 0
    ) -> DeviceFaultTimeline:
        return _ThermalTimeline(
            self.period_s, self.ramp_s, self.hold_s, self.peak_multiplier
        )

    def describe(self) -> dict:
        return {
            "name": self.name,
            "period_s": self.period_s,
            "ramp_s": self.ramp_s,
            "hold_s": self.hold_s,
            "peak_multiplier": self.peak_multiplier,
        }


@register("fault", "scripted")
@dataclass
class ScriptedFaults(FaultSchedule):
    """Explicit fault events for reproducible scenarios.

    Config knobs: ``crashes`` -- ``(device_index, crash_time_s,
    downtime_s)`` triples; ``slowdowns`` -- ``(device_index, start_s,
    end_s, multiplier)`` quadruples.  The sim-vs-live crash contract
    replays one scripted crash so both engines lose the same batch.
    """

    crashes: tuple[tuple[int, float, float], ...] = ()
    slowdowns: tuple[tuple[int, float, float, float], ...] = ()
    replay: bool = True
    name: str = "scripted"

    def __post_init__(self) -> None:
        for device, crash_time, downtime in self.crashes:
            if device < 0 or crash_time < 0 or downtime <= 0:
                raise ValueError(
                    "scripted crashes are (device >= 0, time >= 0, downtime > 0)"
                )
        for device, start, end, factor in self.slowdowns:
            if device < 0 or end <= start or factor < 1.0:
                raise ValueError(
                    "scripted slowdowns are (device >= 0, start < end, multiplier >= 1)"
                )

    def build_timeline(
        self, device_index: int, seed: int, schedule_index: int = 0
    ) -> DeviceFaultTimeline:
        return _ScriptedTimeline(
            [(t, d) for dev, t, d in self.crashes if dev == device_index],
            [(s, e, f) for dev, s, e, f in self.slowdowns if dev == device_index],
        )

    def describe(self) -> dict:
        return {
            "name": self.name,
            "crashes": [list(c) for c in self.crashes],
            "slowdowns": [list(s) for s in self.slowdowns],
            "replay": self.replay,
        }


@dataclass
class FaultInjector:
    """Per-device composed fault timelines for one serving run.

    Built once per run from the schedules, the fleet size, and the run seed;
    the dispatch core reads crash windows and multipliers through
    :meth:`timeline`, and the engine folds :meth:`stats` into the report's
    device summaries at the end.
    """

    schedules: tuple[FaultSchedule, ...]
    num_devices: int
    seed: int
    _timelines: list[DeviceFaultTimeline] = field(default_factory=list, repr=False)

    def __post_init__(self) -> None:
        if not self.schedules:
            raise ValueError("a FaultInjector needs at least one fault schedule")
        if self.num_devices < 1:
            raise ValueError("num_devices must be >= 1")
        self._timelines = [
            compose_timelines(
                [
                    schedule.build_timeline(device, self.seed, schedule_index)
                    for schedule_index, schedule in enumerate(self.schedules)
                ]
            )
            for device in range(self.num_devices)
        ]

    def timeline(self, device_index: int) -> DeviceFaultTimeline:
        return self._timelines[device_index]

    @property
    def replay(self) -> bool:
        """Whether a lost in-flight batch is requeued once (any schedule says so)."""
        return any(getattr(schedule, "replay", False) for schedule in self.schedules)

    def describe(self) -> list[dict]:
        """JSON-ready description of the injected schedules."""
        return [schedule.describe() for schedule in self.schedules]


def get_fault_schedule(name: str, **kwargs) -> FaultSchedule:
    """Build a fault schedule by registered name (``crash-restart``, ...).

    Equivalent to ``repro.registry.create("fault", name, **kwargs)``;
    third-party schedules registered with ``@register("fault", ...)``
    resolve the same way.
    """
    return REGISTRY.create("fault", name, **kwargs)
