"""Routing policies dispatching formed batches onto a fleet of devices.

A deployment serves traffic with several devices -- FPGA boards, GPUs, or a
mix (the fleet is any list of :class:`~repro.devices.Device` backends); once
the batch policy cuts a batch, the router decides which device executes it:

* :class:`RoundRobinRouter` -- rotate through the fleet regardless of load.
* :class:`LeastLoadedRouter` -- send the batch to the device with the
  smallest backlog (earliest next admission); ties break on device index so
  the simulation stays deterministic.  On a heterogeneous fleet the faster
  device drains its backlog sooner, so traffic naturally shifts toward it.
* :class:`LengthShardedRouter` -- partition the length axis across devices so
  each board sees a narrow length band.  Because each device is balanced for
  an operating length, sharding keeps batches near their device's sweet spot
  (the multi-device analogue of length bucketing).

The cost-model-driven :class:`~repro.serving.slo.CostModelRouter` (predicted
completion time = backlog + the device's own ``batch_latency_seconds`` on
the batch) lives in :mod:`repro.serving.slo` and registers under the same
``router`` kind.

``select`` receives the fleet of :class:`~repro.devices.Device` instances,
so routers can inspect per-device state (backlog via
:meth:`Router.backlog_seconds`, fullness via
:meth:`~repro.devices.Device.occupancy`, speed via ``describe()``).  A
plug-in router subclasses :class:`Router`, whose base class gives every
hook the dispatch core calls a default.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field

import numpy as np

from ..devices import Device
from ..registry import REGISTRY, register
from ..transformer.configs import DatasetConfig
from .request import Request

__all__ = [
    "Router",
    "RoundRobinRouter",
    "LeastLoadedRouter",
    "LengthShardedRouter",
    "get_router",
]


class Router:
    """Base class: pick the device index that should run a batch."""

    name: str = "router"

    def prepare(self, num_devices: int, dataset: DatasetConfig) -> None:
        """Optional hook: learn the fleet size / dataset before the run."""

    @staticmethod
    def backlog_seconds(device: Device, now: float) -> float:
        """Seconds until ``device`` can start a new batch.

        Reads :meth:`~repro.devices.Device.next_start`, so the
        continuous-batching admission gate is honored.
        """
        return max(device.next_start(now) - now, 0.0)

    def select(self, fleet: list[Device], batch: list[Request], now: float) -> int:
        """Return the index of the device in ``fleet`` that receives ``batch``."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Device-health hooks (fault injection)
    # ------------------------------------------------------------------

    def note_failure(self, index: int, now: float) -> None:
        """A batch on device ``index`` was lost to a crash at ``now``.

        Called by the dispatch core only when fault injection is active.
        Failure-aware routers (:class:`~repro.serving.slo.CostModelRouter`
        with ``blacklist_s``) use this to steer traffic away from unhealthy
        devices; the default is a no-op so every router stays fault-agnostic
        by default.
        """

    def note_success(self, index: int, now: float) -> None:
        """A batch on device ``index`` will complete cleanly at ``now``."""

    def blacklisted_seconds(self, index: int, until: float) -> float:
        """Seconds device ``index`` was refused traffic, up to ``until``.

        Reported per device as ``blacklisted_s``; routers without a
        blacklist never refuse a device.
        """
        return 0.0


@register("router", "round-robin")
@dataclass
class RoundRobinRouter(Router):
    """Cycle through the devices in index order.

    Config knobs: none -- load-blind rotation, the baseline every other
    router is compared against.
    """

    name: str = "round-robin"
    _next: int = field(default=0, repr=False)

    def prepare(self, num_devices: int, dataset: DatasetConfig) -> None:
        # Reset the cursor so a reused router gives identical runs.
        self._next = 0

    def select(self, fleet: list[Device], batch: list[Request], now: float) -> int:
        index = self._next % len(fleet)
        self._next += 1
        return index


@register("router", "least-loaded")
@dataclass
class LeastLoadedRouter(Router):
    """Send the batch to the device with the smallest backlog.

    Config knobs: none.  The backlog is seconds until the device can admit
    a batch (:meth:`Router.backlog_seconds`); ties break on device index so
    the simulation stays deterministic.  Blind to what the batch itself
    would cost on each device -- see
    :class:`~repro.serving.slo.CostModelRouter` for the cost-aware variant.
    """

    name: str = "least-loaded"

    def select(self, fleet: list[Device], batch: list[Request], now: float) -> int:
        backlogs = [self.backlog_seconds(device, now) for device in fleet]
        return min(range(len(backlogs)), key=lambda i: (backlogs[i], i))


@register("router", "length-sharded")
@dataclass
class LengthShardedRouter(Router):
    """Shard the length axis: device ``i`` owns the ``i``-th length band.

    Config knobs: ``edges`` (token thresholds separating the bands).  Bands
    are equal-width between the dataset min and max length unless explicit
    ``edges`` are given; a batch routes by its mean length.
    """

    edges: tuple[float, ...] | None = None
    name: str = "length-sharded"
    _edges: list[float] = field(default_factory=list, repr=False)

    def prepare(self, num_devices: int, dataset: DatasetConfig) -> None:
        if self.edges is not None:
            self._edges = sorted(float(e) for e in self.edges)
        else:
            self._edges = [
                float(e)
                for e in np.linspace(dataset.min_length, dataset.max_length, num_devices + 1)[1:-1]
            ]

    def select(self, fleet: list[Device], batch: list[Request], now: float) -> int:
        mean_length = sum(r.length for r in batch) / len(batch)
        return min(bisect_right(self._edges, mean_length), len(fleet) - 1)


def get_router(name: str, **kwargs) -> Router:
    """Build a router by registered name (``round-robin``, ``least-loaded``, ...).

    Equivalent to ``repro.registry.create("router", name, **kwargs)``;
    third-party routers registered with ``@register("router", ...)`` resolve
    the same way.
    """
    return REGISTRY.create("router", name, **kwargs)
