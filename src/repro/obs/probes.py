"""Allocator matching-efficiency probes — the paper's Section 2 story,
measured instead of inferred.

A :class:`AllocatorProbe` is shared by every router of a network (so
counts are network-wide) and records, for every allocation round (one
router with at least one switch request in one cycle):

* ``sa_requests`` — input VCs exposing a request to the allocator;
* ``sa_phase1_winners`` — candidates that survived input-side reduction
  (one per active crossbar input for separable schemes; one per
  requesting physical port for the port-matching schemes);
* ``sa_input_port_blocks`` — requests hidden behind the input-port /
  virtual-input constraint (``requests - phase1_winners``): a VC that
  could not even compete for an output because its crossbar input was
  taken by a sibling VC.  This is the constraint VIX relaxes (Fig. 4).
* ``sa_phase2_kills`` — phase-1 winners killed by output arbitration
  (``phase1_winners - grants``): the *sub-optimal matching problem*
  of uncoordinated separable allocation (Fig. 5).
* ``sa_grants`` — grants actually issued (achieved matching size);
* ``sa_max_matching`` — the maximum bipartite matching the same request
  set admits (crossbar inputs x outputs), i.e. what an ideal allocator
  would have granted.

``matching_efficiency()`` = grants / max-matching is then directly
comparable across allocator flavours: the baseline IF allocator loses
efficiency to both kills and blocks, 1:2 VIX recovers most of it, and AP
achieves 1.0 by construction.

Two producers feed the same counters.  Object allocators call
:meth:`AllocatorProbe.record` once per round; the vectorized engines'
switch-allocation kernel computes the counts of every router's round in
a cycle from its request/winner/grant arrays and calls
:meth:`AllocatorProbe.fold` once per cycle.  :func:`attach_probe` hooks
both.

Probes are **opt-in and off the hot path**: an allocator's (or network's)
``probe`` attribute is ``None`` by default and every recording
site is guarded by a single ``is not None`` check; an object router
additionally routes requests through the full matrix path while a probe
is attached (the forced-move fast path would bypass the instrumented
code — its grants are identical, so results do not change, only
visibility).
"""

from __future__ import annotations

from typing import Mapping

from repro.core.matching import maximum_matching_size  # re-export  # noqa: F401

from .registry import MetricsRegistry

#: Counter names in snapshot/merge order.
FIELDS = (
    "sa_rounds",
    "sa_requests",
    "sa_phase1_winners",
    "sa_input_port_blocks",
    "sa_phase2_kills",
    "sa_grants",
    "sa_max_matching",
)


class AllocatorProbe:
    """Per-allocation-round matching telemetry, aggregated over a run."""

    __slots__ = (
        "name",
        "sa_rounds",
        "sa_requests",
        "sa_phase1_winners",
        "sa_input_port_blocks",
        "sa_phase2_kills",
        "sa_grants",
        "sa_max_matching",
    )

    def __init__(self, name: str = "") -> None:
        self.name = name
        self.sa_rounds = 0
        self.sa_requests = 0
        self.sa_phase1_winners = 0
        self.sa_input_port_blocks = 0
        self.sa_phase2_kills = 0
        self.sa_grants = 0
        self.sa_max_matching = 0

    def record(
        self, requests: int, phase1_winners: int, grants: int, max_matching: int
    ) -> None:
        """Fold one allocation round into the aggregate counters."""
        self.fold(1, requests, phase1_winners, grants, max_matching)

    def fold(
        self,
        rounds: int,
        requests: int,
        phase1_winners: int,
        grants: int,
        max_matching: int,
    ) -> None:
        """Fold a batch of ``rounds`` allocation rounds, given as sums."""
        self.sa_rounds += rounds
        self.sa_requests += requests
        self.sa_phase1_winners += phase1_winners
        self.sa_input_port_blocks += requests - phase1_winners
        self.sa_phase2_kills += phase1_winners - grants
        self.sa_grants += grants
        self.sa_max_matching += max_matching

    # --- derived -------------------------------------------------------------

    def matching_efficiency(self) -> float:
        """Achieved / maximum matching size over every recorded round."""
        if self.sa_max_matching == 0:
            return 1.0
        return self.sa_grants / self.sa_max_matching

    def kill_rate(self) -> float:
        """Phase-1 winners killed in phase 2, as a fraction."""
        if self.sa_phase1_winners == 0:
            return 0.0
        return self.sa_phase2_kills / self.sa_phase1_winners

    # --- aggregation ---------------------------------------------------------

    def snapshot(self) -> dict[str, int]:
        """Counter values as a plain dict (stable keys)."""
        return {field: getattr(self, field) for field in FIELDS}

    def merge(self, other: "AllocatorProbe | Mapping[str, int]") -> None:
        """Accumulate another probe (or its snapshot) into this one."""
        data = other.snapshot() if isinstance(other, AllocatorProbe) else other
        for field in FIELDS:
            setattr(self, field, getattr(self, field) + int(data.get(field, 0)))

    def publish(self, registry: MetricsRegistry) -> None:
        """Copy the aggregate counters into a metrics registry."""
        for field, value in self.snapshot().items():
            registry.counter(field).inc(value)
        registry.gauge("sa_matching_efficiency").set(self.matching_efficiency())


def attach_probe(network, probe: AllocatorProbe) -> None:
    """Make ``probe`` record every switch-allocation round of ``network``.

    The vectorized engines' kernel reads ``network.probe``; object routers
    record through their allocators (on an array-stepped network they
    never allocate, so hooking them changes nothing).
    """
    probe.name = network.config.router.allocator
    network.probe = probe
    for router in network.routers:
        if router is None:
            continue  # partition-domain hole (unowned router)
        router.allocator.probe = probe
        # The forced-move fast path bypasses the instrumented matrix
        # path; its grants (and arbiter state) are identical, so
        # disabling it only changes visibility.
        router._alloc_fast = None
