"""An array-backed partition domain: the SoA kernel behind SimDomain.

:class:`VecDomain` subclasses :class:`~repro.network.domain.DomainNetwork`
(so plan bookkeeping, object NIs for the injector, and boundary ``None``
holes come for free) but replaces the per-object stepping loop with a
:class:`~repro.sim.vec.stepping.VecStepper` over a per-domain
:class:`~repro.sim.vec.state.SoAState`.  The run loop
(:mod:`repro.sim.driver`) drives it through the same SimDomain contract
object domains satisfy — ``step()``, ``has_active_work()``,
``next_event_time()``, ``skip_to()``, ``counter_snapshot()``,
``export_flow_state()`` — so serial round-robin, worker forks (the SoA
tensors are inherited by fork like every other attribute), epoch
barriers, and the invariant checker all work unchanged.  The monolithic
:class:`~repro.sim.vec.engine.VectorizedSimulation` is one ``VecDomain``
over a ``1x1`` plan.

Holes are masked structurally rather than per kernel: unowned routers'
tensor rows stay all-IDLE forever (no flit ever arrives there, so
``flatnonzero``-driven kernels never touch them), and unowned terminals
never enter ``_active_nis``.  The tensors span the full topology shape,
which keeps every monolithic flat-index table valid; the static tables
are shared across sibling domains via ``static_from``.

Boundary traffic meets the array world in two places:

* **egress** — :meth:`attach_egress` masks the cut link's source port in
  the stepper, which hands granted boundary flits (reconstructed as real
  ``Flit`` objects) to ``InterChipLink.send_flit`` instead of the ring;
* **ingress** — ferried flits and returning credits arrive through the
  inherited network event wheel (their latencies may exceed the ring
  horizon); :meth:`_drain_wheel` translates the cycle's events into one
  array chunk per kind and feeds them to the stepper's ring slot.
"""

from __future__ import annotations

from heapq import heappop

import numpy as np

from repro.network.domain import DomainNetwork
from repro.network.links import InterChipLink
from repro.network.network import _ARRIVAL, _CREDIT

from .state import SoAState
from .stepping import VecStepper


class VecDomain(DomainNetwork):
    """One chiplet domain stepped by the vectorized kernel."""

    def __init__(
        self,
        config,
        plan,
        domain: int,
        topology=None,
        *,
        static_from: "VecDomain | None" = None,
    ) -> None:
        super().__init__(config, plan, domain, topology)
        self.s = SoAState(
            self, static_from=static_from.s if static_from is not None else None
        )
        self._stepper = VecStepper(self, self.s)
        # Packets that crossed a link into this domain, by pid: each is
        # interned at most once even if (unreachable under DOR, but cheap
        # to guard) it re-enters later.
        self._pk_index: dict[int, int] = {}

    # --- boundary wiring ---------------------------------------------------

    def attach_egress(self, link: InterChipLink) -> None:
        super().attach_egress(link)
        spec = link.spec
        self._stepper.add_egress(spec.src_router * self.s.P + spec.src_port, link)

    def attach_ingress(self, link: InterChipLink) -> None:
        super().attach_ingress(link)
        spec = link.spec
        self._stepper.add_ingress(spec.dst_router * self.s.P + spec.dst_port, link)

    # --- SimDomain stepping contract ---------------------------------------

    def step(self) -> None:
        """One cycle: wheel drain + the stepper's three kernel phases.

        The injector tick is the run loop's job (as for object domains),
        so this advances exactly one network cycle.
        """
        now = self.cycle
        stepper = self._stepper
        if self._events:
            self._drain_wheel(now)
        stepper.deliver(now)
        stepper.ni_phase(now)
        stepper.allocate(now)
        stepper.kernel_cycles += 1
        self.counters.cycles += 1
        self.cycle = now + 1

    def _drain_wheel(self, now: int) -> None:
        """Translate this cycle's wheel events into stepper ring chunks.

        Cut-link deliveries are the only wheel writers in a vec domain.
        Per-cycle uniqueness (one arrival per input port, one credit per
        output VC — link serialization only spreads sends further apart)
        makes the chunked fancy-indexed application exact, same as for
        ring-native events.  ``_in_flight_flits`` was already adjusted by
        the link at schedule time, so translation is pure re-indexing.
        """
        events = self._events.pop(now, None)
        if events is None:
            return
        times = self._event_times
        if times and times[0] == now:
            heappop(times)
        s = self.s
        P, V = s.P, s.V
        arr_fi: list[int] = []
        arr_pk: list[int] = []
        arr_sq: list[int] = []
        cred_fi: list[int] = []
        cred_rel: list[bool] = []
        pk_index = self._pk_index
        for ev in events:
            if ev[0] == _ARRIVAL:
                _, rid, port, vc, flit = ev
                packet = flit.packet
                idx = pk_index.get(packet.pid)
                if idx is None:
                    idx = s.intern(packet)
                    pk_index[packet.pid] = idx
                arr_fi.append((rid * P + port) * V + vc)
                arr_pk.append(idx)
                arr_sq.append(flit.seq)
            else:  # _CREDIT: sink is our boundary OutputPort object
                _, sink, vc, release = ev
                cred_fi.append((sink.owner * P + sink.index) * V + vc)
                cred_rel.append(release)
        stepper = self._stepper
        slot = stepper.slot(now)
        n = 0
        if arr_fi:
            slot["arr"].append(
                (
                    np.array(arr_fi, dtype=np.int64),
                    np.array(arr_pk, dtype=np.int64),
                    np.array(arr_sq, dtype=np.int64),
                )
            )
            n += len(arr_fi)
        if cred_fi:
            slot["cred"].append(
                (np.array(cred_fi, dtype=np.int64), np.array(cred_rel, dtype=bool))
            )
            n += len(cred_fi)
        stepper.add_slot_count(now, n)

    def has_active_work(self) -> bool:
        return bool(self._stepper.busy_vcs or self._active_nis)

    def next_event_time(self) -> int | None:
        ring = self._stepper.next_event_time(self.cycle)
        wheel = DomainNetwork.next_event_time(self)
        if ring is None:
            return wheel
        if wheel is None:
            return ring
        return min(ring, wheel)

    # skip_to is inherited: the SoA arrays hold no clock, so advancing
    # Network.cycle (+ counters) is the whole fast-forward.

    # --- engine-neutral introspection ---------------------------------------

    def counter_snapshot(self) -> dict:
        # Flush the SoA per-link counts into the object-side table (the
        # report surface), zeroing them so repeated snapshots don't
        # double-count.
        links = self.s.links
        if links.any():
            link_counts = self._link_counts
            for r, row in enumerate(links.tolist()):
                counts = link_counts[r]
                for p, c in enumerate(row):
                    counts[p] += c
            links[:] = 0
        snap = self.counters.snapshot()
        snap["vec_kernel_cycles"] = self._stepper.kernel_cycles
        return snap

    def export_flow_state(self) -> dict:
        return self.s.export_flow_state(
            self.cycle,
            owned_routers=self._owned_routers,
            owned_terminals=self._owned_terminals,
        )

    def outstanding_flits(self) -> int:
        """Flits between source-queue entry and ejection, array-side.

        The object ``pending_flits`` can't be used: while a packet streams
        from the SoA side its NI holds only a sentinel, so the remaining
        (unstreamed) flit count lives in ``ni_rem``.
        """
        queued = sum(
            p.num_flits for ni in self._live_interfaces for p in ni.queue
        )
        return queued + int(self.s.ni_rem.sum()) + self._in_flight_flits

    def credit_of(self, rid: int, port: int, vc: int) -> int:
        return int(self.s.ocred[rid, port, vc])

    def ni_credit_of(self, terminal: int, vc: int) -> int:
        return int(self.s.ni_cred1[terminal * self.s.V + vc])

    def occupancy_of(self, rid: int, port: int, vc: int) -> int:
        return int(self.s.occ[rid, port, vc])

    def pending_event_index(self) -> tuple[dict, dict]:
        arrivals, credits = DomainNetwork.pending_event_index(self)
        ring_arr, ring_cred = self._stepper.pending_ring_index()
        for key, count in ring_arr.items():
            arrivals[key] = arrivals.get(key, 0) + count
        for key, count in ring_cred.items():
            credits[key] = credits.get(key, 0) + count
        return arrivals, credits


__all__ = ["VecDomain"]
