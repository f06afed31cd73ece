"""Parallel domain stepping: forked workers, epoch barriers, ferrying.

The coordinator, :class:`WorkerSchedule`, is the run loop's schedule for
``workers > 1`` (see :mod:`repro.sim.driver`).  It forks one process per
worker (fork start method — the fully built
:class:`~repro.sim.partition.engine.PartitionedSimulation` is inherited,
nothing is re-constructed) and assigns each a block of domains, which the
worker steps with the same :class:`~repro.sim.driver.Lockstep` the serial
mode uses.  Execution alternates:

1. every worker advances its domains ``step <= E`` lockstep cycles,
   where ``E`` is the conservative epoch (min over links of
   ``min(pipeline + latency, credit_delay + credit_latency)``); boundary
   messages for remote domains buffer in link outboxes;
2. at the barrier the coordinator ferries each outbox message to the
   worker owning its target side (flits to the destination domain,
   credits to the source domain), which schedules it into the local
   event wheel.

Safety is the standard conservative-PDES argument: a message generated
at cycle ``t`` in ``[T, T+step)`` is scheduled for ``t + delay >= T +
E >= T + step``, i.e. strictly in the receiving worker's future at
ingest time.  Links between two domains of the *same* worker keep both
sides local and deliver directly, exactly like serial mode.

Statistics: each worker runs a :class:`WindowStats` collector.  It
differs from the shared serial collector only in bookkeeping — a packet
may be created in one worker and ejected in another, so measured-ness
is keyed by ``created_cycle`` (carried by the packet across the link)
instead of a pid set, and the drain criterion becomes the coordinator's
reduction ``sum(created) - sum(delivered)`` (the sum of the workers'
``outstanding``).  The reported numbers are
identical to serial mode: latency sums are exact integer arithmetic,
per-source arrays add elementwise, and same-slot event order (the only
thing barrier ferrying can reorder) is commutative for every reported
metric.
"""

from __future__ import annotations

import multiprocessing as mp
import time

from repro.network.links import MSG_FLIT
from repro.obs.probes import AllocatorProbe, attach_probe
from repro.parallel.faults import inject_fault
from repro.sim.driver import Lockstep
from repro.sim.stats import StatsCollector


class WindowStats(StatsCollector):
    """Per-worker collector: window membership via ``created_cycle``.

    ``_outstanding`` stays empty (drain is a coordinator-side reduction
    over per-worker counts); a packet's latency is recorded by whichever
    worker ejects it, using the creation window test the shared serial
    collector implements with its pid set.
    """

    window_by_creation = True

    @property
    def outstanding(self) -> int:
        """Measured packets created here minus measured packets ejected here.

        One worker's value can go negative (a packet may be created in one
        worker and ejected in another); the sum over every worker — or the
        merged collector's value — is the drain criterion.
        """
        return self.packets_created - len(self.latencies)

    def on_packet_created(self, packet) -> None:
        if self._in_window(packet.created_cycle):
            self.packets_created += 1
            self.per_source_created[packet.src] += 1

    def on_packet_ejected(self, packet, cycle: int) -> None:
        if self._in_window(cycle):
            self.packets_ejected += 1
            self.per_source_ejected[packet.src] += 1
        if self._in_window(packet.created_cycle):
            self.latencies.append(cycle - packet.created_cycle)


def _worker_main(sim, domain_ids, conn, worker_index: int) -> None:
    """Child process: step owned domains, speak the barrier protocol."""
    inject_fault(worker_index, 0)
    owned = set(domain_ids)
    rd = sim.plan.router_domain
    stats = WindowStats(sim.config.num_terminals)
    domains = [sim.domains[d] for d in domain_ids]
    injectors = [sim.injectors[d] for d in domain_ids]
    for dom in domains:
        dom.stats = stats
        dom.tracer = None
    for inj in injectors:
        inj.stats = stats
    lockstep = Lockstep(injectors, domains, stats)
    # The coordinator's collectors stay unattached in worker mode; this
    # worker's probe counts its own domains' rounds and ships home.
    probe = AllocatorProbe() if sim.obs_config.metrics else None
    if probe is not None:
        for dom in domains:
            attach_probe(dom, probe)
    # Sever the remote side of every boundary link: sends for an unowned
    # side buffer in the outbox instead of touching a peer's wheel.
    touched = []
    for link in sim.links:
        src_owned = rd[link.spec.src_router] in owned
        dst_owned = rd[link.spec.dst_router] in owned
        if not src_owned:
            link.src_net = None
        if not dst_owned:
            link.dst_net = None
        if src_owned or dst_owned:
            touched.append(link)
    while True:
        try:
            msg = conn.recv()
        except EOFError:
            # Coordinator died (or tore down after its own failure): the
            # pipe's far end is gone, so exit instead of blocking forever.
            return
        op = msg[0]
        if op == "advance":
            lockstep.step(msg[1])
            out = {}
            for link in touched:
                if link.outbox:
                    out[link.link_id] = link.drain_outbox()
            conn.send(out)
        elif op == "ingest":
            for link_id, messages in msg[1].items():
                sim.links[link_id].ingest(messages)
        elif op == "open_window":
            stats.open_window(msg[1], msg[2])
        elif op == "counts":
            conn.send(stats.outstanding)
        elif op == "finalize":
            conn.send(
                {
                    "stats": {
                        "latencies": stats.latencies,
                        "flits_ejected": stats.flits_ejected,
                        "packets_ejected": stats.packets_ejected,
                        "packets_created": stats.packets_created,
                        "per_source_ejected": stats.per_source_ejected,
                        "per_source_created": stats.per_source_created,
                    },
                    "counters": {
                        d: sim.domains[d].counter_snapshot() for d in domain_ids
                    },
                    "link_flits": {
                        link.link_id: link.flits_carried
                        for link in touched
                        if link.src_net is not None
                    },
                    "link_credits": {
                        link.link_id: link.credits_returned
                        for link in touched
                        if link.dst_net is not None
                    },
                    "probe": probe.snapshot() if probe is not None else None,
                }
            )
        elif op == "stop":
            conn.close()
            return


class WorkerSchedule:
    """The run loop's schedule over forked workers and epoch barriers.

    Construction forks the workers, each owning a contiguous block of
    domains; :meth:`close` tears them down.  Workers step through idle
    stretches, so :meth:`skip` never fast-forwards.
    """

    def __init__(self, sim) -> None:
        self.sim = sim
        num_domains = sim.plan.num_domains
        num_workers = sim._workers
        # Block assignment: domain d -> worker d * W // N keeps blocks
        # contiguous and sizes within one of each other.
        self.owner_of = [d * num_workers // num_domains for d in range(num_domains)]
        self.groups = [[] for _ in range(num_workers)]
        for d, w in enumerate(self.owner_of):
            self.groups[w].append(d)
        self.cycle = sim.cycle
        self.quantum = sim._epoch
        self.window: tuple[int, int] | None = None
        self.conns, self.procs = [], []
        ctx = mp.get_context("fork")
        for worker_index, group in enumerate(self.groups):
            parent, child = ctx.Pipe()
            proc = ctx.Process(
                target=_worker_main, args=(sim, group, child, worker_index), daemon=True
            )
            proc.start()
            child.close()
            self.conns.append(parent)
            self.procs.append(proc)

    def _dead_worker_error(self, w: int) -> RuntimeError:
        proc = self.procs[w]
        proc.join(timeout=1.0)
        code = proc.exitcode
        detail = f"exit code {code}" if code is not None else "still running"
        return RuntimeError(
            f"partition worker {w} (domains {self.groups[w]}) died mid-run "
            f"({detail}); aborting the partitioned run"
        )

    def _send(self, w: int, msg) -> None:
        try:
            self.conns[w].send(msg)
        except (BrokenPipeError, OSError) as exc:
            raise self._dead_worker_error(w) from exc

    def _recv(self, w: int):
        try:
            return self.conns[w].recv()
        except (EOFError, OSError) as exc:
            # EOFError for a clean close, ConnectionResetError (an
            # OSError) when the worker died with data in flight.
            raise self._dead_worker_error(w) from exc

    def _broadcast(self, msg) -> None:
        for w in range(len(self.conns)):
            self._send(w, msg)

    def _gather(self) -> list:
        return [self._recv(w) for w in range(len(self.conns))]

    def advance(self, cycles: int) -> None:
        """Advance ``cycles`` cycles in epochs, ferrying at each barrier."""
        links = self.sim.links
        rd = self.sim.plan.router_domain
        owner_of = self.owner_of
        remaining = cycles
        while remaining > 0:
            step = min(self.quantum, remaining)
            self._broadcast(("advance", step))
            routed = [dict() for _ in self.conns]
            for out in self._gather():
                for link_id, messages in out.items():
                    spec = links[link_id].spec
                    flit_worker = owner_of[rd[spec.dst_router]]
                    credit_worker = owner_of[rd[spec.src_router]]
                    for message in messages:
                        target = flit_worker if message[0] == MSG_FLIT else credit_worker
                        routed[target].setdefault(link_id, []).append(message)
            for w, batch in enumerate(routed):
                if batch:
                    self._send(w, ("ingest", batch))
            remaining -= step
            self.cycle += step

    step = advance

    def skip(self, budget: int) -> int:
        return 0

    def open_window(self, start: int, end: int) -> None:
        self.window = (start, end)
        self._broadcast(("open_window", start, end))

    def outstanding(self) -> int:
        self._broadcast(("counts",))
        return sum(self._gather())

    def finish(self):
        """Merge the workers' final payloads (same shape as ``Lockstep.finish``)."""
        self._broadcast(("finalize",))
        payloads = self._gather()
        merged = WindowStats(self.sim.config.num_terminals)
        merged.open_window(*self.window)
        by_domain: dict[int, dict] = {}
        interchip_flits = interchip_credits = 0
        for payload in payloads:
            s = payload["stats"]
            merged.latencies.extend(s["latencies"])
            merged.flits_ejected += s["flits_ejected"]
            merged.packets_ejected += s["packets_ejected"]
            merged.packets_created += s["packets_created"]
            for i, v in enumerate(s["per_source_ejected"]):
                merged.per_source_ejected[i] += v
            for i, v in enumerate(s["per_source_created"]):
                merged.per_source_created[i] += v
            by_domain.update(payload["counters"])
            interchip_flits += sum(payload["link_flits"].values())
            interchip_credits += sum(payload["link_credits"].values())
        return (
            merged,
            [by_domain[d] for d in range(len(self.owner_of))],
            interchip_flits,
            interchip_credits,
            [p["probe"] for p in payloads if p["probe"] is not None],
        )

    def close(self) -> None:
        # Teardown order matters: signal every worker to exit *before*
        # the first join.  Joining first deadlocked on failure — a worker
        # blocked in recv() never exits, so each join burned its full
        # timeout (30s per worker) before anything closed its pipe.
        for conn in self.conns:
            try:
                conn.send(("stop",))
            except (BrokenPipeError, OSError):
                pass  # already dead or closed — that's fine, it can't hang
        for conn in self.conns:
            conn.close()
        # Closed pipes wake any worker blocked in recv() (EOFError -> its
        # main returns), so the whole pool drains within one shared
        # deadline instead of 30s per straggler.
        deadline = time.monotonic() + 4.0
        for proc in self.procs:
            proc.join(timeout=max(0.1, deadline - time.monotonic()))
        for proc in self.procs:
            if proc.is_alive():
                proc.terminate()
        for proc in self.procs:
            if proc.is_alive():
                proc.join(timeout=1.0)


__all__ = ["WindowStats", "WorkerSchedule"]
