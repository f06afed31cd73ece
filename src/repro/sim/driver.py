"""The run loop every engine shares: warmup, measurement, drain.

Each engine is a constructor of its domain list — one
:class:`~repro.network.network.Network` (:class:`~repro.sim.engine.
Simulation`), one SoA-backed domain or its gated fallback
(:class:`~repro.sim.vec.engine.VectorizedSimulation`), or a grid of chiplet
domains joined by inter-chip links (:class:`~repro.sim.partition.engine.
PartitionedSimulation`).  :meth:`PhaseDriver.run` then runs the standard
three-phase methodology over the ``(injector, domain)`` pairs:

1. **warmup** — traffic flows, nothing is recorded;
2. **measure** — packets created in this window are tracked end to end, and
   ejected traffic counts toward throughput;
3. **drain** — injection continues (keeping the network under load) until
   every measured packet is delivered or a drain budget expires.  Past
   saturation some measured packets never finish inside any budget; the
   result marks this and latency is reported over the delivered subset.

Domains are driven only through the stepping contract that ``Network``,
``DomainNetwork`` and ``VecDomain`` all satisfy: ``step``,
``has_active_work``, ``next_event_time``, ``skip_to``,
``counter_snapshot`` and ``export_flow_state``.  Scheduling is a strategy
offering ``advance``, ``step``, ``skip``, ``open_window``, ``outstanding``
and ``finish``:

* :class:`Lockstep` — in process: every cycle each pair ticks its injector
  and steps, in domain order;
* :class:`~repro.sim.partition.workers.WorkerSchedule` — forked worker
  processes advancing in conservative epochs.

Quiescent stretches are fast-forwarded with fpgagraphlib's
``global_inactive`` reduction: the clock jumps only when *no* domain has
active work and every domain's next event and next injection lie at or
beyond the target; a single domain is the one-term conjunction.  With
per-cycle Bernoulli injection at ``rate > 0`` the injectors are active
every cycle, so no cycle is ever skipped; with ``rate == 0`` or
``fast_injection=True`` the idle gaps are skipped and tallied in the
``cycles_skipped`` counter.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass, field

from repro.network.state import FLOW_STATE_VERSION
from repro.obs import Observability, ObservabilityConfig
from repro.sim.stats import StatsCollector
from repro.traffic.injector import TrafficInjector
from repro.traffic.patterns import make_pattern


@dataclass
class SimulationResult:
    """Summary of one simulation run."""

    allocator: str
    topology: str
    injection_rate: float
    packet_length: int
    avg_latency: float
    throughput_flits: float
    throughput_packets_per_node: float
    fairness: float
    packets_created: int
    packets_ejected: int
    drained: bool
    cycles: int
    per_source_ejected: list[int] = field(default_factory=list)
    counters: dict[str, int] = field(default_factory=dict)
    #: Latency percentiles over measured packets (nan when none delivered).
    latency_p50: float = math.nan
    latency_p95: float = math.nan
    latency_p99: float = math.nan
    #: Metrics snapshot (flattened registry dict) when observability was
    #: enabled for the run; ``None`` otherwise.
    metrics: dict | None = None

    @property
    def throughput_flits_per_node(self) -> float:
        """Accepted throughput in flits/cycle/node."""
        n = len(self.per_source_ejected) or 1
        return self.throughput_flits / n


def domain_seed(seed, domain: int, num_domains: int):
    """Per-domain injector seed.

    A single domain keeps the caller's seed untouched (the byte-identity
    gate); multi-domain runs derive independent, stable per-domain
    streams from ``seed:domain:num_domains``.
    """
    if num_domains == 1:
        return seed
    return f"{seed}:{domain}:{num_domains}"


def aggregate_counters(
    snapshots: list[dict], *, interchip_flits: int = 0, interchip_credits: int = 0
) -> dict:
    """Fold per-domain counter snapshots into one run-level dict.

    Additive fields sum across domains; ``cycles``/``cycles_skipped`` come
    from domain 0 (domains advance in lockstep, so they are equal by
    construction).  Partition-specific keys appear only for multi-domain
    runs, keeping a one-domain dict byte-identical to the network's own.
    """
    agg = dict(snapshots[0])
    for snap in snapshots[1:]:
        for key, value in snap.items():
            if key in ("cycles", "cycles_skipped"):
                continue
            agg[key] = agg.get(key, 0) + value
    if len(snapshots) > 1:
        agg["partition_domains"] = len(snapshots)
        agg["interchip_flits"] = interchip_flits
        agg["interchip_credits"] = interchip_credits
        for d, snap in enumerate(snapshots):
            agg[f"domain{d}_flits_ejected"] = snap["flits_ejected"]
            agg[f"domain{d}_link_traversals"] = snap["link_traversals"]
    return agg


class Lockstep:
    """In-process schedule: each cycle, every pair ticks then steps.

    Domain order is fixed, which is safe because every cross-domain effect
    (a link delivery or returning credit) lands at least one cycle in the
    future.  ``on_cycle`` runs after every stepped cycle; ``timer``, when
    profiling, collects the domains' step time as the ``kernel`` span.
    """

    def __init__(
        self,
        injectors,
        domains,
        stats: StatsCollector,
        links=(),
        *,
        quantum: int = 1,
        on_cycle=None,
        timer=None,
    ) -> None:
        self.pairs = list(zip(injectors, domains))
        self.injectors = injectors
        self.domains = domains
        self.stats = stats
        self.links = links
        #: Drain granularity (the epoch when domains are linked, so the
        #: final cycle count matches the worker mode's barriers).
        self.quantum = quantum
        self.on_cycle = on_cycle
        self.timer = timer
        self.kernel_s = 0.0
        #: Fast-forward needs every domain gated (dense steps everything).
        self.gating = all(dom.gating for dom in domains)
        self._lead = domains[0]

    @property
    def cycle(self) -> int:
        return self._lead.cycle

    def step(self, cycles: int) -> None:
        """Step exactly ``cycles`` cycles, without fast-forward."""
        lead = self._lead
        pairs = self.pairs
        hook = self.on_cycle
        clock = time.perf_counter if self.timer is not None else None
        for _ in range(cycles):
            now = lead.cycle
            for inj, dom in pairs:
                inj.tick(now)
                if clock is None:
                    dom.step()
                else:
                    t0 = clock()
                    dom.step()
                    self.kernel_s += clock() - t0
            if hook is not None:
                hook()

    def skip(self, budget: int) -> int:
        """Fast-forward up to ``budget`` globally quiescent cycles.

        Safe exactly when nothing can happen before the jump target: no
        domain has an active router or NI, and every injector's next
        possible injection and every domain's next scheduled event lie at
        or beyond it.  Skipped cycles still count toward
        ``counters.cycles``.
        """
        if not self.gating:
            return 0
        for dom in self.domains:
            if dom.has_active_work():
                return 0
        now = self._lead.cycle
        wake = None
        for inj in self.injectors:
            w = inj.next_active_cycle(now)
            if w is not None:
                if w <= now:
                    return 0
                if wake is None or w < wake:
                    wake = w
        for dom in self.domains:
            nxt = dom.next_event_time()
            if nxt is not None and (wake is None or nxt < wake):
                wake = nxt
        # Nothing scheduled at all: the remaining budget is all idle.
        target = now + budget if wake is None else min(wake, now + budget)
        for dom in self.domains:
            dom.skip_to(target)
        return target - now

    def advance(self, cycles: int) -> None:
        """Advance exactly ``cycles`` cycles, fast-forwarding idle spans."""
        lead = self._lead
        skip = self.skip
        step = self.step
        end = lead.cycle + cycles
        while lead.cycle < end:
            if not skip(end - lead.cycle):
                step(1)

    def open_window(self, start: int, end: int) -> None:
        self.stats.open_window(start, end)

    def outstanding(self) -> int:
        return self.stats.outstanding

    def finish(self):
        """``(stats, per-domain snapshots, interchip flits, credits, probes)``."""
        if self.timer is not None:
            self.timer.add("kernel", self.kernel_s)
        return (
            self.stats,
            [dom.counter_snapshot() for dom in self.domains],
            sum(link.flits_carried for link in self.links),
            sum(link.credits_returned for link in self.links),
            (),
        )

    def close(self) -> None:
        pass


class PhaseDriver:
    """What every engine shares once its domains exist: wiring and ``run``.

    Engines build ``domains`` and call :meth:`_wire`; everything after
    construction — the phase loop, counter aggregation, observability
    finalization and the result — lives here, once.
    """

    #: Inter-chip links (partitioned engines only, which also set the
    #: conservative ``_epoch`` the drain is quantized to).
    links = ()
    #: Optional per-cycle callback ``hook(sim)`` (in-process stepping),
    #: used by the invariant harness; ``None`` keeps the loop untouched.
    on_cycle = None

    def _wire(
        self,
        config,
        domains: list,
        *,
        pattern,
        injection_rate: float,
        packet_length: int | None,
        seed,
        burst_length: float,
        fast_injection: bool,
        obs: ObservabilityConfig | None,
        plan=None,
        attach: bool = True,
    ) -> None:
        """Pattern, per-domain injectors, shared stats and observability.

        ``plan`` restricts each domain's injector to the terminals it owns
        (with an interleaved pid space); without one the single domain
        injects from every terminal.  ``attach=False`` builds the
        collectors without hooking them into the domains (worker mode:
        each worker attaches its own probe).
        """
        self.config = config
        self.domains = domains
        self._seed = seed
        if isinstance(pattern, str):
            pattern = make_pattern(pattern, config.num_terminals)
        self.pattern = pattern
        n = len(domains)
        self.injectors = [
            TrafficInjector(
                dom,
                pattern,
                injection_rate,
                packet_length=packet_length,
                seed=domain_seed(seed, d, n),
                burst_length=burst_length,
                fast_injection=fast_injection,
                terminals=plan.domain_terminals[d] if plan is not None else None,
                pid_start=d,
                pid_stride=n,
            )
            for d, dom in enumerate(domains)
        ]
        self.stats = StatsCollector(config.num_terminals)
        for dom, inj in zip(domains, self.injectors):
            dom.stats = self.stats
            inj.stats = self.stats
        # Observability resolves from the environment unless given
        # explicitly; the disabled default attaches nothing at all.
        self.obs_config = obs if obs is not None else ObservabilityConfig.from_env()
        self._obs: Observability | None = None
        if self.obs_config.enabled:
            self._obs = Observability(self.obs_config)
            if attach:
                for dom in domains:
                    self._obs.attach(dom)

    @property
    def cycle(self) -> int:
        return self.domains[0].cycle

    def _schedule(self, timer):
        """The in-process schedule; worker-capable engines override."""
        hook = self.on_cycle
        return Lockstep(
            self.injectors,
            self.domains,
            self.stats,
            self.links,
            quantum=self._epoch if self.links else 1,
            on_cycle=functools.partial(hook, self) if hook is not None else None,
            timer=timer,
        )

    def run(
        self,
        warmup: int = 1000,
        measure: int = 3000,
        drain_limit: int | None = None,
    ) -> SimulationResult:
        """Run the three-phase simulation and return its summary."""
        if warmup < 0 or measure <= 0:
            raise ValueError("warmup must be >= 0 and measure > 0")
        if drain_limit is None:
            drain_limit = max(2000, 2 * measure)
        obs = self._obs
        timer = obs.timer if obs is not None else None
        schedule = self._schedule(timer)
        try:
            t0 = time.perf_counter()
            schedule.advance(warmup)
            t1 = time.perf_counter()
            start = schedule.cycle
            schedule.open_window(start, start + measure)
            schedule.advance(measure)
            t2 = time.perf_counter()
            drained = 0
            # The budget test comes first: with drain_limit=0 a worker
            # schedule never pays the outstanding() barrier round trip.
            while drained < drain_limit and schedule.outstanding():
                n = schedule.skip(drain_limit - drained)
                if not n:
                    n = min(schedule.quantum, drain_limit - drained)
                    schedule.step(n)
                drained += n
            if timer is not None:
                timer.add("warmup", t1 - t0)
                timer.add("measure", t2 - t1)
                timer.add("drain", time.perf_counter() - t2)
            stats, snapshots, flits, credits, probes = schedule.finish()
            cycles = schedule.cycle
        finally:
            schedule.close()
        counters = aggregate_counters(
            snapshots, interchip_flits=flits, interchip_credits=credits
        )
        metrics = None
        if obs is not None:
            if obs.probe is not None:
                for snapshot in probes:
                    obs.probe.merge(snapshot)
            rc = self.config.router
            metrics = obs.finalize(
                counters,
                allocator=rc.allocator,
                virtual_inputs=rc.effective_virtual_inputs,
                topology=self.config.topology,
                injection_rate=self.injectors[0].rate,
                seed=self._seed,
            )
            # Spans and trace truncation only appear with profiling or
            # tracing on, so the default counters stay byte-identical.
            if timer is not None:
                counters.update(timer.counter_items())
            if obs.tracer is not None and obs.tracer.dropped:
                counters["trace_dropped_events"] = obs.tracer.dropped
        return SimulationResult(
            allocator=self.config.router.allocator,
            topology=self.config.topology,
            injection_rate=self.injectors[0].rate,
            packet_length=self.injectors[0].packet_length,
            avg_latency=stats.avg_latency(),
            throughput_flits=stats.throughput_flits_per_cycle(),
            throughput_packets_per_node=stats.throughput_packets_per_node(),
            fairness=stats.fairness_max_min_ratio(),
            packets_created=stats.packets_created,
            packets_ejected=stats.packets_ejected,
            drained=stats.outstanding == 0,
            cycles=cycles,
            per_source_ejected=list(stats.per_source_ejected),
            counters=counters,
            latency_p50=stats.latency_percentile(50),
            latency_p95=stats.latency_percentile(95),
            latency_p99=stats.latency_percentile(99),
            metrics=metrics,
        )

    def flow_state(self) -> dict:
        """Monolith-shaped flow-control snapshot (see :mod:`repro.network.state`).

        Every router/interface row comes from the one domain that owns it,
        so a one-domain snapshot is the domain's own and a multi-domain
        merge fills every hole.  Byte-equal dicts after identical runs are
        the engines' no-drift contract.
        """
        states = [dom.export_flow_state() for dom in self.domains]
        if len(states) == 1:
            return states[0]
        merged_routers = list(states[0]["routers"])
        merged_interfaces = list(states[0]["interfaces"])
        for state in states[1:]:
            for i, row in enumerate(state["routers"]):
                if row is not None:
                    merged_routers[i] = row
            for i, row in enumerate(state["interfaces"]):
                if row is not None:
                    merged_interfaces[i] = row
        return {
            "version": FLOW_STATE_VERSION,
            "cycle": states[0]["cycle"],
            "routers": merged_routers,
            "interfaces": merged_interfaces,
        }


__all__ = [
    "Lockstep",
    "PhaseDriver",
    "SimulationResult",
    "aggregate_counters",
    "domain_seed",
]
