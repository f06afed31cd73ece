"""The object engine and the one-call simulation entry point.

:class:`Simulation` builds one :class:`~repro.network.network.Network` —
activity-gated, or dense with ``activity_gating=False`` — plus its traffic
injector and statistics collector, and runs the warmup/measure/drain
methodology of :mod:`repro.sim.driver`, the loop every engine shares.
:func:`run_simulation` picks the engine (object, vectorized or
partitioned) for one run.
"""

from __future__ import annotations

import math

from repro.network.config import NetworkConfig
from repro.network.network import Network
from repro.obs import ObservabilityConfig
from repro.sim.driver import PhaseDriver, SimulationResult
from repro.traffic.patterns import TrafficPattern


class Simulation(PhaseDriver):
    """One network + injector + stats run on the object engine."""

    def __init__(
        self,
        config: NetworkConfig,
        *,
        pattern: TrafficPattern | str = "uniform",
        injection_rate: float = 0.1,
        packet_length: int | None = None,
        seed: int = 1,
        burst_length: float = 1.0,
        fast_injection: bool = False,
        activity_gating: bool = True,
        obs: ObservabilityConfig | None = None,
    ) -> None:
        self.network = Network(config)
        self.network.gating = activity_gating
        self._wire(
            config,
            [self.network],
            pattern=pattern,
            injection_rate=injection_rate,
            packet_length=packet_length,
            seed=seed,
            burst_length=burst_length,
            fast_injection=fast_injection,
            obs=obs,
        )


def run_simulation(
    config: NetworkConfig,
    *,
    pattern: TrafficPattern | str = "uniform",
    injection_rate: float = 0.1,
    packet_length: int | None = None,
    seed: int = 1,
    warmup: int = 1000,
    measure: int = 3000,
    drain_limit: int | None = None,
    burst_length: float = 1.0,
    fast_injection: bool = False,
    activity_gating: bool = True,
    obs: ObservabilityConfig | None = None,
    engine: str | None = None,
    partition=None,
) -> SimulationResult:
    """One-call convenience wrapper around :class:`Simulation`.

    ``fast_injection`` swaps per-cycle Bernoulli draws for geometric-gap
    sampling (statistically equivalent, bit-different RNG stream);
    ``activity_gating=False`` restores the dense every-component scan —
    useful only as the equivalence/benchmark baseline.  ``obs`` defaults
    to the environment-resolved observability config (off by default).

    ``engine`` picks the execution backend by registry name (``dense``,
    ``gated``, ``vectorized``; see :mod:`repro.sim.engines`).  An explicit
    name is strict — an unsupported scheme on the vectorized engine
    raises.  ``None`` consults the ``REPRO_ENGINE`` environment default
    *leniently*: a non-vectorizable configuration falls back to the gated
    object engine instead of failing, so a sweep mixing VIX with
    wavefront jobs can still run under ``REPRO_ENGINE=vectorized``.
    When neither names an engine, ``activity_gating`` selects between the
    two object engines exactly as before.

    ``partition`` (a :class:`~repro.network.links.PartitionConfig`)
    selects the ``partitioned`` engine with that domain decomposition; it
    conflicts with any other explicit ``engine``.  Naming
    ``engine="partitioned"`` (or ``REPRO_ENGINE=partitioned``) without a
    config resolves one from the ``REPRO_PARTITION*`` environment.
    """
    sim_kwargs = dict(
        pattern=pattern,
        injection_rate=injection_rate,
        packet_length=packet_length,
        seed=seed,
        burst_length=burst_length,
        fast_injection=fast_injection,
        obs=obs,
    )
    from repro.registry import engines as engine_registry
    from repro.sim.engines import default_engine, make_engine

    chosen = engine
    if partition is not None:
        if engine is not None and engine_registry.canonical(engine) != "partitioned":
            raise ValueError(
                f"partition config conflicts with explicit engine {engine!r}; "
                f"drop one (a partitioned run must use the 'partitioned' engine)"
            )
        chosen = "partitioned"
    if chosen is None:
        chosen = default_engine()
        if chosen is not None:
            from repro.sim.vec.support import vectorization_unsupported_reason

            if engine_registry.canonical(chosen) == "vectorized":
                reason = vectorization_unsupported_reason(config)
                if reason is not None:
                    # Lenient environment default: fall back to the gated
                    # object engine, but say so — a silently substituted
                    # engine is indistinguishable from a vectorized run.
                    import warnings

                    warnings.warn(
                        f"REPRO_ENGINE=vectorized does not support this "
                        f"configuration (allocator "
                        f"{config.router.allocator!r}: {reason}); running "
                        f"on the 'gated' engine instead",
                        RuntimeWarning,
                        stacklevel=2,
                    )
                    chosen = "gated"
    if chosen is not None:
        if engine_registry.canonical(chosen) == "partitioned":
            sim_kwargs["partition"] = partition
        sim = make_engine(chosen, config, **sim_kwargs)
    else:
        sim = Simulation(config, activity_gating=activity_gating, **sim_kwargs)
    return sim.run(warmup=warmup, measure=measure, drain_limit=drain_limit)


def saturation_throughput(
    config: NetworkConfig,
    *,
    pattern: TrafficPattern | str = "uniform",
    packet_length: int | None = None,
    seed: int = 1,
    warmup: int = 1000,
    measure: int = 3000,
) -> SimulationResult:
    """Accepted throughput with every source saturated (rate = 1)."""
    return run_simulation(
        config,
        pattern=pattern,
        injection_rate=1.0,
        packet_length=packet_length,
        seed=seed,
        warmup=warmup,
        measure=measure,
        drain_limit=0,
    )


def is_saturated(result: SimulationResult) -> bool:
    """Heuristic saturation test: latency diverged or measured packets lost."""
    return (not result.drained) or math.isnan(result.avg_latency)
