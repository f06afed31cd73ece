"""The vectorized simulation engine.

:class:`VectorizedSimulation` is a drop-in replacement for
:class:`~repro.sim.engine.Simulation` that batches the per-router work of a
cycle into numpy array ops.  It is the one-domain case of the partitioned
vectorized engine: a :class:`~repro.sim.vec.domain.VecDomain` over a
``1x1`` plan, run by the shared loop of :mod:`repro.sim.driver`.
Byte-identical results fall out of reusing the object engine's components
wherever cycle-accurate state is subtle and cheap, and vectorizing only
what is hot:

* the domain is a real network (topology wiring, NIs); its NIs, the real
  :class:`~repro.traffic.TrafficInjector` (same Mersenne-Twister stream,
  same draw order) and the real :class:`~repro.sim.stats.StatsCollector`
  run unchanged in Python;
* router stepping — flit delivery, VC allocation, switch allocation, grant
  application — runs on the :class:`~repro.sim.vec.state.SoAState` tensors
  through :mod:`repro.sim.vec.kernels` (see
  :class:`~repro.sim.vec.stepping.VecStepper`);
* events ride a fixed-size ring of array chunks instead of the network's
  dict-of-lists wheel (all latencies are bounded by
  ``max(pipeline_stages, credit_delay, 1)``).

Metrics run on the kernel: the stepper passes the network's allocator
probe to the switch-allocation kernel, which folds each cycle's rounds
into it from its request/winner/grant arrays.  Two situations run on a
single activity-gated object :class:`~repro.network.network.Network`
instead (still byte-identical; ``_delegate`` names the reason):

* flit tracing — the tracer hooks object routers and NIs;
* expected injected flits/cycle below ``REPRO_VEC_MIN_FLITS`` (default 6)
  — at low load the gated engine's visit-only-active-components loop beats
  any whole-network array op.

Configurations outside the kernel's scheme coverage raise through
:func:`~repro.sim.vec.support.require_vectorizable` at construction;
lenient fallback (e.g. for the ``REPRO_ENGINE`` default) is the caller's
job (see :func:`repro.sim.engine.run_simulation`).
"""

from __future__ import annotations

import os

from repro.network.config import NetworkConfig
from repro.network.network import Network
from repro.obs import ObservabilityConfig
from repro.sim.driver import PhaseDriver
from repro.topology import make_topology
from repro.topology.partition import grid_partition
from repro.traffic.patterns import TrafficPattern

from .domain import VecDomain
from .support import require_vectorizable

#: Environment knob: minimum expected injected flits/cycle for the SoA
#: kernel to be worth it; below this the run uses the gated engine.
MIN_FLITS_ENV = "REPRO_VEC_MIN_FLITS"
_DEFAULT_MIN_FLITS = 6.0


def _min_flits_threshold() -> float:
    raw = os.environ.get(MIN_FLITS_ENV, "").strip()
    if not raw:
        return _DEFAULT_MIN_FLITS
    try:
        return float(raw)
    except ValueError:
        raise ValueError(
            f"{MIN_FLITS_ENV} must be a number (expected injected "
            f"flits/cycle), got {raw!r}"
        ) from None


class VectorizedSimulation(PhaseDriver):
    """One network + injector + stats run on the SoA kernel."""

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
        obs: ObservabilityConfig | None = None,
    ) -> None:
        require_vectorizable(config)
        obs_config = obs if obs is not None else ObservabilityConfig.from_env()
        plen = packet_length if packet_length is not None else config.packet_length
        expected_flits = (
            min(max(injection_rate, 0.0), 1.0) * config.num_terminals * plen
        )
        #: Why this run steps a gated object network instead of the
        #: kernel, or ``None`` when it runs on the kernel.
        self._delegate: str | None = None
        if obs_config.trace:
            self._delegate = "flit tracing hooks object routers and NIs"
        elif expected_flits < _min_flits_threshold():
            self._delegate = f"expected load below {MIN_FLITS_ENV}"
        if self._delegate is None:
            topology = make_topology(config.topology, config.num_terminals)
            self.network = VecDomain(
                config, grid_partition(topology, (1, 1)), 0, topology
            )
        else:
            self.network = Network(config)
        self._wire(
            config,
            [self.network],
            pattern=pattern,
            injection_rate=injection_rate,
            packet_length=packet_length,
            seed=seed,
            burst_length=burst_length,
            fast_injection=fast_injection,
            obs=obs_config,
        )
