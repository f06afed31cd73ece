"""Vectorized engine: byte-identical results, state drift guard, capability
gating, and the engine axis in cache identities.

The contract under test (ISSUE 7 tentpole): for every configuration the
SoA kernel supports, ``engine="vectorized"`` must produce **byte-identical**
``SimulationResult``s to the dense object loop — same RNG stream, same
latencies, same activity counters (modulo the scheduling bookkeeping that
measures the engines themselves).  Everything it cannot support must fail
loudly with the registry-style error naming the engines that can.
"""

from __future__ import annotations

import dataclasses
import gc
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

np = pytest.importorskip("numpy")

from repro.core.arbiter import rr_winner
from repro.core.matching import maximum_matching_size
from repro.network.config import NetworkConfig, RouterConfig
from repro.network.links import PartitionConfig
from repro.obs import ObservabilityConfig
from repro.registry import UnknownSchemeError
from repro.sim.engine import run_simulation
from repro.sim.partition import PartitionedSimulation
from repro.sim.vec import (
    SUPPORTED_ALLOCATORS,
    vectorization_unsupported_reason,
)
from repro.sim.vec.engine import VectorizedSimulation
from repro.sim.vec.kernels import max_matching_total, rr_pick

#: Counters measuring the engines themselves: allowed to differ (the dense
#: loop never sleeps or runs the kernel, so it never counts either).
ENGINE_COUNTERS = ("router_wakeups", "cycles_skipped", "vec_kernel_cycles")

#: (allocator, vc_policy, virtual_inputs) points covering both separable
#: phases, the VIX sub-group axis, and the ideal (per-VC) crossbar.
SCHEMES = (
    ("input_first", "max_credit", 1),
    ("input_first", "vix_dimension", 1),
    ("output_first", "max_credit", 1),
    ("vix", "vix_dimension", 2),
    ("ideal_vix", "vix_dimension", 4),
)

RATES = (("0.05", 0.05), ("saturation", 1.0))
SEEDS = (1, 2)


def _config(
    allocator: str,
    vc_policy: str,
    virtual_inputs: int,
    topology: str = "mesh",
    num_terminals: int = 16,
) -> NetworkConfig:
    return NetworkConfig(
        topology=topology,
        num_terminals=num_terminals,
        router=RouterConfig(
            num_vcs=4,
            allocator=allocator,
            virtual_inputs=virtual_inputs,
            vc_policy=vc_policy,
        ),
    )


def _comparable(result) -> dict:
    """SimulationResult as a dict, engine-bookkeeping counters removed."""
    d = dataclasses.asdict(result)
    for key in ENGINE_COUNTERS:
        d["counters"].pop(key, None)
    return d


WINDOWS = dict(warmup=100, measure=300, drain_limit=300)


@pytest.fixture(autouse=True)
def _no_delegation(monkeypatch):
    """Force the SoA kernel even at low load (delegation is tested apart)."""
    monkeypatch.setenv("REPRO_VEC_MIN_FLITS", "0")


class TestDenseVectorizedEquivalence:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("rate_label,rate", RATES, ids=[r[0] for r in RATES])
    @pytest.mark.parametrize(
        "allocator,vc_policy,virtual_inputs",
        SCHEMES,
        ids=[f"{s[0]}-{s[1]}" for s in SCHEMES],
    )
    def test_matrix(self, allocator, vc_policy, virtual_inputs, rate_label,
                    rate, seed):
        cfg = _config(allocator, vc_policy, virtual_inputs)
        kwargs = dict(injection_rate=rate, seed=seed, **WINDOWS)
        dense = run_simulation(cfg, engine="dense", **kwargs)
        vec = run_simulation(cfg, engine="vectorized", **kwargs)
        assert _comparable(dense) == _comparable(vec)

    def test_concentrated_mesh(self):
        cfg = _config("vix", "vix_dimension", 2, topology="cmesh",
                      num_terminals=16)
        kwargs = dict(injection_rate=1.0, seed=3, **WINDOWS)
        dense = run_simulation(cfg, engine="dense", **kwargs)
        vec = run_simulation(cfg, engine="vectorized", **kwargs)
        assert _comparable(dense) == _comparable(vec)

    def test_kernel_actually_ran(self):
        cfg = _config("input_first", "max_credit", 1)
        vec = run_simulation(cfg, engine="vectorized", injection_rate=1.0,
                             seed=1, **WINDOWS)
        assert vec.counters["vec_kernel_cycles"] > 0


class TestFlowStateDriftGuard:
    """Engines must agree on *state*, not just results: byte-identical
    output could in principle hide compensating credit/pointer errors."""

    @pytest.mark.parametrize("allocator,vc_policy,virtual_inputs",
                             SCHEMES[::2], ids=[SCHEMES[i][0] for i in (0, 2, 4)])
    def test_state_matches_after_identical_runs(self, allocator, vc_policy,
                                                virtual_inputs):
        from repro.sim.engine import Simulation

        cfg = _config(allocator, vc_policy, virtual_inputs)
        kwargs = dict(pattern="uniform", injection_rate=1.0, seed=5)
        dense = Simulation(cfg, activity_gating=False, **kwargs)
        dense.run(**WINDOWS)
        vec = VectorizedSimulation(cfg, **kwargs)
        vec.run(**WINDOWS)
        assert dense.flow_state() == vec.flow_state()

    def test_roundtrip(self):
        import json

        from repro.network.state import export_flow_state, import_flow_state
        from repro.sim.engine import Simulation

        cfg = _config("vix", "vix_dimension", 2)
        sim = Simulation(cfg, injection_rate=0.5, seed=2)
        sim.run(**WINDOWS)
        state = sim.flow_state()
        json.dumps(state)  # plain data, serializable as-is
        fresh = Simulation(cfg, injection_rate=0.5, seed=2)
        import_flow_state(fresh.network, state)
        assert export_flow_state(fresh.network) == state

    def test_import_rejects_mismatched_shape(self):
        from repro.network.state import import_flow_state
        from repro.sim.engine import Simulation

        small = Simulation(_config("input_first", "max_credit", 1,
                                   num_terminals=4))
        big = Simulation(_config("input_first", "max_credit", 1))
        with pytest.raises(ValueError, match="routers"):
            import_flow_state(big.network, small.flow_state())


class TestCapabilityGating:
    @pytest.mark.parametrize("allocator", ("wavefront", "packet_chaining"))
    def test_unsupported_allocator_raises(self, allocator):
        cfg = NetworkConfig(
            topology="mesh",
            num_terminals=16,
            router=RouterConfig(num_vcs=4, allocator=allocator),
        )
        with pytest.raises(UnknownSchemeError) as exc:
            run_simulation(cfg, engine="vectorized", injection_rate=0.1,
                           warmup=10, measure=10)
        # The error names the engines that *can* run the configuration.
        assert "dense" in str(exc.value) and "gated" in str(exc.value)

    def test_torus_dateline_masking_raises(self):
        cfg = NetworkConfig(
            topology="torus",
            num_terminals=16,
            router=RouterConfig(num_vcs=4, allocator="input_first"),
        )
        assert vectorization_unsupported_reason(cfg) is not None
        with pytest.raises(UnknownSchemeError, match="allowed_vcs"):
            run_simulation(cfg, engine="vectorized", injection_rate=0.1,
                           warmup=10, measure=10)

    def test_supported_reason_is_none(self):
        for allocator, vc_policy, virtual_inputs in SCHEMES:
            cfg = _config(allocator, vc_policy, virtual_inputs)
            assert vectorization_unsupported_reason(cfg) is None
        assert set(a for a, _, _ in SCHEMES) == set(SUPPORTED_ALLOCATORS)

    def test_env_default_falls_back_leniently(self, monkeypatch):
        """REPRO_ENGINE=vectorized must not break non-vectorizable schemes:
        the environment default is a preference, not a hard selection —
        but the substitution is announced with a RuntimeWarning."""
        monkeypatch.setenv("REPRO_ENGINE", "vectorized")
        cfg = NetworkConfig(
            topology="mesh",
            num_terminals=16,
            router=RouterConfig(num_vcs=4, allocator="wavefront"),
        )
        with pytest.warns(RuntimeWarning, match="'gated' engine instead"):
            result = run_simulation(cfg, injection_rate=0.1, seed=1, warmup=50,
                                    measure=100, drain_limit=200)
        assert result.packets_ejected > 0

    def test_engine_alias_canonicalizes(self):
        cfg = _config("input_first", "max_credit", 1)
        kwargs = dict(injection_rate=0.3, seed=1, **WINDOWS)
        via_alias = run_simulation(cfg, engine="vec", **kwargs)
        via_name = run_simulation(cfg, engine="vectorized", **kwargs)
        assert _comparable(via_alias) == _comparable(via_name)


class TestDelegation:
    def test_low_load_delegates_to_gated(self, monkeypatch):
        monkeypatch.delenv("REPRO_VEC_MIN_FLITS", raising=False)
        cfg = _config("input_first", "max_credit", 1)
        sim = VectorizedSimulation(cfg, injection_rate=0.01, seed=1)
        assert sim._delegate is not None
        result = sim.run(**WINDOWS)
        dense = run_simulation(cfg, engine="dense", injection_rate=0.01,
                               seed=1, **WINDOWS)
        assert _comparable(result) == _comparable(dense)

    def test_saturation_does_not_delegate(self):
        cfg = _config("input_first", "max_credit", 1, num_terminals=64)
        sim = VectorizedSimulation(cfg, injection_rate=1.0, seed=1)
        assert sim._delegate is None

    def test_metrics_do_not_delegate(self):
        cfg = _config("input_first", "max_credit", 1, num_terminals=64)
        sim = VectorizedSimulation(
            cfg, injection_rate=1.0, seed=1, obs=ObservabilityConfig(metrics=True)
        )
        assert sim._delegate is None

    def test_malformed_min_flits_raises(self, monkeypatch):
        monkeypatch.setenv("REPRO_VEC_MIN_FLITS", "six")
        cfg = _config("input_first", "max_credit", 1)
        with pytest.raises(ValueError, match="REPRO_VEC_MIN_FLITS"):
            VectorizedSimulation(cfg, injection_rate=1.0, seed=1)

    def test_trace_still_delegates(self):
        cfg = _config("input_first", "max_credit", 1, num_terminals=64)
        sim = VectorizedSimulation(
            cfg,
            injection_rate=1.0,
            seed=1,
            obs=ObservabilityConfig(metrics=True, trace=True),
        )
        assert sim._delegate is not None


class TestReleasedByRefcount:
    """A finished run's networks are freed as soon as the simulation is
    deleted — no reference cycle leaves the SoA tensors to cyclic GC."""

    @pytest.mark.parametrize("dims", [None, (2, 2)], ids=["monolithic", "2x2"])
    def test_networks_freed_without_cyclic_gc(self, dims):
        cfg = _config("input_first", "max_credit", 1)
        if dims is None:
            sim = VectorizedSimulation(cfg, injection_rate=1.0, seed=1)
            assert sim._delegate is None
        else:
            sim = PartitionedSimulation(
                cfg,
                partition=PartitionConfig(dims=dims, domain_engine="vectorized"),
                injection_rate=1.0,
                seed=1,
            )
        gc.disable()
        try:
            sim.run(warmup=20, measure=40, drain_limit=0)
            refs = [weakref.ref(dom) for dom in sim.domains]
            del sim
            assert [r() for r in refs] == [None] * len(refs)
        finally:
            gc.enable()


#: (allocator, vc_policy, virtual_inputs) for the metrics suite: IF, OF,
#: VIX and ideal VIX.
METRIC_SCHEMES = (
    ("input_first", "max_credit", 1),
    ("output_first", "max_credit", 1),
    ("vix", "vix_dimension", 2),
    ("ideal_vix", "vix_dimension", 4),
)


class TestMetricsEquivalence:
    """Metrics-on runs stay on the kernel, and its allocator probe counts
    exactly what the object allocators' probes count."""

    @pytest.mark.parametrize("rate", [0.2, 1.0], ids=["mid", "saturation"])
    @pytest.mark.parametrize("topology", ["mesh", "cmesh"])
    @pytest.mark.parametrize(
        "allocator,vc_policy,virtual_inputs",
        METRIC_SCHEMES,
        ids=[s[0] for s in METRIC_SCHEMES],
    )
    def test_metrics_match_gated(self, allocator, vc_policy, virtual_inputs,
                                 topology, rate):
        cfg = _config(allocator, vc_policy, virtual_inputs, topology=topology)
        kwargs = dict(
            injection_rate=rate,
            seed=1,
            obs=ObservabilityConfig(metrics=True),
            **WINDOWS,
        )
        gated = run_simulation(cfg, engine="gated", **kwargs)
        vec = run_simulation(cfg, engine="vectorized", **kwargs)
        assert vec.counters["vec_kernel_cycles"] > 0
        if allocator != "output_first":  # OF records no rounds on any engine
            assert gated.metrics["sa_rounds"] > 0

        def strip(metrics):
            return {k: v for k, v in metrics.items() if k not in ENGINE_COUNTERS}

        assert strip(vec.metrics) == strip(gated.metrics)


class TestArbiterDriftGuard:
    """The batched round-robin rule is pinned to the scalar definition."""

    def test_rr_pick_matches_rr_winner(self):
        rng = np.random.default_rng(0)
        n = 7
        mask = rng.random((64, n)) < 0.4
        ptr = rng.integers(0, n, 64)
        picked = rr_pick(mask, ptr, n)
        for row in range(64):
            requests = np.flatnonzero(mask[row]).tolist()
            expected = rr_winner(int(ptr[row]), requests, n)
            if expected is None:
                continue  # no requester: rr_pick's 0 is masked by callers
            assert picked[row] == expected


@st.composite
def _request_sets(draw):
    """Random SA rounds: requests ``(router, crossbar input, output)`` and,
    per router, the size of *some* matching on them (a greedy matching cut
    short at random, so both the bound shortcut and the search run)."""
    routers = draw(st.integers(1, 4))
    inputs = draw(st.integers(1, 6))
    outputs = draw(st.integers(1, 5))
    cells = st.tuples(
        st.integers(0, routers - 1),
        st.integers(0, inputs - 1),
        st.integers(0, outputs - 1),
    )
    reqs = draw(st.lists(cells, max_size=40))
    ngroups = [len({g for r, g, _ in reqs if r == rr}) for rr in range(routers)]
    ngrants = []
    for rr in range(routers):
        used_g, used_o = set(), set()
        for r, g, o in reqs:
            if r == rr and g not in used_g and o not in used_o:
                used_g.add(g)
                used_o.add(o)
        ngrants.append(draw(st.integers(0, len(used_g))))
    return routers, inputs, outputs, reqs, ngroups, ngrants


class TestMaxMatchingDriftGuard:
    """The SoA probe's max-matching path is pinned to the object probes'
    reference, :func:`maximum_matching_size`, router by router."""

    @settings(max_examples=300, deadline=None)
    @given(_request_sets())
    def test_matches_maximum_matching_size(self, case):
        routers, inputs, outputs, reqs, ngroups, ngrants = case
        expected = sum(
            maximum_matching_size(
                [{o for r, g, o in reqs if (r, g) == (rr, gg)}
                 for gg in {g for r, g, _ in reqs if r == rr}],
                outputs,
            )
            for rr in range(routers)
        )
        rid = np.array([r for r, _, _ in reqs], dtype=np.int64)
        grp = np.array([r * inputs + g for r, g, _ in reqs], dtype=np.int64)
        out = np.array([o for _, _, o in reqs], dtype=np.int64)
        got = max_matching_total(
            rid, grp, out, np.array(ngroups), np.array(ngrants), outputs
        )
        assert got == expected


class TestEngineInCacheIdentity:
    def test_sim_job_key_includes_engine(self):
        from repro.parallel import SimJob

        cfg = _config("input_first", "max_credit", 1)
        base = SimJob(cfg, injection_rate=0.1)
        vec = SimJob(cfg, injection_rate=0.1, engine="vectorized")
        alias = SimJob(cfg, injection_rate=0.1, engine="vec")
        assert base.key() != vec.key()
        assert alias.key() == vec.key()  # aliases share one cache identity
        assert vec.spec()["engine"] == "vectorized"

    def test_scenario_spec_engine_roundtrip(self):
        from repro.experiments.spec import ExperimentSpec, ScenarioSpec

        scenario = ScenarioSpec(key=("x",), engine="vec")
        assert scenario.engine == "vectorized"  # canonicalized at build
        rebuilt = ScenarioSpec.from_dict(scenario.to_dict())
        assert rebuilt == scenario
        assert scenario.to_dict()["engine"] == "vectorized"
        spec = ExperimentSpec(name="t", scenarios=(scenario,))
        other = ExperimentSpec(
            name="t", scenarios=(ScenarioSpec(key=("x",), engine="dense"),)
        )
        assert spec.content_key() != other.content_key()
        assert "vectorized" in spec.canonical_json()

    def test_scenario_spec_default_engine_is_runtime(self):
        from repro.experiments.spec import ScenarioSpec

        scenario = ScenarioSpec(key=("x",))
        assert scenario.engine == ""
        assert scenario.sim_job(10, 10, 1).engine is None
