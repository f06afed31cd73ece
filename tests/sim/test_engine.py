"""Integration tests for the simulation engine (warmup/measure/drain)."""

import math

import pytest

from repro.network.config import NetworkConfig, RouterConfig, paper_config
from repro.network.links import PartitionConfig
from repro.sim.engine import (
    Simulation,
    is_saturated,
    run_simulation,
    saturation_throughput,
)
from repro.sim.partition import PartitionedSimulation


def small_config(allocator="input_first", **rk):
    return NetworkConfig(
        topology="mesh",
        num_terminals=16,
        router=RouterConfig(allocator=allocator, **rk),
        packet_length=4,
    )


def _vectorized(config):
    pytest.importorskip("numpy")
    from repro.sim.vec.engine import VectorizedSimulation

    return VectorizedSimulation(config)


def _partitioned(dims, workers=1):
    def build(config):
        return PartitionedSimulation(
            config, partition=PartitionConfig(dims=dims, workers=workers)
        )

    return build


#: Engine constructors over the full engine matrix, by test id.
ENGINES = {
    "dense": lambda config: Simulation(config, activity_gating=False),
    "gated": Simulation,
    "vectorized": _vectorized,
    "partitioned-1x1": _partitioned((1, 1)),
    "partitioned-2x2": _partitioned((2, 2)),
    "partitioned-2x2-workers2": _partitioned((2, 2), workers=2),
}


class TestBasicRuns:
    def test_low_load_drains_and_measures(self):
        res = run_simulation(
            small_config(), injection_rate=0.02, seed=3, warmup=200, measure=400
        )
        assert res.drained
        assert res.packets_created > 0
        assert res.packets_ejected > 0
        assert not math.isnan(res.avg_latency)
        assert res.avg_latency > 10  # several hops of pipeline
        assert 0 < res.throughput_packets_per_node < 0.05

    def test_throughput_tracks_offered_load_below_saturation(self):
        res = run_simulation(
            small_config(), injection_rate=0.03, seed=5, warmup=300, measure=800
        )
        assert res.throughput_packets_per_node == pytest.approx(0.03, rel=0.25)

    def test_latency_grows_with_load(self):
        lat = {}
        for rate in (0.01, 0.08):
            res = run_simulation(
                small_config(), injection_rate=rate, seed=3,
                warmup=300, measure=600,
            )
            lat[rate] = res.avg_latency
        assert lat[0.08] > lat[0.01]

    def test_deterministic_given_seed(self):
        a = run_simulation(small_config(), injection_rate=0.05, seed=11,
                           warmup=100, measure=300)
        b = run_simulation(small_config(), injection_rate=0.05, seed=11,
                           warmup=100, measure=300)
        assert a.avg_latency == b.avg_latency
        assert a.per_source_ejected == b.per_source_ejected

    def test_seeds_change_outcomes(self):
        a = run_simulation(small_config(), injection_rate=0.05, seed=1,
                           warmup=100, measure=300)
        b = run_simulation(small_config(), injection_rate=0.05, seed=2,
                           warmup=100, measure=300)
        assert a.avg_latency != b.avg_latency

    @pytest.mark.parametrize("engine", sorted(ENGINES))
    def test_validation(self, engine):
        """Every engine rejects bad windows (the run loop validates once)."""
        sim = ENGINES[engine](small_config())
        with pytest.raises(ValueError):
            sim.run(warmup=-1, measure=100)
        with pytest.raises(ValueError):
            sim.run(warmup=0, measure=0)


class TestSaturation:
    def test_saturation_throughput_bounded(self):
        res = saturation_throughput(small_config(), seed=3, warmup=300, measure=600)
        thr = res.throughput_flits_per_node
        # 4x4 mesh capacity under uniform random is well below 1 flit/node.
        assert 0.2 < thr < 1.0

    def test_is_saturated_flags_overload(self):
        res = saturation_throughput(small_config(), seed=3, warmup=200, measure=400)
        assert is_saturated(res)
        low = run_simulation(small_config(), injection_rate=0.01, seed=3,
                             warmup=200, measure=400)
        assert not is_saturated(low)

    def test_vix_outperforms_if_at_saturation(self):
        """The headline claim holds on the small mesh too."""
        thr = {}
        for alloc in ("input_first", "vix"):
            cfg = small_config(allocator=alloc,
                               vc_policy="vix_dimension" if alloc == "vix" else "max_credit")
            res = saturation_throughput(cfg, seed=3, warmup=400, measure=800)
            thr[alloc] = res.throughput_flits_per_node
        assert thr["vix"] > thr["input_first"] * 1.05


class TestPaperConfigIntegration:
    def test_full_64_node_mesh_runs(self):
        res = run_simulation(
            paper_config("if"), injection_rate=0.02, seed=3,
            warmup=100, measure=200,
        )
        assert res.drained
        assert res.packets_ejected > 50
