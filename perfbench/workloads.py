"""The benchmark's workloads: what each batch simulates, and how.

Every workload is a closed batch: one process compiles a fixed set of
scenarios, submits them all, and waits for every result.  Run lengths are
scaled down from the experiment presets so that one batch takes a few
seconds and a run holds several batches, whose medians are reported.

The workload seed picks one of :data:`SEED_SLOTS` input sets (``seed %
SEED_SLOTS``); the simulator only ever sees the traffic seed derived from
it.  Reference digests are stored for every slot, so every seed a run is
given is checked exactly.

``repro`` is imported inside functions only: the batch process clears the
``REPRO_*`` environment before the first import.
"""

from __future__ import annotations

import dataclasses
import random
from dataclasses import dataclass

#: Distinct input sets; ``--seed`` is reduced modulo this.
SEED_SLOTS = 16
#: The seed used while the benchmark was written.
DEFAULT_SEED = 1
#: A seed kept out of tuning, for re-checking claims on unseen inputs.
HELD_OUT_SEED = 9
#: Saturation injection rate of the paper's 8x8 mesh (packets/node/cycle).
SATURATION_RATE = 0.105
#: Paper's VIX-over-IF mesh saturation-throughput gain (EXPERIMENTS.md).
PAPER_VIX_GAIN = 0.162
#: The workload whose highest load gives the modelled VIX-over-IF gain.
GAIN_WORKLOAD = "mesh8_vec_sweep"


@dataclass(frozen=True)
class Workload:
    name: str
    warmup: int
    measure: int
    #: Pool workers of the parallel runner (1 = the runner runs inline).
    pool_workers: int
    #: Forked partition workers per partitioned job (0 = not partitioned).
    partition_workers: int = 0
    #: ``REPRO_*`` variables the workload sets, besides the cache dir.
    env: tuple[tuple[str, str], ...] = ()
    #: Run through ``execute_spec`` (the CLI path, cache and journal on)
    #: instead of ``run_sim_jobs`` with the cache off.
    via_spec: bool = False


WORKLOADS = {
    w.name: w
    for w in (
        Workload("mesh8_vec_sweep", warmup=150, measure=450, pool_workers=2),
        Workload(
            "mesh8_object_ladder",
            warmup=100,
            measure=300,
            pool_workers=2,
            via_spec=True,
        ),
        Workload(
            "chiplet16_vec_workers",
            warmup=150,
            measure=450,
            pool_workers=1,
            partition_workers=2,
        ),
        Workload(
            "mesh8_observed",
            warmup=150,
            measure=450,
            pool_workers=2,
            env=(("REPRO_METRICS_OUT", "{tmp}/metrics.jsonl"),),
        ),
    )
}


def run_lengths(workload: Workload, override: str | None = None) -> tuple[int, int]:
    """``(warmup, measure)``: the workload's own, or a ``"W,M"`` override."""
    if override:
        warmup, measure = (int(x) for x in override.split(","))
        return warmup, measure
    return workload.warmup, workload.measure


def scenario_seed(workload: str, seed: int) -> int:
    """The traffic seed every scenario of ``workload`` runs at."""
    return random.Random(f"{workload}/{seed % SEED_SLOTS}").randrange(1, 2**31)


def scenarios(workload: Workload) -> list:
    """The workload's :class:`ScenarioSpec` list (fixed; seed-independent)."""
    from repro.experiments.spec import ScenarioSpec

    name = workload.name
    # No scenario drains (drain_limit=0): every job then simulates the same
    # number of cycles whatever the seed, so host time measures the engine,
    # not how long one seed's measured packets take to drain.
    if name == "mesh8_vec_sweep":
        return [
            ScenarioSpec(
                key=(alloc, load),
                allocator=alloc,
                injection_rate=round(load * SATURATION_RATE, 6),
                drain_limit=0,
                engine="vectorized",
            )
            for alloc in ("input_first", "vix")
            for load in (0.5, 0.8, 1.0, 1.2)
        ]
    if name == "mesh8_object_ladder":
        # Highest rate first: the pool hands jobs out in this order, and a
        # 0.08 job costs 3-7x a 0.02 one, so the batch ends on short jobs
        # instead of one worker finishing a long job while the other idles.
        return [
            ScenarioSpec(
                key=(alloc, rate), allocator=alloc, injection_rate=rate, drain_limit=0
            )
            for rate in (0.08, 0.05, 0.02)
            for alloc in ("input_first", "vix", "wavefront", "augmenting_path")
        ]
    if name == "chiplet16_vec_workers":
        return [
            ScenarioSpec(
                key=("vix",),
                allocator="vix",
                topology="cmesh",
                num_terminals=16 * 16 * 4,
                injection_rate=SATURATION_RATE,
                drain_limit=0,
                partition="grid",
                partition_dims=(2, 2),
                link="credit",
                link_latency=4,
                domain_engine="vectorized",
            )
        ]
    if name == "mesh8_observed":
        return [
            ScenarioSpec(
                key=(alloc,),
                allocator=alloc,
                injection_rate=SATURATION_RATE,
                drain_limit=0,
                engine="vectorized",
            )
            for alloc in ("input_first", "vix")
        ]
    raise KeyError(name)


def experiment_spec(workload: Workload, seed: int):
    """The workload as an :class:`ExperimentSpec` (the CLI's input form)."""
    from repro.experiments.spec import ExperimentSpec

    return ExperimentSpec(
        name=f"perfbench-{workload.name}",
        scenarios=tuple(scenarios(workload)),
        seed=scenario_seed(workload.name, seed),
        fast=True,
    )


def sim_jobs(workload: Workload, seed: int, lengths: tuple[int, int]) -> list:
    """The workload's :class:`SimJob` list, as the batch submits it."""
    warmup, measure = lengths
    traffic_seed = scenario_seed(workload.name, seed)
    jobs = [s.sim_job(warmup, measure, traffic_seed) for s in scenarios(workload)]
    if workload.partition_workers:
        jobs = [
            dataclasses.replace(
                job,
                partition=dataclasses.replace(
                    job.partition, workers=workload.partition_workers
                ),
            )
            for job in jobs
        ]
    return jobs


def reference_job(job):
    """The same job on the object engine that serves as its reference.

    Engines are byte-identical by the simulator's contract, so stored
    digests come from an engine other than the timed one: the gated
    object engine for vectorized jobs (serial, object domains for
    partitioned ones) and the dense reference loop for object jobs.
    """
    if job.partition is not None:
        return dataclasses.replace(
            job,
            partition=dataclasses.replace(
                job.partition, domain_engine="gated", workers=1
            ),
        )
    if job.engine == "vectorized":
        return dataclasses.replace(job, engine="gated")
    return dataclasses.replace(job, engine="dense")
