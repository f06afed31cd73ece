"""One closed batch of one workload, in a process of its own.

``run.py`` starts this script once per batch with a cleaned environment
and the monotonic time at which it launched it.  The batch compiles the
workload's scenarios, submits them all, waits for every result, and
prints one JSON record on its last stdout line: per-scenario digests,
the timestamps that delimit set-up and the batch, the simulated work
done, peak memory and, traced, the per-layer numbers.

With ``--reference`` it instead runs every job on its reference engine
(see :func:`workloads.reference_job`) and prints only the digests; that
is how the stored reference digests are made.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import resource
import sys
import time
import traceback

import digests
import layers
import spans
from workloads import (
    GAIN_WORKLOAD,
    WORKLOADS,
    Workload,
    experiment_spec,
    reference_job,
    run_lengths,
    sim_jobs,
)


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--lengths", required=True, help="warmup,measure")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0", type=float, default=None)
    parser.add_argument("--reference", action="store_true")
    args = parser.parse_args(argv)
    args.lengths = run_lengths(WORKLOADS[args.workload], args.lengths)
    return args


def _label(result) -> str:
    return spans.scenario_label(result.allocator, result.injection_rate)


def _routers(result) -> int:
    from repro.topology import make_topology

    return make_topology(result.topology, len(result.per_source_ejected)).num_routers


def _run(workload: Workload, seed: int, lengths: tuple[int, int]) -> list:
    """Compile and run the batch; results in scenario order."""
    from repro.parallel import run_sim_jobs

    if workload.via_spec:
        from repro.experiments import runner

        # execute_spec reads its run lengths from the fidelity preset;
        # the benchmark's scaled lengths replace the fast one.
        runner.FAST = dataclasses.replace(
            runner.FAST, warmup=lengths[0], measure=lengths[1]
        )
        spec = experiment_spec(workload, seed)
        outcome = runner.execute_spec(spec, jobs=workload.pool_workers, resume=False)
        return [outcome.values[s.key] for s in spec.scenarios]
    jobs = sim_jobs(workload, seed, lengths)
    return run_sim_jobs(jobs, jobs=workload.pool_workers, cache=None)


def _reference(workload: Workload, seed: int, lengths: tuple[int, int]) -> dict:
    from repro.parallel import run_sim_jobs

    jobs = sim_jobs(workload, seed, lengths)
    results = run_sim_jobs([reference_job(job) for job in jobs], jobs=2, cache=None)
    return {_label(result): digests.digest(result) for result in results}


def _gain(results: list) -> float:
    """VIX-over-IF accepted throughput at the highest offered load."""
    top = max(r.injection_rate for r in results)
    accepted = {
        r.allocator: r.throughput_flits for r in results if r.injection_rate == top
    }
    return accepted["vix"] / accepted["input_first"] - 1.0


def main(argv=None) -> int:
    args = _parse(argv)
    workload = WORKLOADS[args.workload]
    try:
        if args.reference:
            record = {"scenarios": _reference(workload, args.seed, args.lengths)}
            print(json.dumps(record))
            return 0
        marker, tracer = spans.install(
            trace=bool(args.trace), partition=workload.partition_workers > 0
        )
        results = _run(workload, args.seed, args.lengths)
        t_end = time.monotonic()
        rss_kb = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        )
        labels = [_label(result) for result in results]
        if workload.partition_workers:
            first_cycle = marker.first_cycle
        else:
            first_cycle = min(getattr(r, spans.RESULT_START_ATTR) for r in results)
        record = {
            "t_end": t_end,
            "first_cycle": first_cycle,
            "scenarios": {
                label: digests.digest(result)
                for label, result in zip(labels, results)
            },
            "router_cycles": sum(r.cycles * _routers(r) for r in results),
            "flits": sum(r.counters["flits_ejected"] for r in results),
            "rss_kb": rss_kb,
            "vix_gain": _gain(results) if workload.name == GAIN_WORKLOAD else None,
        }
        if tracer is not None:
            exports = layers.collect(tracer, results)
            record["layers"] = layers.metrics(
                workload, exports, results, t_end - args.t0
            )
            if workload.via_spec:
                record["layers"]["parallel.cache_get_s"], replay = layers.warm_replay(
                    tracer, lambda: _run(workload, args.seed, args.lengths)
                )
                for label, result in zip(labels, replay):
                    if digests.digest(result) != record["scenarios"][label]:
                        record["scenarios"][label] = "cache-replay-mismatch"
            record["exports"] = exports
    except Exception:
        print(json.dumps({"error": traceback.format_exc()}))
        return 1
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
