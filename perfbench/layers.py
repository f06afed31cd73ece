"""Per-layer metrics of one traced batch, from the recorded spans.

Times are seconds of span time summed over every process of the batch
(coordinator, pool workers, partition workers) unless the name says
otherwise; counts are the program's own where it keeps one (result
counters), else counted at the wrapped call.  A layer the workload does
not load reads 0.
"""

from __future__ import annotations

import spans

#: The SoA stepper stages, in per-cycle order.
VEC_STAGES = ("deliver", "ni_phase", "va", "sa", "apply_grants")


def collect(tracer: spans.Tracer, results: list) -> list[dict]:
    """Every process's export: the coordinator's, then the workers'."""
    exports = [tracer.export()]
    for result in results:
        remote = result.__dict__.pop(spans.RESULT_TRACE_ATTR, None)
        if remote is not None:
            exports.append(remote)
    exports.extend(tracer.remote)
    return exports


class _Rollup:
    """Span and count totals over a set of process exports."""

    def __init__(self, exports: list[dict]) -> None:
        self.exports = exports

    def _column(self, name: str, column: int) -> float:
        return sum(
            e["rollup"].get(name, (0, 0.0, 0.0))[column] for e in self.exports
        )

    def calls(self, name: str) -> float:
        return self._column(name, 0)

    def total(self, name: str) -> float:
        return self._column(name, 1)

    def own(self, name: str) -> float:
        return self._column(name, 2)

    def count(self, name: str) -> float:
        return sum(e["counts"].get(name, 0) for e in self.exports)


def _counter(results, name: str) -> int:
    return sum(r.counters.get(name, 0) for r in results)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def metrics(workload, exports: list[dict], results: list, wall: float) -> dict:
    """The per-layer metric values (name -> number)."""
    every = _Rollup(exports)
    coordinator = _Rollup(exports[:1])
    jobs = [
        end - start
        for e in exports
        for name, start, end, _parent, _scenario in e["spans"]
        if name == "parallel.job"
    ]
    kernel_cycles = _counter(results, "vec_kernel_cycles")
    stage_s = {stage: every.total(f"vec.{stage}") for stage in VEC_STAGES}
    worker_step = [
        sum(_Rollup([e]).total(n) for n in ("vec.domain_step", "traffic.tick"))
        for e in exports
        if e["process"].startswith("partition-w")
    ]
    mean_step = _ratio(sum(worker_step), len(worker_step))
    snapshots = [r.metrics or {} for r in results]

    return {
        "experiments.spec_compile_s": every.own("experiments.spec_compile"),
        "parallel.pool_start_s": every.total("parallel.pool_start"),
        "parallel.job_s": sum(jobs),
        "parallel.job_max_s": max(jobs, default=0.0),
        "parallel.pool_idle_frac": 1.0 - sum(jobs) / (workload.pool_workers * wall),
        "parallel.result_ipc_bytes": every.count("parallel.result_ipc_bytes"),
        "parallel.cache_put_s": every.total("parallel.cache_put"),
        "parallel.journal_write_s": every.total("parallel.journal_write"),
        "parallel.cache_get_s": 0.0,
        "sim.construct_s": every.own("sim.construct"),
        "sim.cycles_skipped": _counter(results, "cycles_skipped"),
        "traffic.tick_s": every.total("traffic.tick"),
        "traffic.packets_injected": every.count("traffic.packets_injected"),
        "network.step_self_s": every.own("network.step"),
        "network.router_va_s": every.own("network.router_va"),
        "network.router_sa_s": every.own("network.router_sa"),
        "network.router_wakeups": _counter(results, "router_wakeups"),
        "core.allocate_s": every.own("core.allocate"),
        "core.allocate_calls": every.calls("core.allocate"),
        "core.grant_ratio": _ratio(
            every.count("core.grants"), every.count("core.requests")
        ),
        **{f"vec.{stage}_s": seconds for stage, seconds in stage_s.items()},
        "vec.kernel_cycles": kernel_cycles,
        "vec.us_per_kernel_cycle": _ratio(
            sum(stage_s.values()) * 1e6, kernel_cycles
        ),
        "vec.grants_per_cycle": _ratio(every.count("vec.grants"), kernel_cycles),
        "partition.epochs": _ratio(
            coordinator.count("partition.advance_messages"),
            workload.partition_workers,
        ),
        "partition.barrier_wait_s": coordinator.total("partition.recv"),
        "partition.worker_step_s": mean_step,
        "partition.worker_imbalance": _ratio(
            max(worker_step, default=0.0), mean_step
        ),
        "partition.ipc_bytes": every.count("partition.ipc_bytes"),
        "partition.ipc_s": every.total("partition.send"),
        "links.flits": _counter(results, "interchip_flits"),
        "links.credits": _counter(results, "interchip_credits"),
        "obs.delegated_runs": every.count("obs.delegated_runs"),
        "obs.probe_records": every.count("obs.probe_records"),
        "obs.finalize_s": every.total("obs.finalize"),
        "obs.matching_efficiency": _ratio(
            sum(m.get("sa_grants", 0) for m in snapshots),
            sum(m.get("sa_max_matching", 0) for m in snapshots),
        ),
    }


def warm_replay(tracer: spans.Tracer, rerun) -> tuple[float, list]:
    """Re-run a cached batch (every job a cache hit); its cache-read time."""
    before = tracer.rollup["parallel.cache_get"][1]
    results = rerun()
    return tracer.rollup["parallel.cache_get"][1] - before, results
