"""Span recording around calls into the simulator's layers.

The benchmark measures the program from outside: every span is recorded
by a wrapper this module installs around a public function or method of
a ``repro`` layer (engine constructors, ``Network.step``, the allocators,
the SoA stepper stages, the result cache, ...).  Nothing in ``repro`` is
edited.

Two kinds of span share one :class:`Tracer`:

* *hot* spans wrap per-cycle calls (router stages, kernels).  They are
  rolled up in memory per name as ``[calls, total_s, self_s]``; storing
  millions of individual records would cost more than the calls.
* *coarse* spans wrap once-per-job calls (engine construction, a job, a
  cache write).  Each is kept as a full record ``(name, start, end,
  parent, scenario)`` as well as rolled up.

Self time is a span's duration minus the time its child spans cover, so
the self times of one process never sum to more than its wall time.

Worker processes are forked from the batch process, so they inherit the
wrappers.  Each worker resets its copy of the tracer when it starts
work and ships its export back on a message the program already sends:
pool workers attach it to the ``SimulationResult`` they return (an extra
instance attribute pickles along and is dropped by the result cache),
and partition workers add a key to their final statistics payload.

:class:`Marker` is the always-on part: it timestamps the first simulated
cycle of a batch (the end of set-up) at one call per job, so untraced
runs measure set-up without tracing.
"""

from __future__ import annotations

import functools
import os
import pickle
import time

#: Attribute carrying a worker's export on a returned SimulationResult.
RESULT_TRACE_ATTR = "_perfbench_trace"
#: Attribute carrying a job's first-cycle timestamp on its result.
RESULT_START_ATTR = "_perfbench_first_cycle"
#: Key carrying a partition worker's export on its final payload.
PAYLOAD_TRACE_KEY = "_perfbench_trace"

_clock = time.monotonic


class Tracer:
    """In-memory span store for one process."""

    def __init__(self, process: str) -> None:
        self.process = process
        self.rollup: dict[str, list] = {}
        self.counts: dict[str, float] = {}
        self.spans: list[tuple] = []
        #: Child-time accumulators of the open spans, innermost last.
        self.stack: list[float] = []
        #: Names of the open coarse spans (parents of new coarse spans).
        self.coarse: list[str] = []
        self.scenario: str | None = None
        #: Exports received from worker processes (coordinator only).
        self.remote: list[dict] = []

    def reset(self, process: str) -> None:
        """Start afresh in a forked worker.

        Rollup lists are zeroed in place: the installed wrappers hold
        references to them.
        """
        self.process = process
        for entry in self.rollup.values():
            entry[0] = 0
            entry[1] = 0.0
            entry[2] = 0.0
        self.counts.clear()
        self.spans.clear()
        self.stack.clear()
        self.coarse.clear()
        self.scenario = None
        self.remote.clear()

    def count(self, name: str, value: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def export(self) -> dict:
        return {
            "process": self.process,
            "pid": os.getpid(),
            "rollup": {k: list(v) for k, v in self.rollup.items() if v[0]},
            "counts": dict(self.counts),
            "spans": list(self.spans),
        }

    # --- wrappers ------------------------------------------------------------

    def wrap(self, fn, name: str, *, coarse: bool = False, observe=None):
        """A wrapper timing ``fn`` as span ``name``.

        ``observe(args, result)``, when given, runs after the span closes
        (outside the timed interval) to record counts.
        """
        entry = self.rollup.setdefault(name, [0, 0.0, 0.0])
        stack = self.stack
        clock = _clock

        if coarse:
            tracer = self

            def wrapper(*args, **kwargs):
                parent = tracer.coarse[-1] if tracer.coarse else tracer.process
                tracer.coarse.append(name)
                stack.append(0.0)
                start = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end = clock()
                    child = stack.pop()
                    tracer.coarse.pop()
                    duration = end - start
                    entry[0] += 1
                    entry[1] += duration
                    entry[2] += duration - child
                    if stack:
                        stack[-1] += duration
                    tracer.spans.append(
                        (name, start, end, parent, tracer.scenario)
                    )
                if observe is not None:
                    observe(args, result)
                return result

        else:

            def wrapper(*args, **kwargs):
                stack.append(0.0)
                start = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    duration = clock() - start
                    child = stack.pop()
                    entry[0] += 1
                    entry[1] += duration
                    entry[2] += duration - child
                    if stack:
                        stack[-1] += duration
                if observe is not None:
                    observe(args, result)
                return result

        return functools.wraps(fn)(wrapper)

    def patch(self, owner, attr: str, name: str, **kwargs) -> None:
        """Replace ``owner.attr`` (a function or method) with its wrapper."""
        setattr(owner, attr, self.wrap(getattr(owner, attr), name, **kwargs))


class Marker:
    """Timestamp of the batch's first simulated cycle (always on)."""

    def __init__(self) -> None:
        self.first_cycle: float | None = None

    def note(self, when: float) -> None:
        if self.first_cycle is None or when < self.first_cycle:
            self.first_cycle = when

    def wrap_run(self, run):
        """Wrap an engine's ``run``: its entry is the job's first cycle."""

        @functools.wraps(run)
        def wrapper(*args, **kwargs):
            when = _clock()
            result = run(*args, **kwargs)
            # A delegating engine's inner run is stamped later than its own.
            prior = getattr(result, RESULT_START_ATTR, None)
            if prior is None or when < prior:
                setattr(result, RESULT_START_ATTR, when)
            return result

        return wrapper


# The installed tracer of this process.  Pool workers unpickle the job
# functions below by reference, so those functions must reach the state
# through module globals; they are set once per batch process by
# :func:`install` and inherited by forked workers.
_TRACER: Tracer | None = None
_ORIGINAL: dict = {}


def traced_run_batch(fn, batch):
    """Pool-worker replacement for ``repro.parallel.runner._run_batch``.

    A serial runner calls it in the batch process itself, where the
    spans already land in the coordinator's tracer and nothing crosses a
    process boundary.
    """
    if os.getpid() == _ORIGINAL["coordinator_pid"]:
        return _ORIGINAL["run_batch"](fn, batch)
    tracer = _TRACER
    tracer.reset(f"pool-{os.getpid()}")
    out = _ORIGINAL["run_batch"](fn, batch)
    tracer.count("parallel.result_ipc_bytes", len(pickle.dumps(out, -1)))
    if out:
        setattr(out[0][0], RESULT_TRACE_ATTR, tracer.export())
    return out


def traced_run_sim_job(job):
    """Pool-worker replacement for ``repro.parallel.runner._run_sim_job``."""
    tracer = _TRACER
    tracer.scenario = scenario_label(job.config.router.allocator, job.injection_rate)
    try:
        return _ORIGINAL["run_sim_job"](job)
    finally:
        tracer.scenario = None


def traced_worker_main(sim, domain_ids, conn, worker_index):
    """Partition-worker replacement for ``workers._worker_main``."""
    _TRACER.reset(f"partition-w{worker_index}")
    return _ORIGINAL["worker_main"](sim, domain_ids, conn, worker_index)


def scenario_label(allocator: str, rate: float) -> str:
    """Short scenario id, unique within a workload: ``allocator@rate``."""
    return f"{allocator}@{rate:g}"


def install(*, trace: bool, partition: bool) -> tuple[Marker, Tracer | None]:
    """Install the marker (always) and, with ``trace``, every span wrapper.

    Must run in the batch process before any engine is built or any
    worker is forked.  Returns the marker and the coordinator's tracer
    (``None`` when untraced).
    """
    global _TRACER
    from multiprocessing import connection as mpc

    from repro.sim.engine import Simulation
    from repro.sim.partition.engine import PartitionedSimulation
    from repro.sim.vec.engine import VectorizedSimulation

    marker = Marker()
    tracer = _TRACER = Tracer("coordinator") if trace else None

    if partition:
        _install_pipe(marker, tracer, mpc.Connection)
    for cls in (Simulation, VectorizedSimulation, PartitionedSimulation):
        run = cls.run
        if tracer is not None:
            run = tracer.wrap(run, "sim.run", coarse=True)
        cls.run = marker.wrap_run(run)
    if tracer is not None:
        _install_layers(tracer)
    return marker, tracer


def _install_pipe(marker: Marker, tracer: Tracer | None, conn_cls) -> None:
    """Wrap the partition pipe: first ``advance`` is the first cycle.

    Traced, it also times pickle+send (``partition.send``), counts the
    bytes written, times the coordinator's blocking receives (the epoch
    barrier) and carries the worker exports home.
    """
    send = conn_cls.send
    recv = conn_cls.recv
    send_bytes = conn_cls._send_bytes

    def marked_send(self, obj):
        if type(obj) is tuple and obj[0] == "advance":
            marker.note(_clock())
            if tracer is not None:
                tracer.count("partition.advance_messages")
        elif (
            tracer is not None
            and type(obj) is dict
            and "stats" in obj
            and tracer.process.startswith("partition-w")
        ):
            # A worker's final statistics payload carries its spans home.
            obj[PAYLOAD_TRACE_KEY] = tracer.export()
        return timed_send(self, obj)

    timed_send = send
    if tracer is not None:
        timed_send = tracer.wrap(send, "partition.send")
        timed_recv = tracer.wrap(recv, "partition.recv")

        def counted_send_bytes(self, buf):
            tracer.count("partition.ipc_bytes", len(buf))
            return send_bytes(self, buf)

        def traced_recv(self):
            obj = timed_recv(self)
            if type(obj) is dict and PAYLOAD_TRACE_KEY in obj:
                tracer.remote.append(obj.pop(PAYLOAD_TRACE_KEY))
            return obj

        conn_cls._send_bytes = counted_send_bytes
        conn_cls.recv = traced_recv
    conn_cls.send = marked_send


def _install_layers(tracer: Tracer) -> None:
    """Span wrappers around each layer's public calls."""
    from repro.core.allocator import SwitchAllocator
    from repro.experiments import runner as exp_runner
    from repro.experiments.spec import ExperimentSpec, ScenarioSpec
    from repro.network.network import Network
    from repro.network.router import Router
    from repro.obs import Observability
    from repro.obs.probes import AllocatorProbe
    from repro.parallel import runner as par_runner
    from repro.parallel.cache import ResultCache
    from repro.parallel.journal import RunJournal
    from repro.sim.engine import Simulation
    from repro.sim.partition import workers as part_workers
    from repro.sim.partition.engine import PartitionedSimulation
    from repro.sim.vec import stepping
    from repro.sim.vec.domain import VecDomain
    from repro.sim.vec.engine import VectorizedSimulation
    from repro.traffic.injector import TrafficInjector

    patch = tracer.patch
    count = tracer.count

    # repro.experiments: spec validation, job realization, content keys.
    patch(ScenarioSpec, "__post_init__", "experiments.spec_compile")
    patch(ScenarioSpec, "sim_job", "experiments.spec_compile")
    patch(ExperimentSpec, "content_key", "experiments.spec_compile")
    patch(exp_runner, "execute_spec", "experiments.execute_spec", coarse=True)

    # repro.parallel: batch, pool start, jobs, cache and journal.
    patch(par_runner.ParallelRunner, "run", "parallel.run", coarse=True)
    par_runner.ProcessPoolExecutor = _traced_pool(
        par_runner.ProcessPoolExecutor, tracer
    )
    _ORIGINAL["run_batch"] = par_runner._run_batch
    _ORIGINAL["coordinator_pid"] = os.getpid()
    par_runner._run_batch = traced_run_batch
    _ORIGINAL["run_sim_job"] = tracer.wrap(
        par_runner._run_sim_job, "parallel.job", coarse=True
    )
    par_runner._run_sim_job = traced_run_sim_job
    patch(ResultCache, "put", "parallel.cache_put", coarse=True)
    patch(ResultCache, "get", "parallel.cache_get", coarse=True)
    patch(RunJournal, "record", "parallel.journal_write", coarse=True)

    # repro.sim: engine construction (the run span is the marker's).
    def delegated(args, _result):
        if args[0]._delegate is not None:
            count("obs.delegated_runs")

    patch(Simulation, "__init__", "sim.construct", coarse=True)
    patch(PartitionedSimulation, "__init__", "sim.construct", coarse=True)
    patch(
        VectorizedSimulation, "__init__", "sim.construct", coarse=True,
        observe=delegated,
    )

    # repro.traffic
    def injected(_args, accepted):
        count("traffic.packets_injected", accepted)

    patch(TrafficInjector, "tick", "traffic.tick", observe=injected)

    # repro.network (object engine): step minus its router children.
    patch(Network, "step", "network.step")
    patch(Router, "vc_allocate", "network.router_va")
    patch(Router, "switch_allocate", "network.router_sa")

    # repro.core: every allocator class that defines its own entry points.
    def granted(args, grants):
        count("core.requests", args[1].total_requests())
        count("core.grants", len(grants))

    def granted_fast(args, grants):
        if grants is not None:
            count("core.requests", len(args[1]))
            count("core.grants", len(grants))

    for klass in _subclasses(SwitchAllocator):
        if "allocate" in vars(klass):
            patch(klass, "allocate", "core.allocate", observe=granted)
        if callable(vars(klass).get("allocate_fast")):
            patch(klass, "allocate_fast", "core.allocate", observe=granted_fast)

    # repro.sim.vec: the SoA stepper stages and kernels.
    patch(stepping.VecStepper, "deliver", "vec.deliver")
    patch(stepping.VecStepper, "ni_phase", "vec.ni_phase")
    patch(stepping.VecStepper, "apply_grants", "vec.apply_grants")
    patch(stepping, "va_kernel", "vec.va")

    def sa_grants(_args, grants):
        if grants is not None:
            count("vec.grants", int(grants[0].size))

    patch(stepping, "sa_input_first", "vec.sa", observe=sa_grants)
    patch(stepping, "sa_output_first", "vec.sa", observe=sa_grants)
    patch(VecDomain, "step", "vec.domain_step")

    # repro.sim.partition: worker processes reset their tracer copy.
    _ORIGINAL["worker_main"] = part_workers._worker_main
    part_workers._worker_main = traced_worker_main

    # repro.obs
    patch(Observability, "finalize", "obs.finalize", coarse=True)

    def probe_record(_args, _result):
        count("obs.probe_records")

    AllocatorProbe.record = tracer.wrap(
        AllocatorProbe.record, "obs.probe_record", observe=probe_record
    )


def _subclasses(cls) -> list:
    """Every class deriving from ``cls``, each once."""
    found: list = []
    pending = list(cls.__subclasses__())
    while pending:
        klass = pending.pop()
        if klass not in found:
            found.append(klass)
            pending.extend(klass.__subclasses__())
    return found


def _traced_pool(pool_cls, tracer: Tracer):
    """A pool subclass whose construction and first submit are timed.

    With the fork start method the pool forks all its workers on the first
    submit, so construction plus that call is the pool's start-up.
    """
    start_span = tracer.wrap(
        lambda f, *a, **k: f(*a, **k), "parallel.pool_start", coarse=True
    )

    class TracedPool(pool_cls):
        def __init__(self, *args, **kwargs):
            self._perfbench_started = False
            start_span(super().__init__, *args, **kwargs)

        def submit(self, fn, /, *args, **kwargs):
            if self._perfbench_started:
                return super().submit(fn, *args, **kwargs)
            self._perfbench_started = True
            return start_span(super().submit, fn, *args, **kwargs)

    return TracedPool
