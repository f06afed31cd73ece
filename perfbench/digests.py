"""Digests of the simulated statistics: the benchmark's correctness gate.

A digest covers every ``SimulationResult`` field a user reads —
throughput, latency and its percentiles, fairness, per-source counts,
the activity counters and, when collected, the metrics snapshot — and
leaves out what only describes how the host ran the simulation: the
engines' own bookkeeping counters and phase timings.  Engines are
byte-identical by contract, so a digest does not depend on the engine,
the worker count or the host.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path

#: Counters that describe the engine's stepping, not the modelled network.
BOOKKEEPING = frozenset(
    {"router_wakeups", "cycles_skipped", "vec_kernel_cycles", "trace_dropped_events"}
)

REFERENCES = Path(__file__).with_name("reference_digests.json")


def _modelled(counters: dict | None) -> dict | None:
    if counters is None:
        return None
    return {
        key: value
        for key, value in counters.items()
        if key not in BOOKKEEPING and not key.startswith("span_")
    }


def statistics(result) -> dict:
    """The simulated statistics of one result, as plain data."""
    data = {
        field.name: getattr(result, field.name)
        for field in dataclasses.fields(result)
    }
    data["counters"] = _modelled(data["counters"])
    data["metrics"] = _modelled(data["metrics"])
    return data


def digest(result) -> str:
    """Short stable hash of :func:`statistics`."""
    payload = json.dumps(statistics(result), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()[:20]


def reference_key(lengths: tuple[int, int], slot: int) -> str:
    return f"{lengths[0]}/{lengths[1]}/slot{slot}"


def load(path: Path = REFERENCES) -> dict:
    """``{workload: {reference_key: {scenario: digest}}}``; empty if absent."""
    try:
        return json.loads(Path(path).read_text())
    except FileNotFoundError:
        return {}
