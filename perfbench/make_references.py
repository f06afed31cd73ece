"""Regenerate ``reference_digests.json`` from the reference engines.

Usage (from the repository root)::

    python3 perfbench/make_references.py [--workload NAME ...] [--lengths W,M]
        [--slots 0,1,...] [--out FILE]

For every workload and every input set (seed slot), runs the jobs on
their reference engine (:func:`workloads.reference_job`) in a batch
process and stores the per-scenario digests.  Run it only when the
simulated statistics are meant to change; the benchmark then checks the
timed engines against these digests.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import digests
from run import STATE, batch_process
from workloads import SEED_SLOTS, WORKLOADS, run_lengths


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    parser.add_argument("--lengths", default=None, help="warmup,measure override")
    parser.add_argument(
        "--slots", default=None, help="comma-separated input sets (default: all)"
    )
    parser.add_argument("--out", type=Path, default=digests.REFERENCES)
    args = parser.parse_args(argv)
    table = digests.load(args.out)
    STATE.mkdir(exist_ok=True)
    for name in args.workload or sorted(WORKLOADS):
        workload = WORKLOADS[name]
        lengths = run_lengths(workload, args.lengths)
        entry = table.setdefault(name, {})
        slots = (
            [int(x) for x in args.slots.split(",")]
            if args.slots
            else range(SEED_SLOTS)
        )
        for slot in slots:
            code, out, err, _ = batch_process(
                workload, slot, lengths, ["--reference"], 3600.0
            )
            if code != 0:
                print(f"{name} slot {slot} failed:\n{out}\n{err}", file=sys.stderr)
                return 1
            scenarios = json.loads(out.strip().splitlines()[-1])["scenarios"]
            entry[digests.reference_key(lengths, slot)] = scenarios
            print(f"{name} slot {slot}: {len(scenarios)} scenarios", flush=True)
            args.out.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
