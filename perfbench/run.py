"""Benchmark of the VIX network-on-chip simulator: one command, one workload.

Usage (from the repository root)::

    python3 perfbench/run.py --workload mesh8_vec_sweep --seed 1 --seconds 30 --trace 0

Runs closed batches of the workload (see ``workloads.py``), each in a
fresh process with a fresh cache directory, until ``--seconds`` are
spent, and reports whole-run figures.  Times are scaled to a reference
host speed sampled between the batches (see ``calibrate.py``).
``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced batches and prints the per-layer metrics plus the
tracing overhead.  Every scenario's simulated statistics are checked
against stored reference digests; a mismatch, an error or a timeout
counts as a failed scenario and makes the command exit 1.  The last stdout line is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

The run record (provenance, every batch, and with tracing every span
export) is written to ``.perfbench/runs/`` when the run ends.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import calibrate
import digests
from workloads import (
    DEFAULT_SEED,
    HELD_OUT_SEED,
    PAPER_VIX_GAIN,
    SEED_SLOTS,
    WORKLOADS,
    run_lengths,
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
STATE = ROOT / ".perfbench"

#: Batches a run always measures, whatever ``--seconds`` says.
MIN_BATCHES = 3
#: A run must end within this many seconds.
RUN_BUDGET_S = 170.0


class SetupError(Exception):
    """The run cannot start; no result is printed."""


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--lengths",
        default=None,
        help="warmup,measure override (tests use short runs); default: the "
        "workload's own",
    )
    parser.add_argument(
        "--references",
        type=Path,
        default=digests.REFERENCES,
        help="reference digest file (default: %(default)s)",
    )
    return parser.parse_args(argv)


def _child_env(tmp: Path, extra: tuple = ()) -> dict:
    """The environment of a batch process.

    Every ``REPRO_*`` variable of the caller is dropped; only the ones the
    workload defines are set, plus a fresh cache/journal directory.
    """
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["TMPDIR"] = str(tmp)
    env["REPRO_CACHE_DIR"] = str(tmp / "cache")
    for name, value in extra:
        env[name] = value.format(tmp=tmp)
    return env


def _run_child(cmd: list[str], env: dict, timeout: float) -> tuple[int, str, str]:
    """Run one child in its own process group; kill the group on timeout."""
    proc = subprocess.Popen(
        cmd,
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=max(1.0, timeout))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out, err = proc.communicate()
        return -signal.SIGKILL, out, err + "\n[perfbench] batch timed out"
    finally:
        try:
            # Pool or partition workers a failed batch left behind.
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    return proc.returncode, out, err


def _provenance(workload) -> dict:
    """Host, interpreter, program and worker-count identity of the run.

    Importing the simulator here also leaves compiled bytecode behind, so
    the measured batches do not pay for compilation (users pay it once,
    not on every run).
    """
    env = _child_env(STATE)
    probe = (
        "import json, platform, numpy, repro, repro.experiments.runner, "
        "repro.sim.vec.engine, repro.sim.partition.workers; "
        "print(json.dumps({'python': platform.python_version(), "
        "'numpy': numpy.__version__, 'repro': repro.__version__}))"
    )
    code, out, err = _run_child([sys.executable, "-c", probe], env, 120.0)
    if code != 0:
        raise SetupError(f"cannot import the simulator:\n{err.strip()}")
    info = json.loads(out.strip().splitlines()[-1])
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"],
                cwd=ROOT,
                capture_output=True,
                text=True,
                timeout=10,
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    source = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        source.update(str(path.relative_to(ROOT)).encode())
        source.update(path.read_bytes())
    info.update(
        cpu_count=os.cpu_count(),
        usable_cpus=len(os.sched_getaffinity(0)),
        git_commit=commit,
        source_sha256=source.hexdigest()[:16],
        pool_workers=workload.pool_workers,
        partition_workers=workload.partition_workers,
    )
    return info


def batch_process(
    workload, seed: int, lengths: tuple, extra: list, timeout: float
) -> tuple[int, str, str, float]:
    """Run ``batch.py`` once with its own temporary directory.

    Returns the exit code, stdout, stderr and the monotonic launch time.
    """
    tmp = Path(tempfile.mkdtemp(prefix="batch-", dir=STATE))
    try:
        cmd = [
            sys.executable,
            str(HERE / "batch.py"),
            "--workload", workload.name,
            "--seed", str(seed),
            "--lengths", f"{lengths[0]},{lengths[1]}",
            *extra,
        ]
        env = _child_env(tmp, workload.env)
        t0 = time.monotonic()
        code, out, err = _run_child(cmd + ["--t0", repr(t0)], env, timeout)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return code, out, err, t0


def _batch(args, workload, lengths, traced: bool, remaining: float) -> dict:
    """One measured batch; its record, or ``{"error": ...}``."""
    code, out, err, t0 = batch_process(
        workload, args.seed, lengths, ["--trace", str(int(traced))], remaining
    )
    lines = out.strip().splitlines()
    try:
        record = json.loads(lines[-1])
    except (IndexError, ValueError):
        record = {}
    if code != 0 or "error" in record or "t_end" not in record:
        detail = record.get("error") or err.strip()[-2000:]
        return {"error": f"batch exited {code}: {detail}"}
    record["t0"] = t0
    record["traced"] = traced
    return record


def _check(record: dict, expected: dict | None) -> list[str]:
    """Names of the batch's scenarios that failed their reference."""
    if "error" in record:
        return sorted(expected) if expected else ["<batch>"]
    got = record["scenarios"]
    if not expected:
        return sorted(got) or ["<batch>"]
    return sorted(
        label
        for label in set(expected) | set(got)
        if got.get(label) != expected.get(label)
    )


def _wall(record: dict) -> float:
    return record["t_end"] - record["t0"]


def _end_to_end(records: list[dict], scale: float) -> dict[str, float]:
    """Whole-run figures, times scaled to the reference host.

    Wall time and throughput are means over the run's batches, as the
    scale factor is a mean over the calibration samples: single batches
    and samples are noisy, and over ten runs means spread less than
    medians.
    Set-up time and memory are medians over the batches.
    """
    mean, median = statistics.fmean, statistics.median
    wall = mean([_wall(r) for r in records])
    return {
        "wall_s": wall * scale,
        "router_cycles_per_s": mean([r["router_cycles"] for r in records])
        / (wall * scale),
        "flits_per_s": mean([r["flits"] for r in records]) / (wall * scale),
        "setup_s": median([r["first_cycle"] - r["t0"] for r in records]) * scale,
        "peak_rss_mb": median([r["rss_kb"] / 1024.0 for r in records]),
    }


def _units() -> tuple[dict, dict]:
    """End-to-end and per-layer metric units, as BENCHMARK.json declares them."""
    try:
        declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as error:
        raise SetupError(f"cannot read BENCHMARK.json: {error}") from None
    return (
        {m["name"]: m["unit"] for m in declared["end_to_end"]},
        {m["name"]: m["unit"] for m in declared["per_layer"]},
    )


def _per_layer(
    untraced: list[dict], traced: list[dict], scale: float
) -> dict[str, float]:
    values = {
        name: statistics.median([r["layers"][name] for r in traced])
        for name in traced[0]["layers"]
    }
    values["trace.overhead_s"] = scale * (
        statistics.fmean([_wall(r) for r in traced])
        - statistics.fmean([_wall(r) for r in untraced])
    )
    return values


def main(argv=None) -> int:
    args = _parse(argv)
    workload = WORKLOADS[args.workload]
    started = time.monotonic()
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        raise SetupError(f"no simulator source under {ROOT / 'src' / 'repro'}")
    usable = len(os.sched_getaffinity(0))
    if usable < 2:
        raise SetupError(
            f"{usable} usable CPU(s): the workloads run 2 workers and would "
            "oversubscribe; refusing to measure"
        )
    lengths = run_lengths(workload, args.lengths)
    end_to_end_units, per_layer_units = _units()
    STATE.mkdir(exist_ok=True)
    slot = args.seed % SEED_SLOTS
    expected = digests.load(args.references).get(workload.name, {}).get(
        digests.reference_key(lengths, slot)
    )
    provenance = _provenance(workload)
    print(f"provenance: {json.dumps(provenance, sort_keys=True)}")

    records: list[dict] = []
    failed = attempted = 0
    failures: list[str] = []
    durations: list[float] = []
    with calibrate.Calibrator() as calibrator:
        samples = [calibrator.sample()]
        # --seconds is the measuring time; provenance and start-up come before.
        measuring = time.monotonic()
        while True:
            elapsed = time.monotonic() - started
            traced = bool(args.trace) and len(records) % 2 == 1
            batch_start = time.monotonic()
            record = _batch(args, workload, lengths, traced, RUN_BUDGET_S - elapsed)
            samples.append(calibrator.sample())
            durations.append(time.monotonic() - batch_start)
            records.append(record)
            bad = _check(record, expected)
            attempted += len(expected or record.get("scenarios") or [None])
            failed += len(bad)
            failures.extend(
                f"batch {len(records)}: {label}"
                + (f" ({record['error'].splitlines()[-1]})" if "error" in record else "")
                for label in bad
            )
            elapsed = time.monotonic() - started
            typical = statistics.median(durations)
            if "error" in record and "timed out" in record["error"]:
                break
            if elapsed + typical > RUN_BUDGET_S:
                break
            measured = time.monotonic() - measuring
            if len(records) >= MIN_BATCHES and measured + typical > args.seconds:
                break

    good = [r for r in records if "error" not in r]
    untraced = [r for r in good if not r["traced"]]
    traced_records = [r for r in good if r["traced"]]
    unit_s = statistics.fmean(samples)
    scale = calibrate.REFERENCE_UNIT_S / unit_s
    if args.trace and traced_records and untraced:
        values = _per_layer(untraced, traced_records, scale)
        units = per_layer_units
    elif not args.trace and untraced:
        values = _end_to_end(untraced, scale)
        units = end_to_end_units
    else:
        values, units = {}, {}
    if set(values) != set(units):
        values = {}  # a metric the benchmark declares but did not measure

    print(
        f"workload {workload.name}: seed {args.seed} (input set {slot} of "
        f"{SEED_SLOTS}; default seed {DEFAULT_SEED}, held-out seed "
        f"{HELD_OUT_SEED}), lengths {lengths[0]}/{lengths[1]}, "
        f"{len(records)} batches ({len(traced_records)} traced)"
    )
    for name, value in values.items():
        print(f"{name} = {value:.6g} {units[name]}")
    print(
        f"failed_frac = {failed / attempted:.6g} frac "
        f"({failed} of {attempted} scenarios)"
    )
    print(
        f"info (unbounded): host calibration unit {unit_s * 1e3:.4g} ms, mean "
        f"of {len(samples)} samples; "
        f"{'trace.overhead_s is' if args.trace else 'the times above are'} scaled by "
        f"{calibrate.REFERENCE_UNIT_S * 1e3:.4g} ms / {unit_s * 1e3:.4g} ms "
        f"= {scale:.4f} to the reference host"
    )
    for line in failures[:20]:
        print(f"FAILED {line}")
    gains = [r["vix_gain"] for r in good if r.get("vix_gain") is not None]
    if gains:
        gain = gains[0]
        print(
            f"info (unbounded): modelled VIX-over-IF saturation-throughput gain "
            f"{gain:+.1%} at the highest load, {lengths[0]}/{lengths[1]}-cycle "
            f"windows; paper {PAPER_VIX_GAIN:+.1%} (EXPERIMENTS.md), "
            f"difference {(gain - PAPER_VIX_GAIN) * 100:+.1f} points"
        )

    runs = STATE / "runs"
    runs.mkdir(exist_ok=True)
    (runs / f"{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(
            {
                "workload": workload.name,
                "seed": args.seed,
                "lengths": list(lengths),
                "provenance": provenance,
                "metrics": values,
                "calibration_units_s": samples,
                "scale": scale,
                "failures": failures,
                "batches": records,
            }
        )
    )

    correct = failed == 0 and bool(values)
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": units[name]}
                    for name, value in values.items()
                },
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except SetupError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        sys.exit(2)
