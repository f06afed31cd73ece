"""The benchmark's own tests: short runs of every workload end to end.

Run from the repository root::

    python3 -m pytest perfbench/test_perfbench.py

Each test runs ``run.py`` from the command line, at tiny run lengths, against
reference digests made for those lengths by ``make_references.py``.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import calibrate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
LENGTHS = "20,60"
SEED = 3
WORKLOADS = (
    "mesh8_vec_sweep",
    "mesh8_object_ladder",
    "chiplet16_vec_workers",
    "mesh8_observed",
)
# Keep the children from writing bytecode next to the repository's sources.
ENV = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(args, cwd=ROOT, timeout=170):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        cwd=cwd,
        env=ENV,
        capture_output=True,
        text=True,
        timeout=timeout,
    )


@pytest.fixture(scope="module")
def references(tmp_path_factory) -> Path:
    path = tmp_path_factory.mktemp("refs") / "references.json"
    cmd = [sys.executable, str(HERE / "make_references.py")]
    cmd += ["--lengths", LENGTHS, "--slots", str(SEED), "--out", str(path)]
    done = subprocess.run(cmd, cwd=ROOT, env=ENV, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    return path


def _bench(workload, references, trace=0):
    done = _run(
        [
            "--workload", workload,
            "--seed", str(SEED),
            "--seconds", "1",
            "--trace", str(trace),
            "--lengths", LENGTHS,
            "--references", str(references),
        ]
    )
    result = json.loads(done.stdout.strip().splitlines()[-1])
    return done, result


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_smoke(workload, references):
    done, result = _bench(workload, references)
    assert done.returncode == 0, done.stdout + done.stderr
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 3
    assert "failed_frac = 0 frac" in done.stdout


@pytest.mark.parametrize("trace", (0, 1))
def test_every_declared_metric_is_printed_with_its_unit(references, trace):
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    done, result = _bench("chiplet16_vec_workers", references, trace)
    assert done.returncode == 0, done.stdout + done.stderr
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        printed = result["metrics"][metric["name"]]
        assert printed["unit"] == metric["unit"]
        assert isinstance(printed["value"], (int, float))
        line = next(
            x for x in done.stdout.splitlines() if x.startswith(f"{metric['name']} = ")
        )
        assert line.endswith(f" {metric['unit']}")


def test_perturbed_reference_fails_the_run(references, tmp_path):
    table = json.loads(references.read_text())
    entry = next(iter(table["mesh8_vec_sweep"].values()))
    label = sorted(entry)[0]
    entry[label] = "0" * len(entry[label])
    perturbed = tmp_path / "perturbed.json"
    perturbed.write_text(json.dumps(table))
    done, result = _bench("mesh8_vec_sweep", perturbed)
    assert done.returncode != 0
    assert result["correct"] is False
    assert 0 < result["failed"] < result["attempted"]
    assert f"FAILED batch 1: {label}" in done.stdout


def test_self_times_fit_in_the_traced_wall_time(references):
    for workload in ("mesh8_object_ladder", "chiplet16_vec_workers"):
        done, _ = _bench(workload, references, trace=1)
        assert done.returncode == 0, done.stdout + done.stderr
        record = json.loads(
            (ROOT / ".perfbench" / "runs" / f"{workload}-seed{SEED}-trace1.json")
            .read_text()
        )
        traced = [b for b in record["batches"] if b.get("traced")]
        assert traced
        for batch in traced:
            wall = batch["t_end"] - batch["t0"]
            assert len(batch["exports"]) >= 3  # coordinator + two workers
            for export in batch["exports"]:
                own = sum(entry[2] for entry in export["rollup"].values())
                assert 0 < own <= wall, (export["process"], own, wall)


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copytree(
        HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__")
    )
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    done = _run(
        ["--workload", "mesh8_vec_sweep", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path,
        timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_calibrator_samples_and_stops_its_processes():
    with calibrate.Calibrator() as calibrator:
        procs = list(calibrator._procs)
        assert len(procs) == calibrate.PROCESSES
        assert all(proc.is_alive() for proc in procs)
        assert 0 < calibrator.sample() < calibrate.SAMPLE_TIMEOUT_S
    assert not any(proc.is_alive() for proc in procs)
