"""Tests of the benchmark itself; run with ``python3 -m pytest perfbench/tests``.

Every workload is run at its shortest (smoke) length, so the whole file
takes about two minutes on a 2-CPU machine.
"""

from __future__ import annotations

import copy
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from outputs import check_bundle, digest_bundle  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(Path(cwd) / "perfbench" / "run.py"),
                           *args], cwd=cwd, capture_output=True, text=True,
                          timeout=300)


def smoke_bundle(name: str, tag: str) -> Path:
    """Run one workload at smoke length untraced; return its output dir."""
    wl = run.WORKLOADS[name]
    workdir = run.WORK / "tests" / f"{name}-{tag}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    cmd = run.child_cmd(wl, "smoke", False, workdir / "record.json", workdir / "out")
    rc = run.spawn(cmd, workdir / "child.log", run.child_env()).rc
    assert rc == 0, (workdir / "child.log").read_text()
    return workdir / "out"


def smoke_reference(name: str) -> dict:
    return json.loads((run.REFERENCE / f"{name}.json").read_text())["smoke"]["files"]


def test_benchmark_json_matches_the_runner():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_smoke_reports_every_metric_with_its_unit(name, trace):
    proc = bench("--workload", name, "--seed", "3", "--seconds", "1",
                 "--trace", str(trace), "--length", "smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stdout
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {k: m["unit"] for k, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_two_runs_write_identical_outputs(name):
    first = digest_bundle(str(smoke_bundle(name, "a")))
    second = digest_bundle(str(smoke_bundle(name, "b")))
    assert first == second


def test_negative_control_fails_the_output_check():
    name = "planar_ring"
    outdir = smoke_bundle(name, "control")
    reference = smoke_reference(name)
    assert check_bundle(str(outdir), reference)[:2] == (True, True)

    # a stored reference statistic moved by 1e-6 relative
    perturbed = copy.deepcopy(reference)
    stats = perturbed["field.csv"]["columns"]["u"]
    stats["sum"] = format(float(stats["sum"]) * (1 + 1e-6), ".17g")
    passed, _, problems = check_bundle(str(outdir), perturbed)
    assert not passed
    assert any("field.csv:u.sum" in p for p in problems)

    # one value in the output moved by 1% of the column's largest entry
    path = outdir / "extraction.csv"
    lines = path.read_text().splitlines()
    s, rho = lines[5].split(",")
    scale = float(reference["extraction.csv"]["columns"]["rho"]["max"])
    lines[5] = f"{s},{float(rho) + 0.01 * scale!r}"
    path.write_text("\n".join(lines) + "\n")
    passed, identical, problems = check_bundle(str(outdir), reference)
    assert not passed and not identical
    assert any("extraction.csv:rho" in p for p in problems)


def test_last_bit_changes_pass_but_are_not_identical():
    name = "planar_ring"
    outdir = smoke_bundle(name, "lastbit")
    path = outdir / "extraction.csv"
    lines = path.read_text().splitlines()
    s, rho = lines[5].split(",")
    lines[5] = f"{s},{math.nextafter(float(rho), math.inf)!r}"
    path.write_text("\n".join(lines) + "\n")
    passed, identical, problems = check_bundle(str(outdir), smoke_reference(name))
    assert passed and not identical, problems


def test_fails_without_the_package():
    bare = run.WORK / "tests" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    (bare / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    proc = bench("--workload", "planar_ring", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=bare)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
