"""Write a BENCH_*.json record: perfbench's end-to-end metrics and preset
process CPU, measured on a base tree and a change tree in alternating pairs.

    python tools/bench.py --base /tmp/parent --change /tmp/change \\
        --pairs manifold_drag=10 --pairs circle_grid=3 --seconds 30 \\
        --preset fig7=3 --tier1 3 --out BENCH_24.json

The --base and --change trees are checkouts (copies made with ``git
archive`` keep stale ``__pycache__`` out).  Pair k runs both trees, the
base tree first when k is even and the change tree first when k is odd.  A
workload run is
``python3 perfbench/run.py --workload W --seed S --seconds T --trace 0`` in
the tree; its last line of standard output is JSON, of which the
``metrics`` are kept.  A preset run is one
fresh ``python -m nlfkpp.cli preset NAME`` process whose CPU time (user +
system, the growth of ``RUSAGE_CHILDREN`` across it) is recorded.  The
first bundle of each preset and side is kept until the preset's pairs are
done, and the preset's ``outputs`` record which of its files the two trees
wrote alike (see bundle_outputs).  Every
record also holds the process CPU time of ``import nlfkpp.cli``, read by
``time.process_time`` inside a fresh interpreter, and that process's exit
cost (see import_cpu), in IMPORT_PAIRS alternating pairs, and
``src_lines``, the line count of ``src/nlfkpp/**/*.py`` in each tree.  ``--tier1 PAIRS`` also records the wall time of the tier-1 test
command (TIER1, run from the tree's root with its ``src`` on the path) in
PAIRS alternating pairs, with each run's exit code.  Every process runs with
``PYTHONDONTWRITEBYTECODE=1`` and one BLAS thread.

The absolute paths of the two trees must be equally long, or the tool
exits with status 2 before it runs anything: the name of the checkout
directory alone has moved manifold_drag's ``steps_per_cpu_s`` by 8-10 %.
Both paths are recorded under ``paths``.

For each workload and side the record holds, per metric, the median, the
interquartile range and the number of runs, every value in run order, and
how many pairs the change tree won on that metric.  The metrics, the
direction in which each is better and its bound are the ``end_to_end``
entries of the repository's ``BENCHMARK.json``.  ``past_bound`` lists each
workload metric whose change-side median is worse than the base-side median
by more than its bound, relative to the base-side median; the list is also
printed to standard error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

END_TO_END = json.loads((Path(__file__).resolve().parent.parent
                         / "BENCHMARK.json").read_text())["end_to_end"]
METRICS = {m["name"]: m["better"] for m in END_TO_END}
BOUNDS = {m["name"]: m["bound"] for m in END_TO_END}
SIDES = ("base", "change")
IMPORT_PAIRS = 10
IMPORT_CLI = ("import time; start = time.process_time(); import nlfkpp.cli; "
              "print(time.process_time() - start, time.process_time())")
# argv: base bundle, change bundle, then the CSVs that differ; prints, as
# its last line, {csv: what compare.compare_bundles reports for it}, or the
# ConfigError by which it refuses the pair
COMPARE = """
import contextlib, json, sys
from nlfkpp import compare
from nlfkpp.config import ConfigError
base, change, names = sys.argv[1], sys.argv[2], sys.argv[3:]
with contextlib.redirect_stdout(sys.stderr):
    try:
        report = compare.compare_bundles(change, base)
    except ConfigError as err:
        report = dict.fromkeys(names, str(err))
print(json.dumps({name: report[name] for name in names}))
"""
TIER1 = ("-m", "pytest", "-q", "--continue-on-collection-errors")


def child_env(tree: Path) -> dict:
    """The caller's environment with one BLAS thread, no bytecode cache and
    reference mode, so a shell that sets NLFKPP_MODE times no other mode."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
               NLFKPP_MODE="reference")
    env["PYTHONPATH"] = str(tree / "src")
    return env


def workload_run(tree: Path, name: str, seed: int, seconds: float) -> dict:
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", name,
                          "--seed", str(seed), "--seconds", str(seconds),
                          "--trace", "0"], cwd=tree, env=child_env(tree),
                         capture_output=True, text=True, check=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    return {key: result["metrics"][key]["value"] for key in METRICS}


def children_cpu() -> float:
    """User + system CPU time of the waited-for child processes so far."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def preset_cpu(tree: Path, name: str, keep: Path) -> dict:
    """CPU time of one preset run, which writes its bundle to keep if keep
    does not exist yet, and otherwise to a temporary directory."""
    before = children_cpu()
    with tempfile.TemporaryDirectory() as scratch:
        outdir = scratch if keep.exists() else keep
        subprocess.run([sys.executable, "-m", "nlfkpp.cli", "preset", name,
                        "--outdir", outdir], cwd=tree, env=child_env(tree),
                       stdout=subprocess.DEVNULL, check=True)
    return {"cpu_s": children_cpu() - before}


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def manifest_without_wall_time(path: Path) -> dict:
    manifest = json.loads(path.read_text())
    manifest.pop("wall_time_s", None)
    return manifest


def bundle_outputs(base: Path, change: Path, tree: Path) -> dict:
    """Which files of two bundles of one preset agree, each list holding
    paths relative to the bundle, sorted: ``csv_identical`` and
    ``csv_differ``, the CSV files both wrote, by sha256;
    ``manifests_identical`` and ``manifests_differ``, the manifest.json
    files both wrote, compared with ``wall_time_s`` left out; and
    ``only_base`` and ``only_change``, the files one side alone wrote.
    ``identical`` is true when no list but the two identical ones holds a
    file.  ``csv_rel_linf`` maps each CSV of ``csv_differ`` to what
    ``nlfkpp compare`` of the change bundle against the base bundle
    reports for it (its ``{column: rel_linf}``, a snapshot's rel_linf and
    rel_l2, or the error by which compare refuses the bundles), run by
    the package of the change tree."""
    files = [{path.relative_to(root).as_posix() for path in root.rglob("*")
              if path.is_file()} for root in (base, change)]
    out = {key: [] for key in ("csv_identical", "csv_differ",
                               "manifests_identical", "manifests_differ")}
    for name in sorted(files[0] & files[1]):
        if name.endswith(".csv"):
            same = sha256(base / name) == sha256(change / name)
            out["csv_identical" if same else "csv_differ"].append(name)
        elif Path(name).name == "manifest.json":
            same = (manifest_without_wall_time(base / name)
                    == manifest_without_wall_time(change / name))
            out["manifests_identical" if same else "manifests_differ"].append(
                name)
    out["csv_rel_linf"] = csv_rel_linf(tree, base, change, out["csv_differ"])
    out["only_base"] = sorted(files[0] - files[1])
    out["only_change"] = sorted(files[1] - files[0])
    out["identical"] = not any(out[key] for key in (
        "csv_differ", "manifests_differ", "only_base", "only_change"))
    return out


def csv_rel_linf(tree: Path, base: Path, change: Path, names: list) -> dict:
    """{csv: compare's report} of the named CSVs of change against base,
    from one process of tree's package; {} when names is empty."""
    if not names:
        return {}
    out = subprocess.run([sys.executable, "-c", COMPARE, str(base),
                          str(change), *names], cwd=tree, env=child_env(tree),
                         capture_output=True, text=True, check=True)
    return json.loads(out.stdout.splitlines()[-1])


def import_cpu(tree: Path) -> dict:
    """CPU times of one fresh ``import nlfkpp.cli`` process: ``cpu_s``, the
    import's own, read inside it; and ``exit_cpu_s``, the process's whole
    CPU time (the growth of RUSAGE_CHILDREN) less the process time it read
    after its last statement, which is the interpreter's exit."""
    before = children_cpu()
    out = subprocess.run([sys.executable, "-c", IMPORT_CLI], cwd=tree,
                         env=child_env(tree), capture_output=True, text=True,
                         check=True)
    total = children_cpu() - before
    cpu, last = map(float, out.stdout.split())
    return {"cpu_s": cpu, "exit_cpu_s": total - last}


def tier1_wall(tree: Path, codes: list) -> dict:
    """Wall time of one tier-1 run; its exit code is appended to codes."""
    start = time.perf_counter()
    done = subprocess.run([sys.executable, *TIER1], cwd=tree,
                          env=child_env(tree), stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL)
    codes.append(done.returncode)
    return {"wall_s": time.perf_counter() - start}


def src_lines(tree: Path) -> int:
    return sum(len(path.read_text().splitlines())
               for path in (tree / "src" / "nlfkpp").rglob("*.py"))


def order(k: int) -> tuple:
    """The sides in the order pair k runs them."""
    return SIDES if k % 2 == 0 else SIDES[::-1]


def summary(values: list) -> dict:
    q1, _, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                 if len(values) > 1 else values * 3)
    return {"median": statistics.median(values), "iqr": q3 - q1,
            "n": len(values), "values": values}


def ahead(base: list, change: list, better: str) -> int:
    """Pairs in which the change tree's value is better than the base's."""
    sign = 1 if better == "higher" else -1
    return sum(sign * (c - b) > 0 for b, c in zip(base, change))


def workload_record(runs: dict, better: dict = METRICS) -> dict:
    """The record of runs[side], the values of each run (a dict with the
    keys of better) in pair order: per side and key their summary, and per
    key the pairs the change won, better[key] being the direction that
    wins."""
    values = {side: {key: [r[key] for r in runs[side]] for key in better}
              for side in SIDES}
    return {**{side: {key: summary(values[side][key]) for key in better}
               for side in SIDES},
            "change_ahead": {key: ahead(values["base"][key],
                                        values["change"][key], direction)
                             for key, direction in better.items()},
            "pairs": len(runs["base"])}


def past_bound(workloads: dict) -> list:
    """Each metric of each workload record whose change-side median is
    worse than the base-side median by more than BOUNDS[metric] times the
    base-side median's size."""
    past = []
    for name, entry in workloads.items():
        for key, better in METRICS.items():
            base = entry["base"][key]["median"]
            change = entry["change"][key]["median"]
            worse = change - base if better == "lower" else base - change
            if worse > BOUNDS[key] * abs(base):
                past.append({"workload": name, "metric": key, "base": base,
                             "change": change, "bound": BOUNDS[key]})
    return past


def machine() -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": {key: blas.get(key) for key in
                     ("name", "version", "openblas configuration")},
            "platform": platform.platform(), "machine": platform.machine()}


def paired(n: int, run) -> dict:
    """run(side), a dict of named times, over n alternating pairs,
    summarised per side and name (see workload_record; less is better)."""
    runs = {side: [] for side in SIDES}
    for k in range(n):
        for side in order(k):
            runs[side].append(run(side))
    return workload_record(runs, dict.fromkeys(runs["base"][0], "lower"))


def counts(items: list, what: str) -> dict:
    out = {}
    for item in items:
        name, _, n = item.partition("=")
        if not n.isdigit() or int(n) < 1:
            raise SystemExit(f"{what} {item!r}: expected NAME=PAIRS")
        out[name] = int(n)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--base-label", default="base")
    parser.add_argument("--change-label", default="change")
    parser.add_argument("--pairs", action="append", default=[],
                        help="WORKLOAD=PAIRS, repeatable")
    parser.add_argument("--preset", action="append", default=[],
                        help="PRESET=PAIRS, repeatable")
    parser.add_argument("--tier1", type=int, default=0, metavar="PAIRS",
                        help="pairs of tier-1 test runs (0: none)")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    trees = {"base": args.base.resolve(), "change": args.change.resolve()}
    if len(str(trees["base"])) != len(str(trees["change"])):
        parser.error(f"the paths of --base ({trees['base']}) and --change "
                     f"({trees['change']}) differ in length")
    record = {"labels": {"base": args.base_label, "change": args.change_label},
              "paths": {side: str(trees[side]) for side in SIDES},
              "machine": machine(), "seconds": args.seconds, "seed": args.seed,
              "better": METRICS,
              "src_lines": {side: src_lines(trees[side]) for side in SIDES},
              "workloads": {}, "presets": {}}
    for name, n in counts(args.pairs, "--pairs").items():
        runs = {side: [] for side in SIDES}
        for k in range(n):
            for side in order(k):
                runs[side].append(workload_run(trees[side], name, args.seed,
                                               args.seconds))
            print(f"{name} pair {k + 1}/{n}: " + ", ".join(
                f"{side} {runs[side][-1]['steps_per_cpu_s']:.4g}"
                for side in SIDES), file=sys.stderr)
        record["workloads"][name] = workload_record(runs)
    record["past_bound"] = past_bound(record["workloads"])
    for item in record["past_bound"]:
        print("past bound: {workload} {metric} {base:.4g} -> {change:.4g} "
              "(bound {bound})".format(**item), file=sys.stderr)
    with tempfile.TemporaryDirectory() as kept:
        for name, n in counts(args.preset, "--preset").items():
            bundles = {side: Path(kept) / side / name for side in SIDES}
            record["presets"][name] = paired(
                n, lambda side: preset_cpu(trees[side], name, bundles[side]))
            record["presets"][name]["outputs"] = bundle_outputs(
                bundles["base"], bundles["change"], trees["change"])
    record["import_cli"] = paired(IMPORT_PAIRS,
                                  lambda side: import_cpu(trees[side]))
    if args.tier1 > 0:
        codes = {side: [] for side in SIDES}
        record["tier1"] = paired(
            args.tier1, lambda side: tier1_wall(trees[side], codes[side]))
        for side in SIDES:
            record["tier1"][side]["exit_codes"] = codes[side]
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
