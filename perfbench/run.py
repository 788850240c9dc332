"""nlfkpp benchmark: four CLI workloads timed end to end, per-module layer
metrics from a traced run, and layer micro-cases.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Each workload is one ``nlfkpp`` command run as
a fresh ``python`` process (``child.py``), one at a time, until ``--seconds``
have passed; every run's CSV bundle is checked against the digests in
``reference/``.  The package is imported from ``src/`` next to this
directory, never from an installed copy.

``--trace 0`` reports the end-to-end metrics, medians over the workload
processes of the run, with times in calibrated CPU seconds (below):

- ``cpu_s``: CPU time (user + system) of one process, spawn to exit
- ``setup_s``: CPU time from spawn to the start of the scenario call
  (interpreter start, ``import nlfkpp.cli``, config parse and validation)
- ``steps_per_cpu_s``: solver steps over all sweep entries / (cpu - setup)
- ``peak_rss_mb``: the process's peak resident memory
- ``pass_frac``: runs that exit 0 and pass the output check / runs

Times are CPU times, not wall-clock times: on a small shared virtual machine
the wall clock also counts the time a process waits for a CPU (other
runnable tasks, or the hypervisor running another guest), which varies by
tens of percent between runs of the same code; the kernel leaves that
waiting out of a task's CPU time.  Other guests on the host still slow the
CPU itself down, by a third or more for seconds to minutes at a time.  So
a calibration process runs before the first workload process and after
each one: a fresh interpreter that imports numpy and scipy.signal and runs
a fixed mix of small FFTs, an O(N^2) elementwise kernel and a Python loop
(``CALIBRATION``), code outside this repository whose cost follows the
host's speed.  Each workload process's times are divided by the mean CPU
time of the two calibrations around it; a calibrated CPU second is a CPU
second on a host where the calibration process takes one second.
Raw CPU times, wall-clock times and every sample are kept in the full
record of the run.

``--trace 1`` alternates untraced and traced runs and reports per-layer
metrics: call counts and self times of the package's public functions
(``child.py`` wraps them), a fresh interpreter's ``import nlfkpp.cli``, the
layer micro-cases (``micro.py``, inputs drawn from ``--seed``), the number
of runs whose CSVs were byte-identical to the reference, and the tracing
overhead in CPU time.  The workloads are deterministic presets; the seed
only draws the micro-case inputs.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The full record
(environment, every sample, output-check details) goes to
``perfbench/_work/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from outputs import check_bundle

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PACKAGE = ROOT / "src" / "nlfkpp"
WORK = HERE / "_work"
REFERENCE = HERE / "reference"

# BLAS / OpenMP threads in every child; at most nproc on any machine.
THREADS = 1
CHILD_TIMEOUT_S = 60.0  # a process normally takes about 5 s
MAX_RUNS = 40
IMPORT_PROBES = 3
# Run before the first untraced workload process of a --trace 0 run and after
# each one; see above.
# Its parts stand for the workloads' own: interpreter start and imports (all),
# FFTs (circle_grid, planar_ring), a Gaussian matrix (manifold_drag), and
# interpreted Python between small numpy calls (spectral_modes).
CALIBRATION = ("-c", """\
import numpy as np, scipy.signal
x = np.cos(np.arange(512) * 0.37)
m = x[:192]
for _ in range(3000):
    np.fft.irfft(np.fft.rfft(x) * 0.5, n=512).sum()
    np.exp(-(m[:, None] - m[None, :]) ** 2).sum()
    sum(k * 0.5 for k in range(60))
""")


@dataclass(frozen=True)
class Workload:
    argv: tuple          # nlfkpp arguments, without the length and outdir
    entries: int         # solver runs in one process (sweep entries)
    dt: float
    t_end: dict          # length per mode: {"full": ..., "smoke": ...}
    nodes: str
    predicted: tuple     # layers expected to hold the largest self time


# Lengths keep one process at about 4-5 s on a 2-CPU machine, so that a
# 30-second run holds six or more samples.  ``cli._series_stride`` stores about
# 400 frames whatever t_end is, so shorter runs raise the csvio share.
WORKLOADS = {
    "circle_grid": Workload(
        ("sweep", "--config", "src/nlfkpp/presets/fig5a.cfg", "--axis",
         "model.gamma", "--values", "0.05,1,1.5,50"),
        4, 0.01, {"full": 20.0, "smoke": 1.0}, "N=512 grid, imex",
        ("gridsim", "kernel")),
    "spectral_modes": Workload(
        ("spectral", "--set", "initial.kind=gaussian_bump", "--set",
         "numerics.J=40", "--set", "model.gamma=0.2", "--set", "model.D=0.1"),
        1, 0.01, {"full": 10.0, "smoke": 1.0}, "J=40 (81 modes), rk4",
        ("kernel",)),
    "manifold_drag": Workload(
        ("preset", "fig7"),
        2, 0.05, {"full": 4.0, "smoke": 0.5}, "N=256 nodes, rk4",
        ("manifold",)),
    "planar_ring": Workload(
        ("planar2d", "--set", "numerics.n2d=128", "--set", "numerics.dt=0.002",
         "--set", "model.D=0.001", "--set", "numerics.N=128"),
        1, 0.002, {"full": 0.6, "smoke": 0.05}, "128x128 field, euler",
        ("planar",)),
}

END_TO_END = {"cpu_s": "s", "setup_s": "s", "steps_per_cpu_s": "steps/s",
              "peak_rss_mb": "MB", "pass_frac": "1"}

# Traced metrics: name -> unit.  ``.calls`` counts calls, ``.self_s`` is
# span time minus the time of traced callees.  Expected effect of each group:
# kernel moves steps_per_cpu_s on spectral_modes (most) and circle_grid;
# gridsim and analysis on circle_grid; spectral/backends on spectral_modes;
# manifold on manifold_drag (steps_per_cpu_s and cpu_s); planar on
# planar_ring; csvio moves cpu_s on manifold_drag (most) and planar_ring; cli
# (with the import probes) moves setup_s everywhere.
TRACED = {
    "kernel.eigenvalue.calls": "count", "kernel.eigenvalue.self_s": "s",
    "kernel.eigenvalues.calls": "count", "kernel.eigenvalues.self_s": "s",
    "kernel.kernel_value.calls": "count", "kernel.kernel_value.self_s": "s",
    "gridsim.step.calls": "count", "gridsim.step.self_s": "s",
    "gridsim.stability_limit.self_s": "s",
    "gridsim.nonlocal_term.calls": "count", "gridsim.nonlocal_term.self_s": "s",
    "gridsim.kernel_row.self_s": "s",
    "spectral.integrate.self_s": "s",
    "spectral.rhs.calls": "count", "spectral.rhs.self_s": "s",
    "backends.quadratic_coupling.calls": "count",
    "backends.quadratic_coupling.self_s": "s",
    "manifold.integrate.self_s": "s",
    "manifold.ee_rhs.calls": "count", "manifold.ee_rhs.self_s": "s",
    "manifold.influence.calls": "count", "manifold.influence.self_s": "s",
    "planar.step2d.calls": "count", "planar.step2d.self_s": "s",
    "planar.nonlocal_term_2d.self_s": "s", "planar.extract_sld.self_s": "s",
    "analysis.count_peaks.calls": "count", "analysis.count_peaks.self_s": "s",
    "analysis.homogeneity.self_s": "s",
    "csvio.write_csv.calls": "count", "csvio.write_csv.self_s": "s",
    "csvio.write_csv.rows": "count", "csvio.write_csv.bytes": "B",
    "cli.run_scenario.calls": "count", "cli.run_scenario.self_s": "s",
}
MICRO = [
    "micro.kernel.eigenvalues.J40.mu1_us", "micro.kernel.eigenvalues.J40.mu400_us",
    "micro.gridsim.nonlocal_term.N512_us", "micro.gridsim.nonlocal_term.N2048_us",
    "micro.gridsim.step.euler.N512_us", "micro.gridsim.step.rk4.N512_us",
    "micro.gridsim.step.imex.N512_us",
    "micro.backends.quadratic_coupling.J10_us",
    "micro.backends.quadratic_coupling.J40_us",
    "micro.backends.quadratic_coupling.J160_us",
    "micro.backends.circulant_apply.N64_us", "micro.backends.circulant_apply.N256_us",
    "micro.backends.circulant_apply.N1024_us",
    "micro.manifold.ee_rhs.N128_us", "micro.manifold.ee_rhs.N256_us",
    "micro.planar.nonlocal_term_2d.n128_us", "micro.planar.nonlocal_term_2d.n256_us",
    "micro.csvio.write_csv.1e5rows_s",
]
PER_LAYER = {
    **TRACED,
    "cli.import_s": "s", "cli.import_scipy_signal_s": "s",
    **{name: name.rsplit("_", 1)[1] for name in MICRO},
    "outputs_identical": "count",
    "trace_overhead_s": "s",
}


def monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("NLFKPP_BACKEND", None)
    env.update({"PYTHONPATH": str(ROOT / "src"), "NLFKPP_MODE": "reference",
                "OPENBLAS_NUM_THREADS": str(THREADS),
                "OMP_NUM_THREADS": str(THREADS), "MKL_NUM_THREADS": str(THREADS)})
    return env


@dataclass(frozen=True)
class Exit:
    start: float     # CLOCK_MONOTONIC at spawn
    end: float       # CLOCK_MONOTONIC at exit
    rc: int
    cpu_s: float     # user + system CPU time
    rss_mb: float    # peak resident memory


def spawn(cmd, log_path, env) -> Exit:
    """Run ``cmd`` from the repository root to its exit; output goes to
    ``log_path``."""
    with open(log_path, "wb") as log:
        start = monotonic()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=log,
                                stderr=subprocess.STDOUT)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted: stop the child before leaving
            proc.kill()
            os.waitpid(proc.pid, 0)
            raise
        finally:
            timer.cancel()
        end = monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Exit(start, end, proc.returncode, usage.ru_utime + usage.ru_stime,
                usage.ru_maxrss / 1024.0)


def capture(cmd, env, stderr=subprocess.DEVNULL):
    """Run a probe to completion; return (exit code, stdout, stderr)."""
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                          stderr=stderr, timeout=CHILD_TIMEOUT_S, text=True)
    return proc.returncode, proc.stdout, proc.stderr or ""


def child_cmd(wl: Workload, length: str, trace: bool, record_path, outdir) -> list:
    return [sys.executable, str(HERE / "child.py"), str(record_path),
            "1" if trace else "0", "--", *wl.argv,
            "--set", f"numerics.t_end={wl.t_end[length]:g}", "--outdir", str(outdir)]


def run_workload(wl: Workload, length: str, trace: bool, reference: dict,
                 workdir: Path, env: dict) -> dict:
    """One workload process plus its output check."""
    outdir, record_path = workdir / "out", workdir / "record.json"
    shutil.rmtree(outdir, ignore_errors=True)
    record_path.unlink(missing_ok=True)
    cmd = child_cmd(wl, length, trace, record_path, outdir)
    done = spawn(cmd, workdir / "child.log", env)
    rc = done.rc
    record = {}
    if record_path.is_file():
        record = json.loads(record_path.read_text())
    problems = []
    if rc != 0:
        log = (workdir / "child.log").read_text(errors="replace")
        problems.append(f"exit code {rc}: {log[-2000:]}")
    if record.get("package") != str(PACKAGE):
        problems.append(f"imported nlfkpp from {record.get('package')}, "
                        f"expected {PACKAGE}")
    identical = False
    if rc == 0:
        _, identical, found = check_bundle(str(outdir), reference["files"])
        problems.extend(found)
    mark, mark_cpu = record.get("scenario_start"), record.get("scenario_cpu")
    wall = done.end - done.start
    setup = mark_cpu if mark_cpu is not None else done.cpu_s
    steps = wl.entries * round(wl.t_end[length] / wl.dt)
    return {"trace": trace, "rc": rc, "passed": not problems,
            "identical": identical, "problems": problems, "wall_s": wall,
            "setup_wall_s": mark - done.start if mark is not None else wall,
            "cpu_s": done.cpu_s, "setup_s": setup, "peak_rss_mb": done.rss_mb,
            "steps": steps, "steps_per_cpu_s": (steps / (done.cpu_s - setup)
                                                if done.cpu_s > setup else 0.0),
            "layers": record.get("layers")}


def import_probes(env: dict):
    """(import_s, scipy.signal share) medians over fresh interpreters."""
    totals, shares, problems = [], [], []
    for _ in range(IMPORT_PROBES):
        rc, out, err = capture([sys.executable, "-X", "importtime",
                                str(HERE / "probe.py"), "import"], env,
                               stderr=subprocess.PIPE)
        if rc != 0:
            problems.append(f"import probe exit {rc}: {err[-2000:]}")
            continue
        totals.append(json.loads(out.strip().splitlines()[-1])["import_s"])
        found = re.search(r"^import time:\s+\d+ \|\s+(\d+) \|\s+scipy\.signal$",
                          err, re.MULTILINE)
        shares.append(int(found.group(1)) * 1e-6 if found else 0.0)
    if not totals:
        return None, None, problems
    return statistics.median(totals), statistics.median(shares), problems


def run_micro(seed: int, env: dict):
    """(metrics, names of cases that failed their check, problems)."""
    rc, out, err = capture([sys.executable, str(HERE / "micro.py"), str(seed),
                            str(WORK / "micro")], env, stderr=subprocess.PIPE)
    if rc != 0:
        return {}, [], [f"micro cases exit {rc}: {err[-2000:]}"]
    result = json.loads(out.strip().splitlines()[-1])
    return result["metrics"], result["failed"], [
        f"micro case failed its check: {name}" for name in result["failed"]]


def layer_totals(layers: dict) -> dict:
    """Self time per package module, summed over its traced functions."""
    totals = {}
    for name, value in layers.items():
        if name.endswith(".self_s"):
            module = name.split(".", 1)[0]
            totals[module] = totals.get(module, 0.0) + value
    return dict(sorted(totals.items(), key=lambda kv: -kv[1]))


def median_of(samples, key):
    return statistics.median(s[key] for s in samples)


def measure(name: str, seed: int, seconds: float, trace: bool, length: str) -> dict:
    wl = WORKLOADS[name]
    reference = json.loads((REFERENCE / f"{name}.json").read_text())[length]
    if reference["t_end"] != wl.t_end[length]:
        raise SystemExit(f"reference for {name}/{length} was recorded at "
                         f"t_end={reference['t_end']}, workload runs "
                         f"t_end={wl.t_end[length]}")
    env = child_env()
    workdir = WORK / name
    workdir.mkdir(parents=True, exist_ok=True)
    deadline = monotonic() + seconds

    rc, out, _ = capture([sys.executable, str(HERE / "probe.py"), "env"], env)
    environment = json.loads(out) if rc == 0 else {"error": f"exit {rc}"}
    environment.update({"nproc": os.cpu_count(), "threads": THREADS,
                        "NLFKPP_MODE": "reference"})
    problems = [] if rc == 0 else ["environment probe failed"]

    metrics, micro_attempted, micro_failed = {}, 0, []
    if trace:
        import_s, scipy_s, found = import_probes(env)
        problems.extend(found)
        metrics["cli.import_s"] = import_s
        metrics["cli.import_scipy_signal_s"] = scipy_s
        micro, micro_failed, found = run_micro(seed, env)
        problems.extend(found)
        micro_attempted = len(MICRO)
        metrics.update({key: micro.get(key) for key in MICRO})

    def calibrate() -> float:
        done = spawn([sys.executable, *CALIBRATION], workdir / "calib.log", env)
        if done.rc != 0:
            problems.append(f"calibration exit {done.rc}")
        return done.cpu_s

    # Start another round only while it is expected to end by the deadline,
    # so a run lasts about --seconds whatever the length of one process.
    runs, calibration = [], [] if trace else [calibrate()]
    while True:
        started = monotonic()
        runs.append(run_workload(wl, length, False, reference, workdir, env))
        if trace:
            runs.append(run_workload(wl, length, True, reference, workdir, env))
        else:
            calibration.append(calibrate())
        now = monotonic()
        if now + 0.5 * (now - started) >= deadline or len(runs) >= MAX_RUNS:
            break
    untraced = [r for r in runs if not r["trace"]]
    traced = [r for r in runs if r["trace"]]

    if trace:
        layers = [r["layers"] or {} for r in traced]
        for key in TRACED:
            metrics[key] = statistics.median(lay.get(key, 0) for lay in layers)
        metrics["outputs_identical"] = sum(r["identical"] for r in runs)
        metrics["trace_overhead_s"] = (median_of(traced, "cpu_s")
                                       - median_of(untraced, "cpu_s"))
    else:
        pairs = [(r, 0.5 * (before + after)) for r, before, after
                 in zip(untraced, calibration, calibration[1:])]
        metrics["cpu_s"] = statistics.median(r["cpu_s"] / u for r, u in pairs)
        metrics["setup_s"] = statistics.median(r["setup_s"] / u for r, u in pairs)
        metrics["steps_per_cpu_s"] = statistics.median(
            r["steps_per_cpu_s"] * u for r, u in pairs)
        metrics["peak_rss_mb"] = median_of(untraced, "peak_rss_mb")
        metrics["pass_frac"] = sum(r["passed"] for r in runs) / len(runs)

    missing = [key for key, value in metrics.items() if value is None]
    problems.extend(f"no value for {key}" for key in missing)
    failed_runs = sum(not r["passed"] for r in runs)
    units = PER_LAYER if trace else END_TO_END
    result = {
        "correct": not problems and failed_runs == 0,
        "attempted": len(runs) + micro_attempted,
        "failed": failed_runs + len(micro_failed),
        "metrics": {key: {"value": metrics[key] or 0, "unit": unit}
                    for key, unit in units.items()},
    }
    full = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "length": {"mode": length, "t_end": wl.t_end[length], "dt": wl.dt,
                   "entries": wl.entries, "steps": runs[0]["steps"],
                   "nodes": wl.nodes},
        "environment": environment, "problems": problems,
        "samples": len(untraced), "runs": runs, "result": result,
        "calibration_cpu_s": calibration,
    }
    if trace:
        full["layer_self_s"] = layer_totals(
            {key: metrics[key] for key in TRACED if key.endswith(".self_s")})
        full["predicted_top_layers"] = list(wl.predicted)
    return full


def report(full: dict) -> None:
    length = full["length"]
    print(f"workload {full['workload']}: t_end={length['t_end']:g} "
          f"dt={length['dt']:g} steps={length['steps']} ({length['nodes']}), "
          f"{full['samples']} untraced runs, seed {full['seed']}")
    print("environment " + json.dumps(full["environment"], sort_keys=True))
    for key, metric in full["result"]["metrics"].items():
        print(f"  {key:44s} {metric['value']:.6g} {metric['unit']}")
    if "layer_self_s" in full:
        shares = ", ".join(f"{k} {v:.3f}" for k, v in full["layer_self_s"].items())
        print(f"layer self time (s): {shares}; predicted top: "
              f"{'/'.join(full['predicted_top_layers'])}")
    for problem in full["problems"]:
        print(f"problem: {problem}")
    for run in full["runs"]:
        for problem in run["problems"]:
            print(f"run problem: {problem}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--length", choices=("full", "smoke"), default="full",
                        help="smoke runs each workload at its shortest length")
    args = parser.parse_args(argv)
    # turn SIGTERM into SystemExit so that a running child is stopped too
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (PACKAGE / "cli.py").is_file():
        print(f"error: no nlfkpp package at {PACKAGE}; run from a checkout",
              file=sys.stderr)
        return 2
    full = measure(args.workload, args.seed, args.seconds, bool(args.trace),
                   args.length)
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}.trace{args.trace}.seed{args.seed}.json").write_text(
        json.dumps(full, indent=1, sort_keys=True) + "\n")
    report(full)
    print(json.dumps(full["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
