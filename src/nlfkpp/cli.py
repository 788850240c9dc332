"""Scenario runner: configures a model from ``key = value`` files and
command-line overrides, dispatches to a solver, and writes CSV artifacts,
a JSON manifest, and optional gnuplot scripts.

Exit codes: 0 success, 2 configuration/validation error, 3 solver abort.
The environment variable NLFKPP_MODE selects ``reference`` (sequential,
byte-reproducible, the default) or ``parallel`` sweep execution.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
import time
from importlib import resources

import numpy as np

from . import __version__, analysis, asymptotics, exact, gridsim, manifold, planar
from . import spectral
from .config import (ConfigError, ScenarioConfig, apply_assignment,
                     apply_overrides, axis_value, load_config,
                     parse_config_text, resolved_items)
from .csvio import write_csv, read_csv
from .kernel import (SQRT_TWO_PI, TWO_PI, CircleKernelParams, eigenvalue,
                     grid_nodes)

PRESET_SWEEPS = {
    # composite presets: one bundle per value of the named axis
    "fig7": ("model.k0", [0.0, 0.03]),
    "fig8": ("model.D", [0.0, 0.005, 0.5]),
}
PRESET_EXTRAS = {
    "fig5b": "compare_asymptotic",
    "fig6": "ring_csv",
}


def _mode() -> str:
    mode = os.environ.get("NLFKPP_MODE", "reference")
    if mode not in ("reference", "parallel"):
        raise ConfigError(f"NLFKPP_MODE: expected reference or parallel, got {mode!r}")
    return mode


def _kernel(cfg: ScenarioConfig) -> CircleKernelParams:
    return CircleKernelParams(cfg.b0, cfg.gamma, cfg.R)


def scenario_initial(cfg: ScenarioConfig):
    """rho_phi(s) callable for the configured initial condition."""
    return gridsim.initial_profile(cfg.initial_kind, cfg.beta00, cfg.T,
                                   cfg.initial_width, cfg.initial_edge)


def _series_stride(cfg: ScenarioConfig) -> int:
    return max(1, int(round(cfg.t_end / cfg.dt / 400)))


def _artifact_path(outdir: str):
    """name -> os.path.join(outdir, name), making outdir on first use, so a
    run that aborts before it writes anything leaves no directory."""
    def path(name: str) -> str:
        os.makedirs(outdir, exist_ok=True)
        return os.path.join(outdir, name)
    return path


def _write_manifest(path, cfg, wall, extra=None):
    manifest = {
        "config": resolved_items(cfg),
        "version": __version__,
        "mode": _mode(),
        "wall_time_s": wall,
    }
    if extra:
        manifest.update(extra)
    with open(path("manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True, default=str)
        fh.write("\n")


def _snapshot_times(cfg: ScenarioConfig, note: bool = True) -> list:
    """The requested snapshot times up to t_end, plus t_end, in order; the
    times past t_end are dropped, and named on stderr when note is set."""
    late = [t for t in cfg.snapshot_times if t > cfg.t_end]
    if late and note:
        print(f"note: numerics.snapshot_times {late} lie past numerics.t_end = "
              f"{cfg.t_end:g}; no snapshot is written for them", file=sys.stderr)
    return sorted({t for t in cfg.snapshot_times if t <= cfg.t_end} | {cfg.t_end})


def _write_snapshots(path, s, snapshots: dict) -> list:
    """snapshot_t<time>.csv with columns (s, rho) for each {time: rho};
    returns the file names."""
    names = []
    for t_snap, rho in snapshots.items():
        name = f"snapshot_t{t_snap:g}.csv"
        write_csv(path(name), ["s", "rho"], [s, rho])
        names.append(name)
    return names


def _final_diagnostics(d: analysis.ProfileDiagnostics) -> dict:
    return {"n_peaks_final": d.n_peaks, "homogeneity_final": d.homogeneity,
            "mass_final": d.mass}


def _emit_plot_script(path, csv_names, title):
    lines = ["set datafile separator ','", "set key outside",
             f"set title '{title}'"]
    plots = [f"'{name}' using 1:2 with lines title '{name}'"
             for name in csv_names]
    lines.append("plot " + ", \\\n     ".join(plots))
    with open(path("plot.gp"), "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def run_exact(cfg: ScenarioConfig, path) -> dict:
    model = exact.HomogeneousModel(cfg.a, cfg.kappa,
                                   eigenvalue(0, _kernel(cfg)), cfg.beta00)
    t = np.arange(0.0, cfg.t_end + 0.5 * cfg.dt, cfg.dt)
    b = exact.beta0(t, model)
    write_csv(path("exact.csv"), ["t", "beta0", "rho0"],
              [t, b, b / SQRT_TWO_PI])
    diag = {"rho_lim": exact.rho_lim(model) if cfg.kappa > 0 else None,
            "saturation": model.saturation}
    c = model.saturation
    if 0 < c < 0.5:
        diag["t_max"] = exact.t_max(model)
    if c > 0:
        alpha = 0.95 if c < 1.0 else 1.05
        diag["alpha"] = alpha
        diag["t_quasi_steady"] = exact.t_quasi_steady(alpha, model)
    return {"csv": ["exact.csv"], "diagnostics": diag}


def run_spectral(cfg: ScenarioConfig, path) -> dict:
    kern = _kernel(cfg)
    state0 = spectral.project_initial(scenario_initial(cfg), cfg.J)
    rates = spectral.DiffusiveRates(cfg.a, cfg.D)
    traj = spectral.integrate(state0, rates, kern, cfg.kappa, cfg.t_end,
                              cfg.dt, store_every=_series_stride(cfg),
                              snapshot_times=_snapshot_times(cfg))
    traj.to_csv(path("trajectory.csv"))
    s = grid_nodes(cfg.N)
    snapshots = {t: spectral.reconstruct(spectral.SpectralState(cfg.J, beta, t), s)
                 for t, beta in traj.snapshots.items()}
    return {"csv": ["trajectory.csv"] + _write_snapshots(path, s, snapshots),
            "diagnostics": {"reality_drift": traj.reality_drift}}


def _step_grid(cfgs, snapshot_times) -> list:
    """Step grid scenarios that share N, dt, t_end, scheme and whether D > 0
    as one batch; returns one record per scenario, whose frames are the
    diagnostics of the stored states (the last one of the final state)."""
    cfg = cfgs[0]
    s = grid_nodes(cfg.N)
    ds = TWO_PI / cfg.N
    rec = gridsim.integrate_batch(
        [scenario_initial(c)(s) for c in cfgs], [_kernel(c) for c in cfgs],
        [c.a for c in cfgs], [c.kappa for c in cfgs], [c.D for c in cfgs],
        cfg.dt, cfg.t_end, cfg.scheme, snapshot_times, _series_stride(cfg),
        reduce=lambda y: analysis.diagnose(y, ds))
    return [rec.row(i) for i in range(len(cfgs))]


def run_grid(cfg: ScenarioConfig, path, rec=None) -> dict:
    """rec: this scenario's record from a sweep batch (see run_sweep); None
    steps it as a batch of one."""
    times = _snapshot_times(cfg)  # names the dropped times on stderr
    if rec is None:
        rec = _step_grid([cfg], times)[0]
    s = grid_nodes(cfg.N)
    names = _write_snapshots(path, s, rec.snapshots)
    series = rec.frames
    write_csv(path("series.csv"), ["t", "mass", "homogeneity", "n_peaks"],
              [rec.times, [d.mass for d in series],
               [d.homogeneity for d in series], [d.n_peaks for d in series]])
    diag = _final_diagnostics(series[-1])
    diag["clamped_nodes"] = rec.clamped
    return {"csv": names + ["series.csv"], "diagnostics": diag,
            "final_state": gridsim.GridState(cfg.N, rec.y, rec.t, rec.clamped)}


def _expansion(cfg: ScenarioConfig) -> asymptotics.AsymptoticExpansion:
    if cfg.initial_kind != "gaussian_bump":
        raise ConfigError(
            "initial.kind: the asymptotic solver needs gaussian_bump data "
            f"(homogeneous background plus 1/T bump), got {cfg.initial_kind!r}")
    bump = gridsim.initial_profile("gaussian", width=cfg.initial_width)
    beta1 = asymptotics.beta1_initial(bump, cfg.J)
    return asymptotics.AsymptoticExpansion(cfg.T, cfg.beta00, beta1, cfg.J,
                                           _kernel(cfg), cfg.a, cfg.kappa, cfg.D)


def run_asymptotic(cfg: ScenarioConfig, path) -> dict:
    expn = _expansion(cfg)
    s = grid_nodes(cfg.N)
    snapshots = {t: asymptotics.composite_density(t, s, expn)
                 for t in _snapshot_times(cfg)}
    return {"csv": _write_snapshots(path, s, snapshots),
            "diagnostics": {"saturation": expn.model.saturation}}


def run_manifold(cfg: ScenarioConfig, path) -> dict:
    spec = manifold.ConvectionSpec(
        a=manifold.constant_rate(cfg.a),
        b=manifold.gaussian_influence(cfg.b0, cfg.gamma),
        kappa=cfg.kappa,
        V_x=manifold.linear_drag(cfg.k0) if cfg.k0 > 0 else None,
    )
    state0 = manifold.circle_state(cfg.R, cfg.N, scenario_initial(cfg))
    times, rho_hist, X_hist = manifold.integrate(
        state0, spec, cfg.t_end, cfg.dt, store_every=_series_stride(cfg))
    manifold.trajectory_to_csv(path("trajectory.csv"), times, state0.s,
                               rho_hist, X_hist)
    diag = _final_diagnostics(
        analysis.diagnose(rho_hist[-1], state0.s[1] - state0.s[0]))
    diag["radius_final"] = float(np.mean(np.linalg.norm(X_hist[-1], axis=1)))
    return {"csv": ["trajectory.csv"], "diagnostics": diag}


def run_planar2d(cfg: ScenarioConfig, path) -> dict:
    kern2d = planar.GaussianKernel2D(cfg.b0, cfg.gamma)
    amplitude = 1.0 / (cfg.sigma * math.sqrt(TWO_PI) * cfg.R * SQRT_TWO_PI)
    field = planar.gaussian_ring(cfg.L, cfg.n2d, cfg.R, cfg.sigma,
                                 amplitude * cfg.beta00, cfg.D)
    field = planar.run2d(field, kern2d, cfg.a, cfg.kappa, cfg.dt, cfg.t_end)
    planar.field_to_csv(path("field.csv"), field)
    s, rho = planar.extract_sld(field, cfg.N)
    write_csv(path("extraction.csv"), ["s", "rho"], [s, rho])
    m, xbar = planar.moments(field)
    diag = {"mass": m, "first_moment": list(xbar),
            "boundary_mass_fraction": planar.boundary_mass_fraction(field)}
    return {"csv": ["field.csv", "extraction.csv"], "diagnostics": diag}


RUNNERS = {
    "exact": run_exact,
    "spectral": run_spectral,
    "grid": run_grid,
    "asymptotic": run_asymptotic,
    "manifold": run_manifold,
    "planar2d": run_planar2d,
}


def run_scenario(cfg: ScenarioConfig, outdir: str = None,
                 plot_script: bool = False, extra: str = None,
                 stepped=None) -> dict:
    """Run cfg and write its bundle.  stepped: (record, seconds) of a grid
    scenario already stepped in a sweep batch, the seconds being its share
    of the batch's wall time, which wall_time_s includes."""
    cfg.validate()
    path = _artifact_path(outdir or cfg.outdir)
    start = time.perf_counter()
    if stepped is None:
        result, wall = RUNNERS[cfg.solver](cfg, path), 0.0
    else:
        result, wall = run_grid(cfg, path, stepped[0]), stepped[1]
    if extra == "compare_asymptotic" and cfg.solver == "grid":
        _compare_with_asymptotic(cfg, path, result)
    if extra == "ring_csv" and cfg.solver == "grid":
        _emit_ring_csv(cfg, path, result)
    wall += time.perf_counter() - start
    _write_manifest(path, cfg, wall, {"diagnostics": result["diagnostics"],
                                      "artifacts": result["csv"]})
    if plot_script:
        snaps = [n for n in result["csv"] if n.startswith("snapshot")]
        _emit_plot_script(path, snaps or result["csv"][:1],
                          f"{cfg.label} ({cfg.solver})")
    return result


def _compare_with_asymptotic(cfg, path, result):
    expn = _expansion(cfg)
    state = result["final_state"]
    rho_asym = asymptotics.composite_density(state.t, state.s, expn)
    write_csv(path("asymptotic_comparison.csv"),
              ["s", "rho_grid", "rho_asymptotic"],
              [state.s, state.rho, rho_asym])
    result["csv"].append("asymptotic_comparison.csv")
    result["diagnostics"]["rel_linf_vs_asymptotic"] = \
        analysis.relative_linf(state.rho, rho_asym)


def _emit_ring_csv(cfg, path, result):
    state = result["final_state"]
    write_csv(path("ring.csv"), ["s", "x", "y", "rho"],
              [state.s, cfg.R * np.cos(state.s), cfg.R * np.sin(state.s),
               state.rho])
    result["csv"].append("ring.csv")


def run_sweep(cfg: ScenarioConfig, axis: str, values, outdir: str,
              plot_script: bool = False) -> list:
    """Run cfg once per value of the dotted key axis, each value a number or
    its text, typed by the key (see config.axis_value), in
    outdir/<key>_<value:g>, and tabulate the final diagnostics in
    outdir/summary.csv; returns [(value, diagnostics)]."""
    if cfg.solver not in ("grid", "manifold"):
        raise ConfigError(
            f"solver: a sweep tabulates final peaks, homogeneity and mass, "
            f"which only the grid and manifold solvers report; got {cfg.solver!r}")
    jobs, seen = [], {}
    for value in (axis_value(axis, v) for v in values):
        name = f"{axis.split('.')[-1]}_{value:g}"
        if name in seen:
            raise ConfigError(
                f"sweep values {seen[name]!r} and {value!r} both write to "
                f"{name!r}; give values that differ in 6 significant digits")
        seen[name] = value
        sub = dataclasses.replace(cfg)
        apply_assignment(sub, axis, str(value))
        sub.validate()
        jobs.append((value, sub, os.path.join(outdir, name)))
    if _mode() == "parallel":
        from concurrent.futures import ProcessPoolExecutor
        # one worker per entry, at most one per CPU
        workers = max(1, min(len(jobs), os.cpu_count() or 1))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_sweep_entry, jobs))
    elif cfg.solver == "grid":
        results = _run_grid_batches(jobs)
    else:
        results = [_sweep_entry(job) for job in jobs]
    rows = list(zip(*[(v, d["n_peaks_final"], d["homogeneity_final"],
                       d["mass_final"]) for v, d in results])) if results else []
    path = _artifact_path(outdir)
    write_csv(path("summary.csv"),
              ["value", "n_peaks", "homogeneity", "mass"], rows)
    if plot_script:
        _emit_plot_script(path, ["summary.csv"], f"sweep over {axis}")
    return results


def _sweep_entry(job, stepped=None):
    value, sub, subdir = job
    return value, run_scenario(sub, subdir, stepped=stepped)["diagnostics"]


def _run_grid_batches(jobs) -> list:
    """_sweep_entry of each grid job, in order.  Jobs that share N, dt,
    t_end, scheme, snapshot times and whether D > 0 step as one batch when
    the first of them comes up; their series stride follows from t_end and
    dt."""
    groups = {}
    for i, (_, sub, _) in enumerate(jobs):
        key = (sub.N, sub.dt, sub.t_end, sub.scheme, sub.snapshot_times,
               sub.D > 0)
        groups.setdefault(key, []).append(i)
    firsts = {group[0]: group for group in groups.values() if len(group) > 1}
    results, stepped = [], {}
    for i, job in enumerate(jobs):
        if i in firsts:
            stepped.update(_step_batch(jobs, firsts[i]))
        results.append(_sweep_entry(job, stepped.pop(i, None)))
    return results


def _step_batch(jobs, group) -> dict:
    """{index: (record, share of the batch's wall time)} for the grid jobs
    of the group, stepped as one batch.  If the batch raises what a job can
    raise alone (a ConfigError or other ValueError, a RuntimeError or an
    OverflowError), {}: each job then runs alone, and writes, fails and
    exits as it does without it.  Anything else is a fault of the batch
    path and propagates."""
    cfgs = [jobs[i][1] for i in group]
    start = time.perf_counter()
    try:
        recs = _step_grid(cfgs, _snapshot_times(cfgs[0], note=False))
    except (ValueError, RuntimeError, OverflowError):
        # a job raises it again when it runs alone
        return {}
    share = (time.perf_counter() - start) / len(group)
    return {i: (rec, share) for i, rec in zip(group, recs)}


def compare_bundles(dir_a: str, dir_b: str, outdir: str = None,
                    tol_linf: float = None) -> dict:
    """Relative L-inf/L2 errors between matching snapshot CSVs."""
    names_a = sorted(n for n in os.listdir(dir_a) if n.startswith("snapshot"))
    names_b = sorted(n for n in os.listdir(dir_b) if n.startswith("snapshot"))
    common = sorted(set(names_a) & set(names_b))
    if not common:
        raise ConfigError("bundles share no snapshot files")
    report = {}
    for name in common:
        _, (s_a, rho_a) = read_csv(os.path.join(dir_a, name))
        _, (s_b, rho_b) = read_csv(os.path.join(dir_b, name))
        if len(s_a) != len(s_b) or not np.allclose(s_a, s_b):
            # periodic resample of b onto a's grid
            order = np.argsort(s_b)
            sb, rb = s_b[order], rho_b[order]
            sb = np.concatenate([sb, [sb[0] + TWO_PI]])
            rb = np.concatenate([rb, [rb[0]]])
            rho_b = np.interp(np.mod(s_a - sb[0], TWO_PI) + sb[0], sb, rb)
        diff = rho_a - rho_b
        report[name] = {
            "rel_linf": analysis.relative(np.max(np.abs(diff)),
                                          np.max(np.abs(rho_b))),
            "rel_l2": analysis.relative(np.linalg.norm(diff),
                                        np.linalg.norm(rho_b)),
        }
    if outdir:
        names = sorted(report)
        write_csv(_artifact_path(outdir)("compare.csv"),
                  ["snapshot_index", "rel_linf", "rel_l2"],
                  [np.arange(len(names)),
                   [report[n]["rel_linf"] for n in names],
                   [report[n]["rel_l2"] for n in names]])
    passed = True
    for name, entry in sorted(report.items()):
        verdict = ""
        if tol_linf is not None:
            ok = entry["rel_linf"] <= tol_linf
            passed = passed and ok
            verdict = "  PASS" if ok else "  FAIL"
        print(f"{name}: rel_linf={entry['rel_linf']:.3e} "
              f"rel_l2={entry['rel_l2']:.3e}{verdict}")
    report["_passed"] = passed
    return report


def preset_text(name: str) -> str:
    ref = resources.files("nlfkpp").joinpath(f"presets/{name}.cfg")
    if not ref.is_file():
        raise ConfigError(f"preset: unknown preset {name!r}")
    return ref.read_text()


def list_presets():
    root = resources.files("nlfkpp").joinpath("presets")
    return sorted(p.name[:-4] for p in root.iterdir() if p.name.endswith(".cfg"))


SOLVER_COMMANDS = {
    "exact": "exact", "spectral": "spectral", "simulate": "grid",
    "manifold": "manifold", "planar2d": "planar2d", "asymptotic": "asymptotic",
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nlfkpp",
        description="Scenario runner for nonlocal population dynamics on "
                    "concentration manifolds.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="key = value configuration file")
        p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                       help="override a dotted configuration key")
        p.add_argument("--outdir", help="output directory")
        p.add_argument("--plot-script", action="store_true",
                       help="emit a gnuplot script next to the CSVs")

    for name in SOLVER_COMMANDS:
        common(sub.add_parser(name, help=f"run the {name} solver"))

    p_cmp = sub.add_parser("compare", help="compare two artifact bundles")
    p_cmp.add_argument("dir_a")
    p_cmp.add_argument("dir_b")
    p_cmp.add_argument("--outdir")
    p_cmp.add_argument("--tol-linf", type=float, default=None)

    p_sweep = sub.add_parser("sweep", help="run a scenario over an axis")
    common(p_sweep)
    p_sweep.add_argument("--axis", required=True, metavar="KEY")
    p_sweep.add_argument("--values", required=True,
                         help="comma-separated axis values")

    p_preset = sub.add_parser("preset", help="run a committed preset")
    p_preset.add_argument("name", nargs="?")
    p_preset.add_argument("--outdir")
    p_preset.add_argument("--set", action="append", default=[],
                          metavar="KEY=VALUE")
    p_preset.add_argument("--plot-script", action="store_true")
    p_preset.add_argument("--list", action="store_true",
                          help="list available presets and exit")
    return parser


def _load_cfg(args) -> ScenarioConfig:
    if args.config:
        return load_config(args.config, args.set)
    return apply_overrides(ScenarioConfig(), args.set).validate()


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command in SOLVER_COMMANDS:
            cfg = _load_cfg(args)
            cfg.solver = SOLVER_COMMANDS[args.command]
            run_scenario(cfg, args.outdir, args.plot_script)
            return 0
        if args.command == "compare":
            report = compare_bundles(args.dir_a, args.dir_b, args.outdir,
                                     args.tol_linf)
            return 0 if report["_passed"] else 1
        if args.command == "sweep":
            cfg = _load_cfg(args)
            run_sweep(cfg, args.axis, args.values.split(","),
                      args.outdir or cfg.outdir, args.plot_script)
            return 0
        if args.command == "preset":
            if args.list:
                for name in list_presets():
                    print(name)
                return 0
            if not args.name:
                raise ConfigError("preset: a preset name is required")
            cfg = apply_overrides(parse_config_text(preset_text(args.name)),
                                  args.set)
            cfg.label = args.name
            cfg.validate()
            outdir = args.outdir or os.path.join(cfg.outdir, args.name)
            if args.name in PRESET_SWEEPS:
                axis, values = PRESET_SWEEPS[args.name]
                run_sweep(cfg, axis, values, outdir, args.plot_script)
            else:
                run_scenario(cfg, outdir, args.plot_script,
                             PRESET_EXTRAS.get(args.name))
            return 0
        raise ConfigError(f"unknown command {args.command!r}")
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (RuntimeError, OverflowError) as exc:
        print(f"solver abort: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
