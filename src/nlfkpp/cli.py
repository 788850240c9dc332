"""Scenario runner: configures a model from ``key = value`` files and
command-line overrides, dispatches to a solver, and writes CSV artifacts,
a JSON manifest, and optional gnuplot scripts.

Exit codes: 0 success, 2 configuration/validation error, 3 solver abort.
NLFKPP_MODE picks only how the units of a sweep run: ``reference`` (the
default) in order, ``parallel`` in a process pool; the units are the same,
so the bytes are too (see run_sweep).

Importing this module freezes the objects of its imports (gc.freeze), so
the collector and the interpreter's exit skip them; a run's own objects
stay collectable, and ``import nlfkpp`` alone freezes nothing.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import importlib.util
import itertools
import json
import math
import os
import sys
import time
from importlib import resources

import numpy as np

from . import __version__, analysis, gridsim
from .config import (SNAPSHOT_SOLVERS, ConfigError, ScenarioConfig,
                     apply_assignment, apply_overrides, axis_value,
                     load_config, parse_config_text, resolved_items,
                     snapshot_name)
from .csvio import write_csv
from .kernel import (SQRT_TWO_PI, TWO_PI, CircleKernelParams, eigenvalue,
                     grid_nodes)


def _lazy(name: str):
    """The package module ``name``, registered in sys.modules now and run on
    the first access to one of its attributes (importlib.util.LazyLoader);
    a module already imported is returned as it is."""
    fullname = f"{__package__}.{name}"
    if fullname in sys.modules:
        return sys.modules[fullname]
    spec = importlib.util.find_spec(fullname)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[fullname] = module
    spec.loader.exec_module(module)
    setattr(sys.modules[__package__], name, module)
    return module


# The solver modules and compare, registered here but run only by a command
# that uses them: without bytecode caches every process compiles what it
# runs.  backends is spectral's; it is registered with the others so that
# `import nlfkpp.cli` still leaves every package module in sys.modules, as
# tools that patch the package's functions after that import expect
# (perfbench/child.py).
exact, spectral, backends, asymptotics, manifold, planar, compare = map(
    _lazy, ("exact", "spectral", "backends", "asymptotics", "manifold",
            "planar", "compare"))
# The objects made by these imports live until the process exits, so neither
# the collector nor the interpreter's exit-time teardown needs to walk them.
gc.freeze()

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


def _write_manifest(path, cfg, mode, wall, extra=None):
    manifest = {
        "config": resolved_items(cfg),
        "version": __version__,
        "mode": mode,
        "wall_time_s": wall,
    }
    if extra:
        manifest.update(extra)
    with open(path("manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True, default=str)
        fh.write("\n")


def _note_late_snapshots(cfgs) -> None:
    """Name on stderr the snapshot times past t_end that the snapshot
    solvers among cfgs drop, each distinct note once."""
    late = {(tuple(t for t in c.snapshot_times if t > c.t_end), c.t_end): 0
            for c in cfgs if c.solver in SNAPSHOT_SOLVERS}
    for times, t_end in late:
        if times:
            print(f"note: numerics.snapshot_times {list(times)} lie past "
                  f"numerics.t_end = {t_end:g}; no snapshot is written for "
                  f"them", file=sys.stderr)


def _write_snapshots(path, s, snapshots: dict) -> list:
    """snapshot_t<time>.csv with columns (s, rho) for each {time: rho};
    returns the file names."""
    names = []
    for t_snap, rho in snapshots.items():
        name = snapshot_name(t_snap)
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
    beta0 = spectral.project_initial(scenario_initial(cfg), cfg.J)
    rec = spectral.integrate(beta0, _kernel(cfg), cfg.a, cfg.kappa, cfg.D,
                             cfg.dt, cfg.t_end,
                             cfg.written_snapshot_times(), _series_stride(cfg))
    spectral.trajectory_to_csv(path("trajectory.csv"), rec)
    s = grid_nodes(cfg.N)
    snapshots = {t: spectral.reconstruct(beta, s)
                 for t, beta in rec.snapshots.items()}
    # Im beta_0, 0 by construction of the half spectrum
    drift = max(abs(beta[0].imag) for beta in rec.frames)
    return {"csv": ["trajectory.csv"] + _write_snapshots(path, s, snapshots),
            "diagnostics": {"reality_drift": float(drift)}}


def _step_grid(cfgs, snapshot_times) -> list:
    """Step grid scenarios that share N, dt, t_end, scheme and whether D > 0
    as one batch; returns one record per scenario, whose frames are the
    diagnostics of the stored states (the last one of the final state),
    taken by one analysis.diagnose call per block of stored states."""
    cfg = cfgs[0]
    s = grid_nodes(cfg.N)
    ds = TWO_PI / cfg.N
    runs = len(cfgs)

    def diagnose(stack):
        # one row per run and stored state; frame i is the runs of state i
        rows = analysis.diagnose(stack.reshape(-1, cfg.N), ds)
        return [rows[i:i + runs] for i in range(0, len(rows), runs)]

    rec = gridsim.integrate_batch(
        [scenario_initial(c)(s) for c in cfgs], [_kernel(c) for c in cfgs],
        [c.a for c in cfgs], [c.kappa for c in cfgs], [c.D for c in cfgs],
        cfg.dt, cfg.t_end, cfg.scheme, snapshot_times, _series_stride(cfg),
        reduce=diagnose)
    return [rec.row(i) for i in range(runs)]


def run_grid(cfg: ScenarioConfig, path, rec=None) -> dict:
    """rec: this scenario's record from a sweep batch (see run_sweep); None
    steps it as a batch of one."""
    if rec is None:
        rec = _step_grid([cfg], cfg.written_snapshot_times())[0]
    s = grid_nodes(cfg.N)
    names = _write_snapshots(path, s, rec.snapshots)
    series = rec.frames
    write_csv(path("series.csv"), ["t", "mass", "homogeneity", "n_peaks"],
              [rec.times, [d.mass for d in series],
               [d.homogeneity for d in series], [d.n_peaks for d in series]])
    diag = _final_diagnostics(series[-1])
    diag["clamped_nodes"] = rec.clamped
    return {"csv": names + ["series.csv"], "diagnostics": diag, "record": rec}


def _expansion(cfg: ScenarioConfig):
    """The asymptotics.AsymptoticExpansion of cfg's gaussian_bump data."""
    if cfg.initial_kind != "gaussian_bump":
        raise ConfigError(
            "initial.kind: the asymptotic solver needs gaussian_bump data "
            f"(homogeneous background plus 1/T bump), got {cfg.initial_kind!r}")
    bump = gridsim.initial_profile("gaussian", width=cfg.initial_width)
    beta1 = asymptotics.beta1_initial(bump, cfg.J)
    return asymptotics.AsymptoticExpansion(cfg.T, cfg.beta00, beta1,
                                           _kernel(cfg), cfg.a, cfg.kappa, cfg.D)


def run_asymptotic(cfg: ScenarioConfig, path) -> dict:
    expn = _expansion(cfg)
    s = grid_nodes(cfg.N)
    snapshots = {t: asymptotics.composite_density(t, s, expn)
                 for t in cfg.written_snapshot_times()}
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
    rec = manifold.integrate(state0, spec, cfg.t_end, cfg.dt,
                             store_every=_series_stride(cfg))
    manifold.trajectory_to_csv(path("trajectory.csv"), rec, state0.s)
    rho, X = manifold.unpack(rec.y, cfg.N)
    diag = _final_diagnostics(analysis.diagnose(rho, state0.s[1] - state0.s[0]))
    diag["radius_final"] = float(np.mean(np.linalg.norm(X, axis=1)))
    diag["clamped_nodes"] = int(rec.clamped[0])
    return {"csv": ["trajectory.csv"], "diagnostics": diag}


def run_planar2d(cfg: ScenarioConfig, path) -> dict:
    kern2d = planar.GaussianKernel2D(cfg.b0, cfg.gamma)
    amplitude = 1.0 / (cfg.sigma * math.sqrt(TWO_PI) * cfg.R * SQRT_TWO_PI)
    field = planar.gaussian_ring(cfg.L, cfg.n2d, cfg.R, cfg.sigma,
                                 amplitude * cfg.beta00, cfg.D)
    rec = planar.run2d(field, kern2d, cfg.a, cfg.kappa, cfg.dt, cfg.t_end)
    field = planar.Field2D(cfg.L, cfg.n2d, rec.y, rec.t, cfg.D)
    planar.field_to_csv(path("field.csv"), field)
    s, rho = planar.extract_sld(field, cfg.N)
    write_csv(path("extraction.csv"), ["s", "rho"], [s, rho])
    m, xbar = planar.moments(field)
    diag = {"mass": m, "first_moment": list(xbar),
            "boundary_mass_fraction": planar.boundary_mass_fraction(field),
            "clamped_nodes": int(rec.clamped[0])}
    return {"csv": ["field.csv", "extraction.csv"], "diagnostics": diag}


RUNNERS = {
    "exact": run_exact,
    "spectral": run_spectral,
    "grid": run_grid,
    "asymptotic": run_asymptotic,
    "manifold": run_manifold,
    "planar2d": run_planar2d,
}
# the lazily registered modules that each solver's runner and each preset
# extra use, with those they use in turn; main runs them before the scenario
# call, so that their compile time counts as start-up
SOLVER_MODULES = {
    "exact": (exact,), "spectral": (spectral, backends), "grid": (),
    "asymptotic": (asymptotics,), "manifold": (manifold,),
    "planar2d": (planar,),
}
EXTRA_MODULES = {"compare_asymptotic": (asymptotics,)}


def _load_modules(cfg: ScenarioConfig, extra: str = None) -> None:
    for module in SOLVER_MODULES[cfg.solver] + EXTRA_MODULES.get(extra, ()):
        getattr(module, "__name__")  # runs a lazily registered module


def run_scenario(cfg: ScenarioConfig, outdir: str = None,
                 plot_script: bool = False, extra: str = None,
                 stepped=None, note=True) -> dict:
    """Run cfg and write its bundle.  stepped: (record, seconds) of a grid
    scenario already stepped in a sweep batch, the seconds being its share
    of the batch's wall time, which wall_time_s includes.  note=False
    leaves the snapshot-time note to the caller (run_sweep notes once)."""
    cfg.validate()
    mode = _mode()  # a configuration error too: raised before any output
    _note_late_snapshots([cfg] if note else [])
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
    _write_manifest(path, cfg, mode, wall,
                    {"diagnostics": result["diagnostics"],
                     "artifacts": result["csv"]})
    if plot_script:
        snaps = [n for n in result["csv"] if n.startswith("snapshot")]
        _emit_plot_script(path, snaps or result["csv"][:1],
                          f"{cfg.label} ({cfg.solver})")
    return result


def _compare_with_asymptotic(cfg, path, result):
    expn = _expansion(cfg)
    rec, s = result["record"], grid_nodes(cfg.N)
    rho_asym = asymptotics.composite_density(rec.t, s, expn)
    write_csv(path("asymptotic_comparison.csv"),
              ["s", "rho_grid", "rho_asymptotic"], [s, rec.y, rho_asym])
    result["csv"].append("asymptotic_comparison.csv")
    result["diagnostics"]["rel_linf_vs_asymptotic"] = \
        analysis.relative_linf(rec.y, rho_asym)


def _emit_ring_csv(cfg, path, result):
    rec, s = result["record"], grid_nodes(cfg.N)
    write_csv(path("ring.csv"), ["s", "x", "y", "rho"],
              [s, cfg.R * np.cos(s), cfg.R * np.sin(s), rec.y])
    result["csv"].append("ring.csv")


def run_sweep(cfg: ScenarioConfig, axis: str, values, outdir: str,
              plot_script: bool = False) -> list:
    """Run cfg once per value of the dotted key axis, each value a number or
    its text, typed by the key (see config.axis_value), in
    outdir/<key>_<value:g>, and tabulate the final diagnostics in
    outdir/summary.csv; returns [(value, diagnostics)].  The entries run
    in units (_batch_key, _run_unit), the same in both modes."""
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
    _note_late_snapshots(sub for _, sub, _ in jobs)
    units = [[job for _, job in unit] for _, unit in
             itertools.groupby(enumerate(jobs), _batch_key)]
    if _mode() == "parallel":
        from concurrent.futures import ProcessPoolExecutor
        # one worker per unit, at most one per CPU
        workers = max(1, min(len(units), os.cpu_count() or 1))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            done = list(pool.map(_run_unit, units))
    else:
        done = map(_run_unit, units)
    results = [entry for unit in done for entry in unit]
    rows = list(zip(*[(v, d["n_peaks_final"], d["homogeneity_final"],
                       d["mass_final"]) for v, d in results])) if results else []
    path = _artifact_path(outdir)
    write_csv(path("summary.csv"),
              ["value", "n_peaks", "homogeneity", "mass"], rows)
    if plot_script:
        _emit_plot_script(path, ["summary.csv"], f"sweep over {axis}")
    return results


def _batch_key(item):
    """groupby key of the sweep plan for (index, job): a grid job's N, dt,
    t_end, scheme, snapshot times and whether D > 0, so that consecutive
    grid jobs that share them make one unit; any other job's own index."""
    i, (_, sub, _) = item
    if sub.solver != "grid":
        return i
    return sub.N, sub.dt, sub.t_end, sub.scheme, sub.snapshot_times, sub.D > 0


def _run_unit(unit) -> list:
    """[(value, final diagnostics)] of the sweep jobs of one unit, written
    in order.  A unit of several grid jobs steps them as one batch first;
    if the batch raises what a job can raise alone (a ConfigError or other
    ValueError, a RuntimeError or an OverflowError), each job runs alone,
    and writes, fails and exits as it does without it.  Anything else is a
    fault of the batch path and propagates."""
    stepped = [None] * len(unit)
    if len(unit) > 1:
        cfgs = [sub for _, sub, _ in unit]
        start = time.perf_counter()
        try:
            recs = _step_grid(cfgs, cfgs[0].written_snapshot_times())
        except (ValueError, RuntimeError, OverflowError):
            pass  # a job raises it again when it runs alone
        else:
            # each job's share of the batch's wall time
            share = (time.perf_counter() - start) / len(unit)
            stepped = [(rec, share) for rec in recs]
    return [(value, run_scenario(sub, subdir, stepped=batched,
                                 note=False)["diagnostics"])
            for (value, sub, subdir), batched in zip(unit, stepped)]


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
        text = f"run the {name} solver"
        if name == "asymptotic":
            text += " (needs --set initial.kind=gaussian_bump)"
        common(sub.add_parser(name, help=text, description=text))

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


def _load_cfg(args, solver: str = None) -> ScenarioConfig:
    """The --config file, or the defaults, with the --set overrides and the
    command's solver (None: the configured one), validated.  The command's
    solver replaces the file's; a --set naming another one is a
    ConfigError."""
    overrides = list(args.set)
    if solver:
        for item in args.set:
            key, _, value = item.partition("=")
            if key.strip() == "solver" and value.strip() != solver:
                raise ConfigError(f"--set {item!r}: this command runs the "
                                  f"{solver!r} solver")
        overrides.append(f"solver={solver}")
    if args.config:
        return load_config(args.config, overrides)
    return apply_overrides(ScenarioConfig(), overrides).validate()


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command in SOLVER_COMMANDS:
            cfg = _load_cfg(args, SOLVER_COMMANDS[args.command])
            _load_modules(cfg)
            run_scenario(cfg, args.outdir, args.plot_script)
            return 0
        if args.command == "compare":
            report = compare.compare_bundles(args.dir_a, args.dir_b,
                                             args.outdir, args.tol_linf)
            return 0 if report["_passed"] else 1
        if args.command == "sweep":
            cfg = _load_cfg(args)
            _load_modules(cfg)
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
            _load_modules(cfg, PRESET_EXTRAS.get(args.name))
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
