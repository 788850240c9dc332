import dataclasses
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from nlfkpp import cli, config, csvio, gridsim, manifold, spectral
from nlfkpp.config import (KEY_MAP, ConfigError, ScenarioConfig, load_config,
                           parse_config_text, resolved_items)
from nlfkpp.csvio import read_csv, write_csv
from nlfkpp.kernel import CircleKernelParams


class TestConfig:
    def test_parse_dotted_keys(self):
        cfg = parse_config_text(
            "model.a = 2.5\nnumerics.N = 128\ninitial.kind = cutoff\n")
        assert cfg.a == 2.5
        assert cfg.N == 128
        assert cfg.initial_kind == "cutoff"

    def test_comments_and_blanks_ignored(self):
        cfg = parse_config_text("# heading\n\nmodel.kappa = 0.3\n")
        assert cfg.kappa == 0.3

    def test_unknown_key_rejected(self):
        for text in ("model.zeta = 1\n", "numerics.backend = fast\n"):
            with pytest.raises(ConfigError):
                parse_config_text(text)

    def test_malformed_line_rejected(self):
        with pytest.raises(ConfigError):
            parse_config_text("model.a 1\n")

    def test_overrides_win(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("model.a = 1\nmodel.D = 0.1\n")
        cfg = load_config(path, ["model.a=3"])
        assert cfg.a == 3.0
        assert cfg.D == 0.1

    def test_validation_catches_bad_values(self):
        with pytest.raises(ConfigError):
            ScenarioConfig(a=-1.0).validate()
        with pytest.raises(ConfigError):
            ScenarioConfig(solver="magic").validate()

    def test_resolved_items_cover_all_keys(self):
        # one dotted key per field, so no key outlives the field it sets
        names = [f.name for f in dataclasses.fields(ScenarioConfig)]
        assert len(names) == 24
        assert sorted(KEY_MAP.values()) == sorted(names)
        items = resolved_items(ScenarioConfig())
        assert items["model.a"] == 1.0
        assert items["numerics.scheme"] == "rk4"
        assert "output.dir" in items


class TestRunners:
    def test_exact_runner_writes_curve(self, tmp_path):
        cfg = ScenarioConfig(solver="exact", t_end=5.0, dt=0.01)
        cli.run_scenario(cfg, str(tmp_path))
        header, cols = read_csv(tmp_path / "exact.csv")
        assert header == ["t", "beta0", "rho0"]
        assert cols[1][0] == 1.0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["config"]["model.a"] == 1.0
        assert "t_quasi_steady" in manifest["diagnostics"]

    def test_grid_runner_emits_snapshots_and_series(self, tmp_path):
        cfg = ScenarioConfig(solver="grid", N=64, t_end=1.0, dt=0.01,
                             D=0.1, scheme="imex",
                             initial_kind="gaussian_bump",
                             snapshot_times=(1.0, 0.0, 0.5))
        result = cli.run_scenario(cfg, str(tmp_path))
        assert result["csv"] == ["snapshot_t0.csv", "snapshot_t0.5.csv",
                                 "snapshot_t1.csv", "series.csv"]
        assert (tmp_path / "manifest.json").exists()
        s, rho0 = read_csv(tmp_path / "snapshot_t0.csv")[1]
        np.testing.assert_array_equal(rho0, cli.scenario_initial(cfg)(s))
        header, _ = read_csv(tmp_path / "series.csv")
        assert header == ["t", "mass", "homogeneity", "n_peaks"]

    def test_spectral_runner(self, tmp_path):
        cfg = ScenarioConfig(solver="spectral", J=6, N=64, t_end=1.0, dt=0.01,
                             initial_kind="gaussian_bump")
        cli.run_scenario(cfg, str(tmp_path))
        header, cols = read_csv(tmp_path / "trajectory.csv")
        assert header == ["t", "j", "re_beta", "im_beta"]
        assert set(np.unique(cols[1])) == set(range(-6, 7))

    def test_csv_floats_roundtrip(self, tmp_path):
        cfg = ScenarioConfig(solver="exact", t_end=1.0, dt=0.1)
        cli.run_scenario(cfg, str(tmp_path))
        raw = (tmp_path / "exact.csv").read_bytes()
        assert b"\r" not in raw  # LF endings only
        _, cols = read_csv(tmp_path / "exact.csv")
        from nlfkpp import exact as exact_mod
        from nlfkpp.kernel import CircleKernelParams, eigenvalue
        m = exact_mod.HomogeneousModel(1.0, 0.2,
                                       eigenvalue(0, CircleKernelParams(1, 1, 1)),
                                       1.0)
        np.testing.assert_array_equal(cols[1], exact_mod.beta0(cols[0], m))


class TestCliEntry:
    def test_exit_zero_on_success(self, tmp_path):
        rc = cli.main(["exact", "--set", "numerics.t_end=1",
                       "--outdir", str(tmp_path)])
        assert rc == 0

    def test_exit_two_on_validation_error(self, tmp_path, capsys):
        rc = cli.main(["simulate", "--set", "model.a=-1",
                       "--outdir", str(tmp_path)])
        assert rc == 2
        assert "model.a" in capsys.readouterr().err

    def test_exit_three_on_solver_abort(self, tmp_path, capsys):
        # spectral blow-up from a huge growth rate and tiny competition
        outdir = tmp_path / "run"
        rc = cli.main(["spectral", "--set", "model.a=80",
                       "--set", "model.kappa=0", "--set", "numerics.dt=0.05",
                       "--set", "numerics.t_end=50",
                       "--outdir", str(outdir)])
        assert rc == 3
        assert "solver abort" in capsys.readouterr().err
        assert not outdir.exists()

    @pytest.mark.parametrize("args", [
        ["simulate", "--set", "numerics.dt=0.5", "--set", "numerics.scheme=rk4",
         "--set", "model.D=0.1", "--set", "numerics.t_end=1"],
        ["planar2d", "--set", "numerics.n2d=32", "--set", "numerics.dt=5",
         "--set", "numerics.t_end=10"],
    ], ids=["grid", "planar"])
    def test_exit_two_on_stability_violation(self, tmp_path, capsys, args):
        outdir = tmp_path / "run"
        rc = cli.main(args + ["--outdir", str(outdir)])
        assert rc == 2
        assert "numerics.dt" in capsys.readouterr().err
        assert not outdir.exists()

    def test_abort_leaves_an_existing_directory_as_it_was(self, tmp_path):
        (tmp_path / "keep.txt").write_text("kept")
        rc = cli.main(["simulate", "--set", "numerics.dt=0.5",
                       "--set", "model.D=0.1", "--set", "numerics.t_end=1",
                       "--outdir", str(tmp_path)])
        assert rc == 2
        assert [p.name for p in tmp_path.iterdir()] == ["keep.txt"]

    @pytest.mark.parametrize("command", [
        ["simulate"], ["spectral"],
        ["asymptotic", "--set", "initial.kind=gaussian_bump"],
    ], ids=["simulate", "spectral", "asymptotic"])
    @pytest.mark.parametrize("extra, rc, message", [
        (["numerics.snapshot_times=-0.1"], 2,
         "numerics.snapshot_times: must be >= 0"),
        (["numerics.dt=0.1", "numerics.snapshot_times=0.37"], 2,
         "numerics.snapshot_times: 0.37 is not a whole number of steps"),
        (["numerics.snapshot_times=0.5 5"], 0, "lie past numerics.t_end = 1"),
    ], ids=["negative", "off_step", "past_t_end"])
    def test_snapshot_times_checked(self, tmp_path, capsys, command, extra, rc,
                                    message):
        # every snapshot solver writes the requested times up to t_end plus
        # t_end itself; a time past t_end is written nowhere, and said so
        outdir = tmp_path / "run"
        args = command + ["--set", "numerics.N=64", "--set", "numerics.t_end=1"]
        for item in extra:
            args += ["--set", item]
        assert cli.main(args + ["--outdir", str(outdir)]) == rc
        assert message in capsys.readouterr().err
        if rc:
            assert not outdir.exists()
        else:
            assert sorted(p.name for p in outdir.glob("snapshot_*")) == [
                "snapshot_t0.5.csv", "snapshot_t1.csv"]

    def test_spectral_snapshot_between_stored_frames(self, tmp_path):
        rc = cli.main(["spectral", "--set", "initial.kind=gaussian_bump",
                       "--set", "numerics.t_end=2",
                       "--set", "numerics.snapshot_times=0.37 2",
                       "--outdir", str(tmp_path)])
        assert rc == 0
        cfg = ScenarioConfig(initial_kind="gaussian_bump")
        state0 = spectral.project_initial(cli.scenario_initial(cfg), cfg.J)
        traj = spectral.integrate(state0, spectral.DiffusiveRates(cfg.a, cfg.D),
                                  cli._kernel(cfg), cfg.kappa, 0.37, cfg.dt)
        s, rho = read_csv(tmp_path / "snapshot_t0.37.csv")[1]
        np.testing.assert_array_equal(
            rho, spectral.reconstruct(traj.state(37), s))

    def test_from_samples_rejected_before_output(self, tmp_path, capsys):
        outdir = tmp_path / "run"
        rc = cli.main(["simulate", "--set", "initial.kind=from_samples",
                       "--outdir", str(outdir)])
        assert rc == 2
        assert "initial.kind" in capsys.readouterr().err
        assert not outdir.exists()

    def test_t_end_off_the_step_grid_rejected(self, tmp_path, capsys):
        # 1.005 / 0.01 = 100.5 steps: round() would stop at t = 1.00
        rc = cli.main(["exact", "--set", "numerics.t_end=1.005",
                       "--set", "numerics.dt=0.01", "--outdir", str(tmp_path)])
        assert rc == 2
        assert "numerics.t_end" in capsys.readouterr().err
        assert not (tmp_path / "exact.csv").exists()

    def test_t_end_on_the_step_grid_accepted(self, tmp_path):
        # 0.7 / 0.1 is 6.999999999999999 in floating point: 7 steps
        rc = cli.main(["exact", "--set", "numerics.t_end=0.7",
                       "--set", "numerics.dt=0.1", "--outdir", str(tmp_path)])
        assert rc == 0
        _, (t, _, _) = read_csv(tmp_path / "exact.csv")
        assert len(t) == 8
        assert t[-1] == pytest.approx(0.7)

    def test_compare_command(self, tmp_path):
        a_dir, b_dir = str(tmp_path / "a"), str(tmp_path / "b")
        for d in (a_dir, b_dir):
            cli.main(["simulate", "--set", "numerics.N=64",
                      "--set", "numerics.t_end=0.5",
                      "--set", "numerics.snapshot_times=0.5",
                      "--outdir", d])
        rc = cli.main(["compare", a_dir, b_dir, "--tol-linf", "1e-12"])
        assert rc == 0

    def test_compare_all_zero_snapshots(self, tmp_path, capsys):
        s = np.linspace(-math.pi, math.pi, 16, endpoint=False)
        dirs = {}
        for tag, rho in (("zero", np.zeros(16)), ("zero2", np.zeros(16)),
                         ("flat", np.full(16, 0.5))):
            dirs[tag] = tmp_path / tag
            dirs[tag].mkdir()
            write_csv(dirs[tag] / "snapshot_t1.csv", ["s", "rho"], [s, rho])
        report = cli.compare_bundles(str(dirs["zero"]), str(dirs["zero2"]))
        assert report["snapshot_t1.csv"] == {"rel_linf": 0.0, "rel_l2": 0.0}
        report = cli.compare_bundles(str(dirs["flat"]), str(dirs["zero"]))
        assert report["snapshot_t1.csv"] == {"rel_linf": math.inf,
                                             "rel_l2": math.inf}
        assert cli.main(["compare", str(dirs["zero"]), str(dirs["zero2"]),
                         "--tol-linf", "1e-12"]) == 0
        assert cli.main(["compare", str(dirs["flat"]), str(dirs["zero"]),
                         "--tol-linf", "1e300"]) == 1
        assert "rel_linf=inf" in capsys.readouterr().out

    def test_sweep_rejects_colliding_directories(self, tmp_path, capsys):
        for values, name in (("0.1234567,0.1234568", "'gamma_0.123457'"),
                             ("0.5,1,0.5", "'gamma_0.5'")):
            out = tmp_path / "sweep"
            rc = cli.main(["sweep", "--axis", "model.gamma", "--values", values,
                           "--set", "numerics.N=64", "--set", "numerics.t_end=0.1",
                           "--outdir", str(out)])
            assert rc == 2
            assert name in capsys.readouterr().err
            assert not out.exists()  # rejected before any entry ran

    def test_sweep_rejects_solvers_without_final_diagnostics(self, tmp_path,
                                                             capsys):
        out = tmp_path / "sweep"
        rc = cli.main(["sweep", "--axis", "model.a", "--values", "1,2",
                       "--set", "solver=exact", "--set", "numerics.t_end=1",
                       "--outdir", str(out)])
        assert rc == 2
        assert "'exact'" in capsys.readouterr().err
        assert not out.exists()  # rejected before any entry ran

    def test_sweep_command(self, tmp_path):
        rc = cli.main(["sweep", "--axis", "model.D", "--values", "0,0.1",
                       "--set", "numerics.N=64", "--set", "numerics.t_end=0.5",
                       "--set", "numerics.scheme=imex",
                       "--outdir", str(tmp_path)])
        assert rc == 0
        header, cols = read_csv(tmp_path / "summary.csv")
        assert header == ["value", "n_peaks", "homogeneity", "mass"]
        assert len(cols[0]) == 2

    def test_preset_listing(self, capsys):
        assert cli.main(["preset", "--list"]) == 0
        names = capsys.readouterr().out.split()
        assert "fig5b" in names and "fig8" in names

    def test_unknown_preset(self, capsys):
        assert cli.main(["preset", "fig99"]) == 2

    @pytest.mark.parametrize("command", [["preset", "fig1"], ["exact"]])
    def test_override_without_value_rejected(self, tmp_path, capsys, command):
        rc = cli.main(command + ["--set", "numerics.dt",
                                 "--outdir", str(tmp_path / "run")])
        assert rc == 2
        assert "'numerics.dt': expected key=value" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_plot_script_emission(self, tmp_path):
        rc = cli.main(["exact", "--set", "numerics.t_end=1",
                       "--outdir", str(tmp_path), "--plot-script"])
        assert rc == 0
        text = (tmp_path / "plot.gp").read_text()
        assert text.startswith("set datafile separator")


def bundle_files(out) -> dict:
    """{path relative to out: absolute path} of every file under out."""
    return {os.path.relpath(os.path.join(root, name), out):
            os.path.join(root, name)
            for root, _, names in os.walk(out) for name in names}


def assert_modes_agree(tmp_path, monkeypatch, argv, n_csv, n_manifests):
    """argv run in reference and in parallel mode writes the same CSV bytes
    and the same manifests but for mode and wall time."""
    bundles = {}
    for mode in ("reference", "parallel"):
        monkeypatch.setenv("NLFKPP_MODE", mode)
        out = tmp_path / mode
        assert cli.main(argv + ["--outdir", str(out)]) == 0
        bundles[mode] = bundle_files(out)
    ref, par = bundles["reference"], bundles["parallel"]
    assert sorted(ref) == sorted(par)
    csvs = [name for name in ref if name.endswith(".csv")]
    assert len(csvs) == n_csv
    for name in csvs:
        with open(ref[name], "rb") as a, open(par[name], "rb") as b:
            assert a.read() == b.read(), name
    manifests = [name for name in ref if name.endswith("manifest.json")]
    assert len(manifests) == n_manifests
    for name in manifests:
        with open(ref[name]) as a, open(par[name]) as b:
            m_ref, m_par = json.load(a), json.load(b)
        assert (m_ref.pop("mode"), m_par.pop("mode")) == ("reference",
                                                          "parallel")
        m_ref.pop("wall_time_s")
        m_par.pop("wall_time_s")
        assert m_ref == m_par


FIG5A = os.path.join(os.path.dirname(cli.__file__), "presets", "fig5a.cfg")


class TestParallelMode:
    def test_parallel_sweep_byte_identical_to_reference(self, tmp_path,
                                                        monkeypatch):
        # summary; series, t = 0 and t = 1 per D
        assert_modes_agree(tmp_path, monkeypatch,
                           ["preset", "fig8", "--set", "numerics.t_end=1"],
                           n_csv=10, n_manifests=3)

    def test_parallel_gamma_sweep_byte_identical_to_reference(self, tmp_path,
                                                              monkeypatch):
        # reference mode steps the four gammas as one batch, parallel mode
        # each in its own process; summary; series, t = 0 and 0.5 per gamma
        assert_modes_agree(tmp_path, monkeypatch,
                           ["sweep", "--config", FIG5A, "--axis", "model.gamma",
                            "--values", "0.05,1,1.5,50",
                            "--set", "numerics.t_end=0.5"],
                           n_csv=13, n_manifests=4)

    @pytest.mark.parametrize("cpus, workers", [(2, 2), (8, 3), (None, 1)])
    def test_pool_capped_at_entries_and_cpus(self, tmp_path, monkeypatch,
                                             cpus, workers):
        # a stand-in pool records its size and maps in this process
        import concurrent.futures

        sizes = []

        class SerialPool:
            def __init__(self, max_workers=None):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, jobs):
                return map(fn, jobs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            SerialPool)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        monkeypatch.setenv("NLFKPP_MODE", "parallel")
        rc = cli.main(["sweep", "--axis", "model.D", "--values", "0,0.1,0.2",
                       "--set", "numerics.N=64", "--set", "numerics.t_end=0.5",
                       "--set", "numerics.scheme=imex",
                       "--outdir", str(tmp_path)])
        assert rc == 0
        assert sizes == [workers]
        assert len(read_csv(tmp_path / "summary.csv")[1][0]) == 3


def count_batches(monkeypatch) -> list:
    """The number of runs in each gridsim.integrate_batch call from now on."""
    sizes = []
    batch = gridsim.integrate_batch

    def counted(rho0, *args, **kwargs):
        sizes.append(len(rho0))
        return batch(rho0, *args, **kwargs)

    monkeypatch.setattr(gridsim, "integrate_batch", counted)
    return sizes


SMALL_GRID = ["--set", "numerics.N=64", "--set", "numerics.t_end=0.5"]


class TestSweepBatches:
    @pytest.mark.parametrize("scheme", ["euler", "rk4", "imex"])
    @pytest.mark.parametrize("D", [(0.0, 0.0, 0.0), (0.1, 0.05, 0.1)],
                             ids=["no_diffusion", "diffusion"])
    def test_batch_rows_equal_runs_alone(self, scheme, D):
        kerns = [CircleKernelParams(1.0, g, 1.0) for g in (0.3, 1.0, 5.0)]
        a, kappa = (1.0, 2.0, 1.0), (0.2, 0.2, 0.5)
        states = [gridsim.make_initial("gaussian_bump", 64, T=T)
                  for T in (10.0, 4.0, 10.0)]
        times = (0.0, 0.3, 1.0)
        batch = gridsim.integrate_batch(
            [st.rho for st in states], kerns, a, kappa, D, 0.01, 1.0, scheme,
            times, store_every=7)
        for i, state in enumerate(states):
            alone = gridsim.integrate(state, kerns[i], a[i], kappa[i], D[i],
                                      0.01, 1.0, scheme, times, store_every=7)
            row = batch.row(i)
            assert (row.t, row.clamped, row.times) == \
                (alone.t, alone.clamped, alone.times)
            assert np.array_equal(row.y, alone.y)
            assert len(row.frames) == len(alone.frames) == 16
            for got, want in zip(row.frames, alone.frames):
                assert np.array_equal(got, want)
            assert list(row.snapshots) == list(alone.snapshots) == list(times)
            for t in times:
                assert np.array_equal(row.snapshots[t], alone.snapshots[t])

    @pytest.mark.parametrize("kernels, D, message", [
        (2, (0.0, 0.1), "D > 0"),
        (1, (0.1, 0.1), "one kernel, a, kappa and D per run"),
    ], ids=["mixed_diffusion", "one_kernel_for_two_runs"])
    def test_batch_inputs_checked(self, unit_kernel, kernels, D, message):
        with pytest.raises(ValueError, match=message):
            gridsim.integrate_batch(np.ones((2, 64)), [unit_kernel] * kernels,
                                    (1.0, 1.0), (0.2, 0.2), D, 0.01, 0.1,
                                    "imex")

    def test_mixed_diffusion_sweep_equals_entries_run_alone(
            self, tmp_path, monkeypatch):
        monkeypatch.setenv("NLFKPP_MODE", "reference")
        sizes = count_batches(monkeypatch)
        common = SMALL_GRID + ["--set", "numerics.scheme=imex"]
        assert cli.main(["sweep", "--axis", "model.D", "--values",
                         "0,0.05,0.1", "--outdir", str(tmp_path / "sweep")]
                        + common) == 0
        # D = 0 runs alone; the two D > 0 entries step as one batch
        assert sizes == [1, 2]
        for value in ("0", "0.05", "0.1"):
            alone = tmp_path / f"alone_{value}"
            assert cli.main(["simulate", "--set", f"model.D={value}",
                             "--outdir", str(alone)] + common) == 0
            swept = bundle_files(tmp_path / "sweep" / f"D_{value}")
            files = bundle_files(alone)
            assert sorted(swept) == sorted(files)
            for name in files:
                if name.endswith(".csv"):
                    with open(swept[name], "rb") as a, \
                            open(files[name], "rb") as b:
                        assert a.read() == b.read(), name

    def test_unstable_middle_entry_fails_as_if_run_alone(
            self, tmp_path, monkeypatch, capsys):
        # D = 50 breaks the explicit bound ds^2 / (2 D) on the first step
        monkeypatch.setenv("NLFKPP_MODE", "reference")
        common = SMALL_GRID + ["--set", "numerics.scheme=rk4"]
        assert cli.main(["simulate", "--set", "model.D=50", "--outdir",
                         str(tmp_path / "alone")] + common) == 2
        alone_err = capsys.readouterr().err
        assert alone_err.startswith(
            "configuration error: numerics.dt: dt=0.01 violates the "
            "stability bound")
        sizes = count_batches(monkeypatch)
        out = tmp_path / "sweep"
        assert cli.main(["sweep", "--axis", "model.D", "--values",
                         "0.1,50,0.2", "--outdir", str(out)] + common) == 2
        assert capsys.readouterr().err == alone_err
        # the batch raised; the entries then ran alone, the first to the end
        assert sizes == [3, 1, 1]
        assert sorted(os.listdir(out)) == ["D_0.1"]
        assert sorted(os.listdir(out / "D_0.1")) == [
            "manifest.json", "series.csv", "snapshot_t0.5.csv"]


    def test_blow_up_in_middle_entry_fails_as_if_run_alone(
            self, tmp_path, monkeypatch, capsys):
        # a = 30 without competition passes 1e12 before t = 1 (exit 3)
        monkeypatch.setenv("NLFKPP_MODE", "reference")
        common = ["--set", "numerics.N=64", "--set", "numerics.t_end=1",
                  "--set", "numerics.dt=0.02", "--set", "model.kappa=0"]
        assert cli.main(["simulate", "--set", "model.a=30", "--outdir",
                         str(tmp_path / "alone")] + common) == 3
        alone_err = capsys.readouterr().err
        assert alone_err.startswith("solver abort: solution blew up at t=")
        sizes = count_batches(monkeypatch)
        out = tmp_path / "sweep"
        assert cli.main(["sweep", "--axis", "model.a", "--values", "1,30,2",
                         "--outdir", str(out)] + common) == 3
        assert capsys.readouterr().err == alone_err
        assert sizes == [3, 1, 1]
        assert sorted(os.listdir(out)) == ["a_1"]

    def test_fault_in_the_batch_path_propagates(self, tmp_path, monkeypatch):
        # an error no run raises alone is a fault of the batch path: it is
        # not hidden by running the entries again one at a time
        monkeypatch.setenv("NLFKPP_MODE", "reference")
        sizes = count_batches(monkeypatch)
        batch = gridsim.integrate_batch

        def broken(rho0, *args, **kwargs):
            if len(rho0) > 1:
                raise TypeError("broken batch")
            return batch(rho0, *args, **kwargs)

        monkeypatch.setattr(gridsim, "integrate_batch", broken)
        out = tmp_path / "sweep"
        with pytest.raises(TypeError, match="broken batch"):
            cli.main(["sweep", "--axis", "model.gamma", "--values", "0.5,1",
                      "--outdir", str(out)] + SMALL_GRID)
        assert not out.exists()


class TestIntegerSweepAxes:
    @pytest.mark.parametrize("axis, values, written", [
        ("numerics.N", "64,128", ["64", "128"]),
        ("numerics.J", "4,8.0", ["4", "8"]),
    ])
    def test_integer_axis(self, tmp_path, axis, values, written):
        out = tmp_path / "sweep"
        assert cli.main(["sweep", "--axis", axis, "--values", values,
                         "--set", "numerics.N=64", "--set",
                         "numerics.t_end=0.1", "--outdir", str(out)]) == 0
        key = axis.split(".")[-1]
        names = [f"{key}_{v}" for v in written]
        assert sorted(os.listdir(out)) == sorted(names + ["summary.csv"])
        for name, text in zip(names, written):
            with open(out / name / "manifest.json") as fh:
                value = json.load(fh)["config"][axis]
            assert type(value) is int and value == int(text)
        rows = (out / "summary.csv").read_text().splitlines()[1:]
        assert [row.split(",")[0] for row in rows] == written

    @pytest.mark.parametrize("axis, values, message", [
        ("numerics.N", "64.5", "numerics.N: expected a whole number, got '64.5'"),
        ("numerics.J", "4,inf", "numerics.J: expected a whole number"),
        ("numerics.N", "64,x", "numerics.N: cannot parse 'x'"),
        ("numerics.scheme", "1,2", "numerics.scheme: a sweep axis must be a "
                                   "numeric key"),
    ])
    def test_bad_values_rejected(self, tmp_path, capsys, axis, values,
                                 message):
        out = tmp_path / "sweep"
        assert cli.main(["sweep", "--axis", axis, "--values", values,
                         "--set", "numerics.t_end=0.1",
                         "--outdir", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()  # rejected before any entry ran

    def test_float_axis_names_unchanged(self):
        assert [config.axis_value("model.gamma", v)
                for v in ("0.05", 1, "1e2")] == [0.05, 1.0, 100.0]
        assert config.axis_value("numerics.N", 64.0) == 64


class TestImport:
    def test_cli_import_leaves_out_scipy_signal(self):
        import nlfkpp

        src = os.path.dirname(os.path.dirname(nlfkpp.__file__))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [src] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
        out = subprocess.run(
            [sys.executable, "-c",
             "import sys, nlfkpp.cli; print(nlfkpp.cli.__file__); "
             "print('scipy.signal' in sys.modules)"],
            env=env, capture_output=True, text=True, check=True)
        path, loaded = out.stdout.split()
        assert os.path.dirname(path) == os.path.dirname(nlfkpp.__file__)
        assert loaded == "False"


class TestCsvWriting:
    def test_bulk_formatting_matches_per_cell_fmt(self, tmp_path):
        rng = np.random.default_rng(31)
        columns = [np.arange(-3, 9), rng.standard_normal(12) * 1e-300,
                   rng.random(12).astype(np.float32), np.arange(12) % 2 == 0,
                   [1, 2.5, -0.0, math.inf, 7, 1e22, 3, 4, 5, 6, 8, 9],
                   np.arange(12, dtype=np.uint64) * 2**60]
        path = tmp_path / "cols.csv"
        write_csv(path, list("abcdef"), columns)
        arrays = [np.asarray(c) for c in columns]
        expected = "a,b,c,d,e,f\n" + "".join(
            ",".join(csvio.fmt(c[i]) for c in arrays) + "\n" for i in range(12))
        assert path.read_text() == expected

    def test_text_columns_written_as_given(self, tmp_path):
        numbers = np.array([0.1, -0.0, 1e-300])
        text = csvio.column_text(numbers)
        assert text == [csvio.fmt(v) for v in numbers]
        path = tmp_path / "text.csv"
        write_csv(path, ["a", "b", "c"], [text, numbers, ["x", "1e5", ""]])
        assert path.read_text() == ("a,b,c\n"
                                    "0.10000000000000001,0.10000000000000001,x\n"
                                    "-0,-0,1e5\n"
                                    "1e-300,1e-300,\n")

    @pytest.mark.parametrize("moving", [False, True], ids=["static", "moving"])
    def test_trajectory_csv_matches_per_cell_fmt(self, tmp_path, moving):
        rng = np.random.default_rng(5)
        times, s = np.array([0.0, 0.1, 0.30000000000000004]), np.arange(4) * 0.5
        X = np.repeat(rng.standard_normal((1, 4, 2)), 3, axis=0)
        X[:, 0, 1] = 0.0
        if moving:
            X[2, 0, 1] = -0.0  # equal to 0.0, but written as -0
        rho = rng.random((3, 4))
        path = tmp_path / "trajectory.csv"
        manifold.trajectory_to_csv(path, times, s, rho, X)
        expected = "t,s,x1,x2,rho\n" + "".join(
            ",".join(csvio.fmt(v) for v in (t, s[k], *X[i, k], rho[i, k]))
            + "\n" for i, t in enumerate(times) for k in range(4))
        assert path.read_text() == expected


    def test_spectral_trajectory_csv_matches_per_cell_fmt(self, tmp_path):
        rng = np.random.default_rng(8)
        times = np.array([0.0, 0.1, 0.30000000000000004, 1e-300])
        beta = rng.standard_normal((4, 5)) + 1j * rng.standard_normal((4, 5))
        beta[1, 2] = complex(-0.0, 0.0)
        path = tmp_path / "trajectory.csv"
        spectral.SpectralTrajectory(2, times, beta).to_csv(path)
        expected = "t,j,re_beta,im_beta\n" + "".join(
            ",".join(csvio.fmt(v) for v in (t, j, beta[i, j + 2].real,
                                            beta[i, j + 2].imag)) + "\n"
            for i, t in enumerate(times) for j in range(-2, 3))
        assert path.read_text() == expected


class TestDeterminism:
    def test_preset_rerun_byte_identical(self, tmp_path, monkeypatch):
        monkeypatch.setenv("NLFKPP_MODE", "reference")
        out = []
        for tag in ("one", "two"):
            d = tmp_path / tag
            assert cli.main(["preset", "fig1", "--outdir", str(d)]) == 0
            out.append(d)
        for name in os.listdir(out[0]):
            if name.endswith(".csv"):
                assert (out[0] / name).read_bytes() == (out[1] / name).read_bytes()
