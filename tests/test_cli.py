import dataclasses
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from nlfkpp import (cli, compare, config, csvio, gridsim, manifold, spectral,
                    stepping)
from nlfkpp.config import (KEY_MAP, ConfigError, ScenarioConfig, load_config,
                           parse_config_text, resolved_items)
from nlfkpp.csvio import read_csv, write_csv
from nlfkpp.kernel import CircleKernelParams

from conftest import sampled, series_oracle

FIELDS = {f.metadata["key"]: f for f in dataclasses.fields(ScenarioConfig)}
NUMERIC_KEYS = [key for key, f in FIELDS.items() if f.type is not str]


def outside(domain) -> str:
    """A value just outside domain, read from its wording."""
    wording = domain[0]
    if wording == "positive":
        return "0"
    if wording == "nonnegative":
        return "-1"
    return str(int(wording.removeprefix(">= ")) - 1)


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
        # a NaN fails no "< 0" test; it used to run as D = 0
        for key in ("kappa", "D", "k0"):
            with pytest.raises(ConfigError, match="must be nonnegative"):
                ScenarioConfig(**{key: math.nan}).validate()

    @pytest.mark.parametrize("solver, valid", [
        ("manifold", True), ("planar2d", True), ("exact", True),
        ("grid", False), ("spectral", False), ("asymptotic", False)])
    def test_snapshot_times_checked_for_snapshot_solvers_only(self, solver,
                                                              valid):
        # a time off the step grid matters only to a solver that writes it
        cfg = ScenarioConfig(solver=solver, dt=0.00001,
                             snapshot_times=(0.0000100001,))
        if valid:
            assert cfg.validate() is cfg
        else:
            with pytest.raises(ConfigError, match="numerics.snapshot_times"):
                cfg.validate()

    @pytest.mark.parametrize("solver", config.SOLVERS)
    @pytest.mark.parametrize("time, message", [
        (math.nan, "must be >= 0, got nan"), (-1.0, "must be >= 0, got -1.0"),
        (math.inf, "must be finite, got inf")])
    def test_snapshot_time_entries_checked_for_every_solver(self, solver, time,
                                                           message):
        # manifest.json would hold a bare NaN or Infinity, which is not JSON
        cfg = ScenarioConfig(solver=solver, snapshot_times=(0.5, time))
        with pytest.raises(ConfigError,
                           match=f"numerics.snapshot_times: {message}"):
            cfg.validate()

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

    @pytest.mark.parametrize("cfg", [
        ScenarioConfig(solver="manifold", N=32, t_end=0.1, dt=0.05),
        ScenarioConfig(solver="planar2d", n2d=32, N=32, t_end=0.01,
                       dt=0.002, D=0.001)], ids=["manifold", "planar2d"])
    def test_density_runners_report_clamped_nodes(self, tmp_path,
                                                  monkeypatch, cfg):
        # the manifest holds the record's clamp count of the one run
        march = stepping.march

        def clamping(*args, **kwargs):
            rec = march(*args, **kwargs)
            return dataclasses.replace(rec, clamped=rec.clamped + 4)

        monkeypatch.setattr(stepping, "march", clamping)
        cli.run_scenario(cfg, str(tmp_path))
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["diagnostics"]["clamped_nodes"] == 4

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

    def test_numeric_keys_enumerated(self):
        assert {"numerics.dt", "numerics.t_end",
                "numerics.snapshot_times"} <= set(NUMERIC_KEYS)

    @pytest.mark.parametrize("key", NUMERIC_KEYS)
    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "outside"])
    def test_every_numeric_key_checks_its_domain(self, tmp_path, capsys, key,
                                                 bad):
        # a key declared without a domain fails here
        domain = FIELDS[key].metadata["domain"]
        assert domain is not None, f"{key} has no domain"
        if bad == "outside":
            bad = outside(domain)
        outdir = tmp_path / "run"
        rc = cli.main(["manifold", "--set", "numerics.N=16",
                       "--set", "numerics.t_end=0.1", "--set", f"{key}={bad}",
                       "--outdir", str(outdir)])
        assert rc == 2
        assert f"configuration error: {key}: " in capsys.readouterr().err
        assert not outdir.exists()

    def test_empty_output_dir_rejected(self, tmp_path, capsys, monkeypatch):
        # os.makedirs('') used to end the run in a FileNotFoundError
        monkeypatch.chdir(tmp_path)
        rc = cli.main(["simulate", "--set", "output.dir=",
                       "--set", "numerics.t_end=0.1"])
        assert rc == 2
        assert ("configuration error: output.dir: must be non-empty, got ''"
                in capsys.readouterr().err)
        assert list(tmp_path.iterdir()) == []

    def test_set_solver_conflicting_with_command_rejected(self, tmp_path,
                                                          capsys):
        # the command names the solver: a --set naming another one used to
        # be overridden in silence, and the exact solver ran
        out = tmp_path / "run"
        rc = cli.main(["exact", "--set", "solver=grid",
                       "--set", "numerics.t_end=1", "--outdir", str(out)])
        assert rc == 2
        assert ("configuration error: --set 'solver=grid': this command runs "
                "the 'exact' solver" in capsys.readouterr().err)
        assert not out.exists()
        # a --config file's solver line still yields to the command
        path = tmp_path / "run.cfg"
        path.write_text("solver = grid\n")
        assert cli.main(["exact", "--config", str(path),
                         "--set", " solver = exact", "--set", "numerics.t_end=1",
                         "--outdir", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["solver"] == "exact"

    @pytest.mark.parametrize("beta00", [4.15, 4.4, 4.282705862607738],
                             ids=["below", "above", "at_limit"])
    def test_exact_start_near_the_limit_reports_zero_time(self, tmp_path,
                                                          beta00):
        # the start lies within 5 % of rho_lim (c = 0.969, 1.027 and 1):
        # the quasi-steady time used to read -0.498 and -0.580, and at
        # c = 1 the command ended in a traceback with no manifest
        out = tmp_path / "run"
        assert cli.main(["exact", "--set", f"model.beta00={beta00}",
                         "--outdir", str(out)]) == 0
        diag = json.loads((out / "manifest.json").read_text())["diagnostics"]
        assert abs(diag["saturation"] - 1.0) < 0.05
        assert diag["t_quasi_steady"] == 0.0

    @pytest.mark.parametrize("solver", ["planar2d", "exact"])
    @pytest.mark.parametrize("kind", ["gaussian_bump", "gaussian", "cutoff"])
    def test_ignored_initial_kind_rejected(self, tmp_path, capsys, solver,
                                           kind):
        # these solvers start from model.beta00 alone: any other kind used
        # to run and write the bytes of the default
        out = tmp_path / "run"
        rc = cli.main([solver, "--set", f"initial.kind={kind}",
                       "--set", "numerics.t_end=1", "--outdir", str(out)])
        assert rc == 2
        assert (f"configuration error: initial.kind: the {solver} solver "
                f"ignores it" in capsys.readouterr().err)
        assert not out.exists()

    def test_exit_two_on_validation_error(self, tmp_path, capsys):
        rc = cli.main(["simulate", "--set", "model.a=-1",
                       "--outdir", str(tmp_path)])
        assert rc == 2
        assert "model.a" in capsys.readouterr().err

    @pytest.mark.parametrize("item, message", [
        ("numerics.n2d=1", "numerics.n2d: must be >= 2, got 1"),
        ("numerics.sigma=0", "numerics.sigma: must be positive, got 0.0"),
        ("numerics.L=0", "numerics.L: must be positive, got 0.0"),
        ("numerics.L=-3", "numerics.L: must be positive, got -3.0"),
        ("numerics.L=inf", "numerics.L: must be finite, got inf"),
        ("numerics.sigma=inf", "numerics.sigma: must be finite, got inf"),
        ("model.R=inf", "model.R: must be finite, got inf"),
    ], ids=["one_node", "zero_sigma", "zero_L", "negative_L", "infinite_L",
            "infinite_sigma", "infinite_R"])
    def test_exit_two_on_bad_planar_numerics(self, tmp_path, capsys, item,
                                             message):
        # dx = 2L/(n2d - 1) and the ring width sigma: these used to divide by
        # zero, index an empty axis or write a mirrored field
        outdir = tmp_path / "run"
        rc = cli.main(["planar2d", "--set", "numerics.n2d=16", "--set", item,
                       "--outdir", str(outdir)])
        assert rc == 2
        assert message in capsys.readouterr().err
        assert not outdir.exists()

    def test_exit_two_on_infinite_grid_radius(self, tmp_path, capsys):
        # an infinite model value is rejected before any solver runs
        outdir = tmp_path / "run"
        rc = cli.main(["simulate", "--set", "model.R=inf",
                       "--outdir", str(outdir)])
        assert rc == 2
        assert "model.R: must be finite, got inf" in capsys.readouterr().err
        assert not outdir.exists()

    @pytest.mark.parametrize("kind, item, message", [
        ("gaussian_bump", "initial.width=0",
         "initial.width: must be positive, got 0.0"),
        ("gaussian", "initial.width=-1",
         "initial.width: must be positive, got -1.0"),
        ("gaussian", "initial.width=nan",
         "initial.width: must be positive, got nan"),
        ("cutoff", "initial.edge=inf", "initial.edge: must be finite, got inf"),
        ("cutoff", "initial.edge=0", "initial.edge: must be positive, got 0.0"),
    ], ids=["zero_bump_width", "negative_width", "nan_width", "infinite_edge",
            "zero_edge"])
    def test_exit_two_on_bad_initial_shape(self, tmp_path, capsys, kind, item,
                                           message):
        # a zero width used to blow up (exit 3), a negative one to be blamed
        # on numerics.dt, and an infinite edge to run
        fig1, outdir = tmp_path / "fig1.cfg", tmp_path / "run"
        fig1.write_text(cli.preset_text("fig1"))
        rc = cli.main(["simulate", "--config", str(fig1),
                       "--set", f"initial.kind={kind}", "--set", item,
                       "--outdir", str(outdir)])
        assert rc == 2
        assert f"configuration error: {message}" in capsys.readouterr().err
        assert not outdir.exists()

    def test_bad_mode_rejected_before_output(self, tmp_path, capsys,
                                             monkeypatch):
        # the mode is checked before the solver runs, so no bundle is begun
        monkeypatch.setenv("NLFKPP_MODE", "bogus")
        outdir = tmp_path / "run"
        rc = cli.main(["exact", "--set", "numerics.t_end=1",
                       "--outdir", str(outdir)])
        assert rc == 2
        assert "NLFKPP_MODE" in capsys.readouterr().err
        assert not outdir.exists()

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
        (["numerics.dt=0.00001", "numerics.t_end=10.00002",
          "numerics.snapshot_times=10.00001 10.00002"], 2,
         "times 10.00001 and 10.00002 both write to 'snapshot_t10.csv'"),
    ], ids=["negative", "off_step", "past_t_end", "name_collision"])
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
        beta0 = spectral.project_initial(cli.scenario_initial(cfg), cfg.J)
        rec = spectral.integrate(beta0, cli._kernel(cfg), cfg.a, cfg.kappa,
                                 cfg.D, cfg.dt, 0.37)
        s, rho = read_csv(tmp_path / "snapshot_t0.37.csv")[1]
        np.testing.assert_array_equal(
            rho, spectral.reconstruct(rec.frames[37], s))

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

    def test_compare_reads_every_csv_of_a_preset(self, tmp_path, capsys):
        # summary.csv, and per D series.csv, two snapshots and the
        # manifest's diagnostics
        runs = [tmp_path / "a", tmp_path / "b"]
        for out in runs:
            assert cli.main(["preset", "fig8", "--set", "numerics.t_end=0.2",
                             "--outdir", str(out)]) == 0
        report = compare.compare_bundles(*map(str, runs))
        assert report.pop("_passed")
        assert len(report) == 13
        assert report["summary.csv"] == {"value": 0.0, "n_peaks": 0.0,
                                         "homogeneity": 0.0, "mass": 0.0}
        for name, entry in report.items():
            assert set(entry.values()) == {0.0}, name
        # one ulp on one cell: found, named, and judged by --tol-linf
        series = runs[1] / "D_0.005" / "series.csv"
        header, cols = read_csv(series)
        cols[1][7] = np.nextafter(cols[1][7], np.inf)
        write_csv(series, header, cols)
        capsys.readouterr()
        assert cli.main(["compare", *map(str, runs), "--tol-linf", "0"]) == 1
        out = capsys.readouterr().out
        failed = [line for line in out.splitlines() if line.endswith("FAIL")]
        assert len(failed) == 1
        assert failed[0].startswith(os.path.join("D_0.005", "series.csv")
                                    + ":mass: rel_linf=")
        report = compare.compare_bundles(*map(str, runs))
        mass = report[os.path.join("D_0.005", "series.csv")]["mass"]
        assert 0 < mass < 1e-15

    def test_compare_diffs_manifest_diagnostics(self, tmp_path, capsys):
        # fig5b's round-off deviations read 0.96 and 0.12 relative to
        # themselves; they and the counts are judged by their difference
        diagnostics = [
            {"mass": 2.0, "moment": [1.0, -4.0], "limit": None, "kind": "x",
             "steady": math.nan, "only_a": 1.0, "homogeneity_final": 6.2e-15,
             "rel_linf_vs_asymptotic": 1.079e-14, "n_peaks_final": 2,
             "clamped_nodes": 3},
            {"mass": 2.0 + 1e-6, "moment": [1.0, -4.0 + 2e-2], "limit": None,
             "kind": "y", "steady": math.nan, "homogeneity_final": 2.6e-16,
             "rel_linf_vs_asymptotic": 9.487e-15, "n_peaks_final": 3,
             "clamped_nodes": 3},
        ]
        dirs = [tmp_path / "a", tmp_path / "b"]
        for d, diag in zip(dirs, diagnostics):
            for sub in (d, d / "D_0"):
                sub.mkdir(exist_ok=True)
                write_csv(sub / "series.csv", ["t"], [np.arange(3.0)])
                (sub / "manifest.json").write_text(
                    json.dumps({"diagnostics": diag}))
        report = compare.compare_bundles(*map(str, dirs))
        for name in ("manifest.json", os.path.join("D_0", "manifest.json")):
            assert report[name] == {
                "diagnostics.kind": math.inf, "diagnostics.limit": 0.0,
                "diagnostics.mass": pytest.approx(1e-6 / (2.0 + 1e-6)),
                "diagnostics.moment": pytest.approx(2e-2 / (4.0 - 2e-2)),
                "diagnostics.only_a": math.inf, "diagnostics.steady": 0.0,
                "diagnostics.homogeneity_final": pytest.approx(5.94e-15),
                "diagnostics.rel_linf_vs_asymptotic":
                    pytest.approx(1.303e-15),
                "diagnostics.n_peaks_final": math.inf,
                "diagnostics.clamped_nodes": 0.0}
        # a count that differs fails any tolerance
        for tol, keys in (("1e-3", ("kind", "moment", "only_a",
                                    "n_peaks_final")),
                          ("1e300", ("kind", "only_a", "n_peaks_final"))):
            capsys.readouterr()
            assert cli.main(["compare", *map(str, dirs), "--tol-linf",
                             tol]) == 1
            out = capsys.readouterr().out.splitlines()
            failed = sorted(line.split(":")[0] + ":" + line.split(":")[1]
                            for line in out if line.endswith("FAIL"))
            assert failed == sorted(
                f"{name}:diagnostics.{key}" for name in
                ("manifest.json", os.path.join("D_0", "manifest.json"))
                for key in keys)
        assert "manifest.json:diagnostics.mass: rel_linf=5.000e-07  PASS" \
            in out

    def test_compare_names_a_mismatched_file(self, tmp_path, capsys):
        dirs = [tmp_path / "a", tmp_path / "b"]
        for d, rows in zip(dirs, (3, 4)):
            d.mkdir()
            write_csv(d / "series.csv", ["t", "mass"],
                      [np.arange(rows), np.ones(rows)])
        assert cli.main(["compare", *map(str, dirs)]) == 2
        assert "series.csv: the bundles' files differ" in \
            capsys.readouterr().err
        write_csv(dirs[1] / "series.csv", ["t", "n_peaks"],
                  [np.arange(3), np.ones(3)])
        with pytest.raises(ConfigError, match="series.csv"):
            compare.compare_bundles(*map(str, dirs))

    def test_compare_all_zero_snapshots(self, tmp_path, capsys):
        s = np.linspace(-math.pi, math.pi, 16, endpoint=False)
        dirs = {}
        for tag, rho in (("zero", np.zeros(16)), ("zero2", np.zeros(16)),
                         ("flat", np.full(16, 0.5))):
            dirs[tag] = tmp_path / tag
            dirs[tag].mkdir()
            write_csv(dirs[tag] / "snapshot_t1.csv", ["s", "rho"], [s, rho])
        report = compare.compare_bundles(str(dirs["zero"]), str(dirs["zero2"]))
        assert report["snapshot_t1.csv"] == {"rel_linf": 0.0, "rel_l2": 0.0}
        report = compare.compare_bundles(str(dirs["flat"]), str(dirs["zero"]))
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

    def test_sweep_notes_late_snapshot_times_once(self, tmp_path, capsys):
        # the note is the sweep's: one line for four entries, and one for
        # each distinct t_end of a t_end axis
        note = ("note: numerics.snapshot_times {} lie past numerics.t_end = "
                "{}; no snapshot is written for them\n")
        rc = cli.main(["sweep", "--axis", "model.gamma", "--values",
                       "0.05,1,1.5,50", "--set", "numerics.snapshot_times=0 5",
                       "--outdir", str(tmp_path / "gamma")] + SMALL_GRID)
        assert rc == 0
        assert capsys.readouterr().err == note.format([5.0], "0.5")
        rc = cli.main(["sweep", "--axis", "numerics.t_end", "--values",
                       "0.5,1,0.25", "--set", "numerics.snapshot_times=0.5 5",
                       "--outdir", str(tmp_path / "t_end")] + SMALL_GRID[:2])
        assert rc == 0
        assert capsys.readouterr().err == (note.format([5.0], "0.5")
                                           + note.format([5.0], "1")
                                           + note.format([0.5, 5.0], "0.25"))

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
    @pytest.mark.parametrize("argv, n_csv, n_manifests", [
        # summary; series, t = 0 and t = 1 per D
        (["preset", "fig8", "--set", "numerics.t_end=1"], 10, 3),
        # the four gammas are one unit; summary; series, t = 0 and 0.5 per
        # gamma
        (["sweep", "--config", FIG5A, "--axis", "model.gamma",
          "--values", "0.05,1,1.5,50", "--set", "numerics.t_end=0.5"], 13, 4),
        # manifold entries are a unit each; summary; trajectory per k0
        (["preset", "fig7", "--set", "numerics.t_end=0.2"], 3, 2),
    ], ids=["fig8", "fig5a_gamma", "fig7"])
    def test_parallel_sweep_byte_identical_to_reference(
            self, tmp_path, monkeypatch, argv, n_csv, n_manifests):
        assert_modes_agree(tmp_path, monkeypatch, argv, n_csv, n_manifests)

    @pytest.mark.parametrize("values, cpus, workers", [
        # D = 0 is a unit alone, the two D > 0 entries one unit
        ("0,0.1,0.2", 2, 2), ("0,0.1,0.2", 8, 2), ("0,0.1,0.2", None, 1),
        # one unit of four entries on eight CPUs
        ("0.05,0.1,0.2,0.4", 8, 1),
    ])
    def test_pool_capped_at_entries_and_cpus(self, tmp_path, monkeypatch,
                                             values, cpus, workers):
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
        rc = cli.main(["sweep", "--axis", "model.D", "--values", values,
                       "--set", "numerics.N=64", "--set", "numerics.t_end=0.5",
                       "--set", "numerics.scheme=imex",
                       "--outdir", str(tmp_path)])
        assert rc == 0
        assert sizes == [workers]
        assert len(read_csv(tmp_path / "summary.csv")[1][0]) == \
            len(values.split(","))


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
        rho0 = [sampled("gaussian_bump", 64, T=T) for T in (10.0, 4.0, 10.0)]
        times = (0.0, 0.3, 1.0)
        batch = gridsim.integrate_batch(rho0, kerns, a, kappa, D, 0.01, 1.0,
                                        scheme, times, store_every=7)
        for i, rho in enumerate(rho0):
            alone = gridsim.integrate(rho, kerns[i], a[i], kappa[i], D[i],
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

    @pytest.mark.parametrize("values, batches", [
        # D = 0 runs alone; the two D > 0 entries step as one batch
        ("0,0.05,0.1", [1, 2]),
        # only consecutive entries share a batch: D = 0 parts the other two
        ("0.1,0,0.2", [1, 1, 1]),
    ])
    def test_mixed_diffusion_sweep_equals_entries_run_alone(
            self, tmp_path, monkeypatch, values, batches):
        monkeypatch.setenv("NLFKPP_MODE", "reference")
        sizes = count_batches(monkeypatch)
        common = SMALL_GRID + ["--set", "numerics.scheme=imex"]
        assert cli.main(["sweep", "--axis", "model.D", "--values",
                         values, "--outdir", str(tmp_path / "sweep")]
                        + common) == 0
        assert sizes == batches
        for value in values.split(","):
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

    @pytest.mark.parametrize("mode", ["reference", "parallel"])
    def test_unstable_middle_entry_fails_as_if_run_alone(
            self, tmp_path, monkeypatch, capsys, mode):
        # D = 50 breaks the explicit bound ds^2 / (2 D) on the first step
        monkeypatch.setenv("NLFKPP_MODE", mode)
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
        # (in parallel mode in a worker, whose calls this process does not
        # count); D_0.2 never ran
        assert sizes == ([3, 1, 1] if mode == "reference" else [])
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


class TestBlockDiagnostics:
    def test_sweep_series_equals_per_frame_diagnostics(self, tmp_path,
                                                       monkeypatch):
        # 51 stored states of four runs: four diagnose calls of at most 16
        # states, 64 rows each
        monkeypatch.setenv("NLFKPP_MODE", "reference")
        sizes = count_batches(monkeypatch)
        cfg = config.parse_config_text(cli.preset_text("fig5a"))
        config.apply_overrides(cfg, ["numerics.N=64", "numerics.t_end=0.5",
                              "numerics.snapshot_times=0.5"])
        values = ["0.05", "1", "1.5", "50"]
        cli.run_sweep(cfg, "model.gamma", values, str(tmp_path))
        assert sizes == [4]
        subs = []
        for value in values:
            sub = dataclasses.replace(cfg)
            config.apply_assignment(sub, "model.gamma", value)
            subs.append(sub)
        for value, want in zip(values, series_oracle(subs)):
            got = (tmp_path / f"gamma_{float(value):g}" / "series.csv")
            assert got.read_text() == want
            assert want.count("\n") == 52


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


class TestTypedParser:
    # a file line, --set and sweep --values read a key's text alike
    def test_whole_numbers_of_an_integer_key(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("numerics.N = 1e2\n")
        for overrides, want in (([], 100), (["--set", "numerics.N=64.0"], 64)):
            outdir = tmp_path / f"run{want}"
            assert cli.main(["exact", "--config", str(path), "--set",
                             "numerics.t_end=1"] + overrides +
                            ["--outdir", str(outdir)]) == 0
            with open(outdir / "manifest.json") as fh:
                value = json.load(fh)["config"]["numerics.N"]
            assert type(value) is int and value == want

    @pytest.mark.parametrize("text", ["64.5", "nan"])
    @pytest.mark.parametrize("source", ["file", "set"])
    def test_other_values_of_an_integer_key(self, tmp_path, capsys, text,
                                            source):
        path, outdir = tmp_path / "c.cfg", tmp_path / "run"
        path.write_text(f"numerics.N = {text}\n" if source == "file" else "")
        args = ["exact", "--config", str(path), "--outdir", str(outdir)]
        if source == "set":
            args += ["--set", f"numerics.N={text}"]
        assert cli.main(args) == 2
        assert (f"configuration error: numerics.N: expected a whole number, "
                f"got '{text}'") in capsys.readouterr().err
        assert not outdir.exists()


def fresh_python(code: str, *args: str) -> str:
    """The standard output of code run with args in a fresh interpreter
    that imports this nlfkpp: pytest itself may have loaded what code looks
    for."""
    import nlfkpp

    src = os.path.dirname(os.path.dirname(nlfkpp.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    return subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True, check=True).stdout


# every solver command, each at a short t_end
SOLVER_RUNS = [
    ["exact", "--set", "numerics.t_end=0.1"],
    ["spectral", "--set", "numerics.t_end=0.1"],
    ["sweep", "--set", "solver=grid", "--set", "numerics.scheme=imex",
     "--set", "numerics.t_end=0.1", "--axis", "model.D",
     "--values", "0.01,0.1"],
    ["asymptotic", "--set", "initial.kind=gaussian_bump",
     "--set", "numerics.t_end=0.1"],
    ["preset", "fig7", "--set", "numerics.t_end=0.1"],
    ["planar2d", "--set", "numerics.n2d=32", "--set", "numerics.t_end=0.02"],
]

# runs the commands of argv[1] (JSON) into argv[2]; prints their exit codes
# and the numpy.ma and scipy modules loaded by then
RUN_AND_LIST_MODULES = """
import json, os, sys
from nlfkpp import cli
runs, outdir = json.loads(sys.argv[1]), sys.argv[2]
codes = [cli.main(argv + ["--outdir", os.path.join(outdir, str(i))])
         for i, argv in enumerate(runs)]
print(json.dumps([codes, sorted(
    m for m in sys.modules
    if m.split(".")[:2] == ["numpy", "ma"] or m.split(".")[0] == "scipy")]))
"""


# runs the command argv[1] (JSON); prints, on its last line, its exit code,
# the nlfkpp modules run by the time the scenario call (run_scenario or
# run_sweep) started, None for a command without one, and those run by the
# end.  A lazily registered module that has not run yet is not a
# types.ModuleType but a subclass of it.
RUN_AND_LIST_PACKAGE = """
import json, sys, types
from nlfkpp import cli

def executed():
    return sorted(n.split(".", 1)[1] for n, m in list(sys.modules.items())
                  if n.startswith("nlfkpp.") and type(m) is types.ModuleType)

at_start = []
def marked(fn):
    def call(*args, **kwargs):
        at_start.append(executed())
        return fn(*args, **kwargs)
    return call

cli.run_scenario, cli.run_sweep = marked(cli.run_scenario), marked(cli.run_sweep)
code = cli.main(json.loads(sys.argv[1]))
print(json.dumps([code, at_start[0] if at_start else None, executed()]))
"""

# after `import nlfkpp.cli`, wraps the functions named in argv[1] (JSON,
# "module.name") in every package module that holds them, then runs the
# commands of argv[2] (JSON) into argv[3]; prints their exit codes and the
# calls of each wrapped function
PATCH_AND_COUNT = """
import json, os, sys
from nlfkpp import cli

modules = [m for n, m in list(sys.modules.items()) if n.startswith("nlfkpp")]
counts = {}
for target in json.loads(sys.argv[1]):
    module, name = target.split(".")
    original = getattr(sys.modules["nlfkpp." + module], name)
    def counted(*args, _target=target, _original=original, **kwargs):
        counts[_target] = counts.get(_target, 0) + 1
        return _original(*args, **kwargs)
    for m in modules:
        for key, value in list(vars(m).items()):
            if value is original:
                setattr(m, key, counted)
runs, outdir = json.loads(sys.argv[2]), sys.argv[3]
codes = [cli.main(argv + ["--outdir", os.path.join(outdir, str(i))])
         for i, argv in enumerate(runs)]
print(json.dumps([codes, counts]))
"""

# what `import nlfkpp.cli` runs; every command runs these
CLI_MODULES = {"cli", "config", "csvio", "kernel", "analysis", "gridsim",
               "stepping"}
# every module of the package, which `import nlfkpp.cli` registers
PACKAGE_MODULES = CLI_MODULES | {"exact", "spectral", "backends",
                                 "asymptotics", "manifold", "planar",
                                 "compare"}
FIG5B_RUN = ["preset", "fig5b", "--set", "numerics.t_end=0.1", "--set",
             "numerics.snapshot_times=0 0.1"]


def solver_run(*command: str) -> list:
    """The SOLVER_RUNS entry whose argv starts with command."""
    return next(run for run in SOLVER_RUNS + [FIG5B_RUN]
                if run[:len(command)] == list(command))


def run_and_list_package(argv) -> tuple:
    """(exit code, modules run at the scenario call, modules run at the
    end) of argv in a fresh interpreter."""
    out = fresh_python(RUN_AND_LIST_PACKAGE, json.dumps(argv))
    code, at_start, at_end = json.loads(out.splitlines()[-1])
    return code, at_start, set(at_end)


class TestImport:
    def test_cli_import_runs_only_the_shared_modules(self):
        out = fresh_python(
            "import json, sys, types, nlfkpp.cli; print(json.dumps("
            "{n.split('.', 1)[1]: type(m) is types.ModuleType "
            "for n, m in sys.modules.items() if n.startswith('nlfkpp.')}))")
        ran = json.loads(out)
        assert set(ran) == PACKAGE_MODULES
        assert {name for name, done in ran.items() if done} == CLI_MODULES

    def test_package_modules_cover_the_package(self):
        import nlfkpp

        files = os.listdir(os.path.dirname(nlfkpp.__file__))
        assert {f[:-3] for f in files
                if f.endswith(".py") and f != "__init__.py"} == PACKAGE_MODULES

    @pytest.mark.parametrize("command, runs", [
        (("exact",), {"exact"}),
        (("spectral",), {"spectral", "backends"}),
        (("sweep",), set()),
        (("asymptotic",), {"asymptotics", "exact"}),
        (("preset", "fig7"), {"manifold"}),
        (("planar2d",), {"planar"}),
        (("preset", "fig5b"), {"asymptotics", "exact"}),
        (("compare",), {"compare"}),
    ], ids=["exact", "spectral", "grid_sweep", "asymptotic", "fig7",
            "planar2d", "fig5b", "compare"])
    def test_command_runs_only_its_modules(self, tmp_path, command, runs):
        if command == ("compare",):
            # bundles written here, so the fresh interpreter only compares
            dirs = [str(tmp_path / name) for name in ("a", "b")]
            for outdir in dirs:
                assert cli.main(solver_run("exact") + ["--outdir", outdir]) == 0
            argv = ["compare", *dirs]
        else:
            argv = solver_run(*command) + ["--outdir", str(tmp_path / "run")]
        code, at_start, ran = run_and_list_package(argv)
        assert code == 0
        assert ran == CLI_MODULES | runs
        if at_start is not None:
            # main runs what the solver and the preset extra use before the
            # scenario call, so that their compile time stays out of it
            assert set(at_start) == ran

    def test_functions_patched_after_cli_import_are_the_ones_called(
            self, tmp_path):
        targets = ["exact.beta0", "spectral.integrate",
                   "backends.quadratic_coupling", "gridsim.integrate_batch",
                   "asymptotics.composite_density", "manifold.integrate",
                   "planar.extract_sld"]
        codes, counts = json.loads(fresh_python(
            PATCH_AND_COUNT, json.dumps(targets), json.dumps(SOLVER_RUNS),
            str(tmp_path)))
        assert codes == [0] * len(SOLVER_RUNS)
        assert sorted(counts) == sorted(targets)

    def test_package_names_from_exact_load_it_on_first_use(self):
        out = fresh_python(
            "import sys, nlfkpp; print('nlfkpp.exact' in sys.modules); "
            "from nlfkpp import beta0, rho_lim; from nlfkpp import exact; "
            "print(beta0 is exact.beta0 and rho_lim is exact.rho_lim); "
            "print(hasattr(nlfkpp, 'no_such_name'))")
        assert out.split() == ["False", "True", "False"]

    def test_cli_import_leaves_out_scipy_signal(self):
        import nlfkpp

        path, loaded = fresh_python(
            "import sys, nlfkpp.cli; print(nlfkpp.cli.__file__); "
            "print(any(m.split('.')[0] == 'scipy' for m in sys.modules))"
        ).split()
        assert os.path.dirname(path) == os.path.dirname(nlfkpp.__file__)
        assert loaded == "False"

    def test_solver_commands_load_neither_numpy_ma_nor_scipy(self, tmp_path):
        # np.median, for one, imports numpy.ma on its first call
        codes, loaded = json.loads(fresh_python(
            RUN_AND_LIST_MODULES, json.dumps(SOLVER_RUNS), str(tmp_path)))
        assert codes == [0] * len(SOLVER_RUNS)
        assert loaded == []


class TestGcFreeze:
    """`import nlfkpp.cli` moves the objects of its imports out of the
    cyclic collector (gc.freeze); a library import does not."""

    def test_cli_import_freezes_its_objects(self):
        frozen, tracked = fresh_python(
            "import gc, nlfkpp.cli; "
            "print(gc.get_freeze_count(), len(gc.get_objects()))").split()
        assert int(frozen) > int(tracked)

    def test_cycles_made_after_the_import_are_collected(self):
        out = fresh_python(
            "import gc, weakref, nlfkpp.cli\n"
            "class Node: pass\n"
            "node = Node(); node.self = node; ref = weakref.ref(node)\n"
            "del node; gc.collect(); print(ref() is None)")
        assert out.split() == ["True"]

    def test_library_import_freezes_nothing(self):
        out = fresh_python(
            "import gc, nlfkpp, nlfkpp.gridsim; print(gc.get_freeze_count())")
        assert out.split() == ["0"]


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
        frames = [np.concatenate([rho[i], X[i].ravel()]) for i in range(3)]
        manifold.trajectory_to_csv(path, stored(times, frames), s)
        expected = "t,s,x1,x2,rho\n" + "".join(
            ",".join(csvio.fmt(v) for v in (t, s[k], *X[i, k], rho[i, k]))
            + "\n" for i, t in enumerate(times) for k in range(4))
        assert path.read_text() == expected


    def test_spectral_trajectory_csv_matches_per_cell_fmt(self, tmp_path):
        rng = np.random.default_rng(8)
        times = np.array([0.0, 0.1, 0.30000000000000004, 1e-300])
        half = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
        half[:, 0] = half[:, 0].real
        half[1, 0] = complex(-0.0, 0.0)
        half[2, 1] = complex(-0.0, 0.0)  # its conjugate is written -0,-0
        # the half spectrum j = 0..2 written as j = -2..2, beta_-j = conj(beta_j)
        beta = np.concatenate([half[:, :0:-1].conj(), half], axis=1)
        path = tmp_path / "trajectory.csv"
        spectral.trajectory_to_csv(path, stored(times, list(half)))
        expected = "t,j,re_beta,im_beta\n" + "".join(
            ",".join(csvio.fmt(v) for v in (t, j, beta[i, j + 2].real,
                                            beta[i, j + 2].imag)) + "\n"
            for i, t in enumerate(times) for j in range(-2, 3))
        assert path.read_text() == expected


def stored(times, frames) -> stepping.Record:
    """A record that holds only the stored times and frames."""
    return stepping.Record(frames[-1], times[-1], 0, list(times), frames,
                           {})


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
