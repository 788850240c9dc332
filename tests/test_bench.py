import importlib.util
import json
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
TOOL = REPO / "tools" / "bench.py"
spec = importlib.util.spec_from_file_location("bench", TOOL)
bench = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench)


def runs(**metrics) -> list:
    """Three runs per metric; each keyword gives a metric's three values."""
    values = {"cpu_s": [1.0] * 3, "setup_s": [0.2] * 3,
              "steps_per_cpu_s": [1000.0] * 3, "peak_rss_mb": [40.0] * 3,
              "pass_frac": [1.0] * 3, **metrics}
    return [{key: values[key][i] for key in bench.METRICS} for i in range(3)]


def test_past_bound_lists_each_median_worse_than_its_bound():
    base = runs()
    change = runs(cpu_s=[1.3, 1.2, 1.26],          # median +26 %: past
                  setup_s=[0.1, 0.1, 0.1],         # better: not past
                  steps_per_cpu_s=[700.0, 760.0, 2000.0],  # -24 %: within
                  peak_rss_mb=[42.0, 42.1, 99.0],  # +5.25 %: past
                  pass_frac=[1.0, 0.98, 0.98])     # -2 %: past
    record = bench.workload_record({"base": base, "change": change})
    assert record["pairs"] == 3
    assert record["change"]["cpu_s"]["median"] == 1.26
    assert record["change_ahead"]["setup_s"] == 3
    past = bench.past_bound({"w": record, "same": bench.workload_record(
        {"base": base, "change": base})})
    assert [(p["workload"], p["metric"]) for p in past] == [
        ("w", "cpu_s"), ("w", "peak_rss_mb"), ("w", "pass_frac")]
    assert past[0] == {"workload": "w", "metric": "cpu_s", "base": 1.0,
                       "change": 1.26, "bound": 0.25}


@pytest.mark.parametrize("metric, base, change, past", [
    ("steps_per_cpu_s", 1000.0, 749.0, True),
    ("steps_per_cpu_s", 1000.0, 751.0, False),
    ("cpu_s", 0.0, 1e-9, True),
    ("cpu_s", 0.0, 0.0, False),
])
def test_bound_edge(metric, base, change, past):
    record = bench.workload_record({"base": runs(**{metric: [base] * 3}),
                                    "change": runs(**{metric: [change] * 3})})
    assert bool(bench.past_bound({"w": record})) == past


def bundle(root, files: dict):
    """Write {relative path: text} under root; returns root."""
    for name, text in files.items():
        (root / name).parent.mkdir(parents=True, exist_ok=True)
        (root / name).write_text(text)
    return root


def manifest(wall: float, n_peaks: int = 2) -> str:
    return json.dumps({"wall_time_s": wall, "mode": "reference",
                       "diagnostics": {"n_peaks_final": n_peaks}})


BUNDLE = {"summary.csv": "value,n_peaks\n0,2\n",
          "k0_0/trajectory.csv": "t,rho\n0,1\n0.05,0.5\n",
          "k0_0/manifest.json": manifest(1.25)}


def test_identical_bundles(tmp_path):
    out = bench.bundle_outputs(bundle(tmp_path / "a", BUNDLE),
                               bundle(tmp_path / "b", {
                                   **BUNDLE,
                                   "k0_0/manifest.json": manifest(7.5)}),
                               REPO)
    assert out == {"csv_identical": ["k0_0/trajectory.csv", "summary.csv"],
                   "csv_differ": [],
                   "manifests_identical": ["k0_0/manifest.json"],
                   "manifests_differ": [], "csv_rel_linf": {},
                   "only_base": [], "only_change": [], "identical": True}


def test_last_bit_moved(tmp_path):
    # 0.5 with its last bit set
    moved = {**BUNDLE,
             "k0_0/trajectory.csv": "t,rho\n0,1\n0.05,0.5000000000000001\n",
             "k0_0/manifest.json": manifest(1.25, n_peaks=3)}
    out = bench.bundle_outputs(bundle(tmp_path / "a", BUNDLE),
                               bundle(tmp_path / "b", moved), REPO)
    assert out["csv_differ"] == ["k0_0/trajectory.csv"]
    # compare's per-column rel_linf: the moved column by one ulp of 0.5
    # against max|rho| = 1, the other column not at all
    errors = out["csv_rel_linf"]["k0_0/trajectory.csv"]
    assert errors["t"] == 0.0
    assert 0.0 < errors["rho"] < 1e-15
    assert list(out["csv_rel_linf"]) == ["k0_0/trajectory.csv"]
    assert out["csv_identical"] == ["summary.csv"]
    assert out["manifests_differ"] == ["k0_0/manifest.json"]
    assert not out["identical"]


@pytest.mark.parametrize("missing_on", ["base", "change"])
def test_file_only_one_side_wrote(tmp_path, missing_on):
    short = {k: v for k, v in BUNDLE.items() if k != "summary.csv"}
    trees = {"base": BUNDLE, "change": BUNDLE, missing_on: short}
    out = bench.bundle_outputs(bundle(tmp_path / "a", trees["base"]),
                               bundle(tmp_path / "b", trees["change"]), REPO)
    other = "change" if missing_on == "base" else "base"
    assert out[f"only_{other}"] == ["summary.csv"]
    assert out[f"only_{missing_on}"] == []
    assert out["csv_identical"] == ["k0_0/trajectory.csv"]
    assert not out["identical"]


def test_csv_that_compare_refuses_records_its_reason(tmp_path):
    grown = {**BUNDLE, "k0_0/trajectory.csv": "t,rho\n0,1\n0.05,0.5\n0.1,0.2\n"}
    out = bench.bundle_outputs(bundle(tmp_path / "a", BUNDLE),
                               bundle(tmp_path / "b", grown), REPO)
    assert "differ in header or row count" in out["csv_rel_linf"][
        "k0_0/trajectory.csv"]


def test_paths_of_different_length_are_refused(tmp_path, capsys):
    out = tmp_path / "record.json"
    with pytest.raises(SystemExit) as exit_:
        bench.main(["--base", str(tmp_path / "base"),
                    "--change", str(tmp_path / "change"), "--out", str(out)])
    assert exit_.value.code == 2
    assert "differ in length" in capsys.readouterr().err
    assert not out.exists()


def test_both_paths_are_recorded(tmp_path, monkeypatch):
    # trees without a package: no pairs run, and the import timing is stubbed
    monkeypatch.setattr(bench, "import_cpu",
                        lambda tree: {"cpu_s": 0.1, "exit_cpu_s": 0.01})
    out = tmp_path / "record.json"
    assert bench.main(["--base", str(tmp_path / "base"),
                       "--change", str(tmp_path / "chng"),
                       "--out", str(out)]) == 0
    record = json.loads(out.read_text())
    assert record["paths"] == {"base": str(tmp_path / "base"),
                               "change": str(tmp_path / "chng")}


def test_import_probe_records_the_exit_cost(tmp_path, monkeypatch):
    # one pair of real `import nlfkpp.cli` processes of this tree
    monkeypatch.setattr(bench, "IMPORT_PAIRS", 1)
    out = tmp_path / "record.json"
    assert bench.main(["--base", str(REPO), "--change", str(REPO),
                       "--out", str(out)]) == 0
    record = json.loads(out.read_text())["import_cli"]
    for side in bench.SIDES:
        assert record[side]["cpu_s"]["n"] == 1
        assert record[side]["exit_cpu_s"]["n"] == 1
        assert record[side]["exit_cpu_s"]["median"] >= 0.0
    assert set(record["change_ahead"]) == {"cpu_s", "exit_cpu_s"}


def test_children_run_in_reference_mode(tmp_path, monkeypatch):
    # a caller's parallel mode does not reach the timed runs
    monkeypatch.setenv("NLFKPP_MODE", "parallel")
    env = bench.child_env(tmp_path)
    assert env["NLFKPP_MODE"] == "reference"
    assert env["PYTHONPATH"] == str(tmp_path / "src")
