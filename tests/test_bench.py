import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench.py"
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
