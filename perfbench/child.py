"""One workload process: runs ``nlfkpp.cli.main`` on the given arguments.

    python child.py RECORD.json TRACE -- <nlfkpp arguments>

Writes RECORD.json with the exit code, the CLOCK_MONOTONIC time and the
process CPU time (user + system) at which the scenario call
(``run_scenario`` or ``run_sweep``) started, and, when
TRACE is 1, per-function call counts and self times.  Tracing wraps the
package's public functions at every place they are imported; the package
itself is not changed.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time

# (module, function) pairs traced; a pair the package no longer has is
# skipped, so the record simply lacks it.
TARGETS = [
    ("kernel", "eigenvalue"), ("kernel", "eigenvalues"), ("kernel", "kernel_value"),
    ("gridsim", "step"), ("gridsim", "stability_limit"),
    ("gridsim", "nonlocal_term"), ("gridsim", "kernel_row"),
    ("spectral", "integrate"), ("spectral", "rhs"),
    ("backends", "quadratic_coupling"),
    ("manifold", "integrate"), ("manifold", "ee_rhs"),
    ("planar", "step2d"), ("planar", "nonlocal_term_2d"), ("planar", "extract_sld"),
    ("analysis", "count_peaks"), ("analysis", "homogeneity"),
    ("csvio", "write_csv"),
    ("cli", "run_scenario"),
]


def monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class Tracer:
    """Aggregates calls and self time (span time minus child spans) per name."""

    def __init__(self):
        self.stats = {}
        self.counters = {"csvio.write_csv.rows": 0, "csvio.write_csv.bytes": 0}
        self._stack = [0.0]  # time spent in child spans, one slot per open span

    def span(self, name, fn):
        stats = self.stats.setdefault(name, [0, 0.0])
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                inner = stack.pop()
                stack[-1] += elapsed
                stats[0] += 1
                stats[1] += elapsed - inner
        return traced

    def _write_csv(self, fn):
        traced = self.span("csvio.write_csv", fn)
        counters = self.counters

        @functools.wraps(fn)
        def counted(path, header, columns, *args, **kwargs):
            traced(path, header, columns, *args, **kwargs)
            counters["csvio.write_csv.rows"] += len(columns[0]) if len(columns) else 0
            counters["csvio.write_csv.bytes"] += os.path.getsize(path)
        return counted

    def _influence_factory(self, factory):
        @functools.wraps(factory)
        def make(*args, **kwargs):
            return self.span("manifold.influence", factory(*args, **kwargs))
        return make

    def install(self):
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "nlfkpp" or n.startswith("nlfkpp."))]
        wraps = []
        for module, name in TARGETS:
            original = getattr(sys.modules.get("nlfkpp." + module), name, None)
            if original is None:
                continue
            label = f"{module}.{name}"
            wrapper = (self._write_csv(original) if label == "csvio.write_csv"
                       else self.span(label, original))
            wraps.append((original, wrapper))
        factory = getattr(sys.modules.get("nlfkpp.manifold"), "gaussian_influence", None)
        if factory is not None:
            wraps.append((factory, self._influence_factory(factory)))
        for original, wrapper in wraps:
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)

    def report(self) -> dict:
        out = dict(self.counters)
        for name, (calls, self_s) in self.stats.items():
            out[f"{name}.calls"] = calls
            out[f"{name}.self_s"] = self_s
        return out


def main(argv) -> int:
    record_path, trace = argv[0], argv[1] == "1"
    cli_args = argv[argv.index("--") + 1:]
    import nlfkpp.cli as cli

    tracer = Tracer() if trace else None
    if tracer is not None:
        tracer.install()
    marks = []

    def mark_start(fn):
        @functools.wraps(fn)
        def marked(*args, **kwargs):
            if not marks:
                marks.append((monotonic(), time.process_time()))
            return fn(*args, **kwargs)
        return marked

    cli.run_scenario = mark_start(cli.run_scenario)
    cli.run_sweep = mark_start(cli.run_sweep)
    rc = cli.main(cli_args)
    record = {"rc": rc, "scenario_start": marks[0][0] if marks else None,
              "scenario_cpu": marks[0][1] if marks else None,
              "package": os.path.dirname(cli.__file__),
              "layers": tracer.report() if tracer is not None else None}
    with open(record_path, "w") as fh:
        json.dump(record, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
