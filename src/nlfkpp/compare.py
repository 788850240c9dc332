"""The ``compare`` command: relative errors of one artifact bundle against
another, file by file, and of their manifests' diagnostics."""

from __future__ import annotations

import json
import math
import os

import numpy as np

from . import analysis
from .config import ConfigError
from .csvio import read_csv, write_csv
from .kernel import TWO_PI


def _file_names(root: str) -> set:
    """The paths of the files under root, relative to it."""
    return {os.path.relpath(os.path.join(d, n), root)
            for d, _, names in os.walk(root) for n in names}


def _snapshot_errors(path_a: str, path_b: str) -> dict:
    """Relative L-inf and L2 errors of snapshot a against snapshot b, b
    resampled periodically onto a's nodes when they differ."""
    _, (s_a, rho_a) = read_csv(path_a)
    _, (s_b, rho_b) = read_csv(path_b)
    if len(s_a) != len(s_b) or not np.allclose(s_a, s_b):
        # periodic resample of b onto a's grid
        order = np.argsort(s_b)
        sb, rb = s_b[order], rho_b[order]
        sb = np.concatenate([sb, [sb[0] + TWO_PI]])
        rb = np.concatenate([rb, [rb[0]]])
        rho_b = np.interp(np.mod(s_a - sb[0], TWO_PI) + sb[0], sb, rb)
    diff = rho_a - rho_b
    return {"rel_linf": analysis.relative(np.max(np.abs(diff)),
                                          np.max(np.abs(rho_b))),
            "rel_l2": analysis.relative(np.linalg.norm(diff),
                                        np.linalg.norm(rho_b))}


def _column_errors(name: str, path_a: str, path_b: str) -> dict:
    """{column: max|a - b| / max|b|} of two CSVs with one header and row
    count, by the zero-reference rule of analysis.relative; equal cells
    (two NaNs, two equal infinities) differ by 0.  ConfigError naming the
    file when the header or row count differ."""
    head_a, cols_a = read_csv(path_a)
    head_b, cols_b = read_csv(path_b)
    rows_a, rows_b = len(cols_a[0]), len(cols_b[0])
    if head_a != head_b or rows_a != rows_b:
        raise ConfigError(f"{name}: the bundles' files differ in header or "
                          f"row count: {head_a} with {rows_a} rows against "
                          f"{head_b} with {rows_b}")
    errors = {}
    for column, a, b in zip(head_a, cols_a, cols_b):
        same = (a == b) | (np.isnan(a) & np.isnan(b))
        diff = np.where(same, 0.0, np.abs(a - b))
        scale = np.abs(b[~np.isnan(b)])
        errors[column] = analysis.relative(np.max(diff, initial=0.0),
                                           np.max(scale, initial=0.0))
    return errors


# the rule(|a - b|, |b|) of a manifest diagnostic that is not judged by
# analysis.relative (see _value_error): deviations and errors are round-off
# themselves where two runs agree, so they are judged by their absolute
# difference, and a count that differs at all is inf
DIAGNOSTIC_RULES = {
    **dict.fromkeys(("homogeneity_final", "rel_linf_vs_asymptotic",
                     "reality_drift", "boundary_mass_fraction"),
                    lambda err, scale: err),
    **dict.fromkeys(("n_peaks_final", "clamped_nodes"),
                    lambda err, scale: math.inf),
}


def _value_error(a, b, rule) -> float:
    """Error of a manifest value a against b: rule(|a - b|, |b|) for
    numbers, the largest elementwise error for lists of one length, and
    otherwise 0 when a == b and inf when not.  Equal values (two NaNs too)
    differ by 0."""
    if a == b or (a != a and b != b):
        return 0.0
    if isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        return max(_value_error(x, y, rule) for x, y in zip(a, b))
    if all(isinstance(v, (int, float)) and not isinstance(v, bool)
           for v in (a, b)):
        err = rule(abs(a - b), abs(b))
        return math.inf if math.isnan(err) else err
    return math.inf


def _diagnostics_errors(path_a: str, path_b: str) -> dict:
    """{"diagnostics.<key>": error} of two manifests over the union of
    their diagnostics keys, each by its DIAGNOSTIC_RULES entry or else
    relative (see _value_error; a key one lacks is None)."""
    diag = []
    for path in (path_a, path_b):
        with open(path) as fh:
            diag.append(json.load(fh).get("diagnostics", {}))
    return {f"diagnostics.{key}": _value_error(
                diag[0].get(key), diag[1].get(key),
                DIAGNOSTIC_RULES.get(key, analysis.relative))
            for key in sorted(diag[0].keys() | diag[1].keys())}


def compare_bundles(dir_a: str, dir_b: str, outdir: str = None,
                    tol_linf: float = None) -> dict:
    """Relative errors of bundle a against bundle b over every CSV file the
    two share, subdirectories (the entries of a sweep) included: rel_linf
    and rel_l2 of each snapshot (see _snapshot_errors), listed in
    outdir/compare.csv, and {column: rel_linf} of every other file (see
    _column_errors); and {"diagnostics.<key>": error} of every manifest.json
    the two share (see _diagnostics_errors).  tol_linf judges every rel_linf
    and every diagnostics error."""
    shared = sorted(_file_names(dir_a) & _file_names(dir_b))
    common = [name for name in shared if name.endswith(".csv")]
    if not common:
        raise ConfigError("bundles share no CSV files")
    report, lines = {}, []
    for name in common:
        paths = os.path.join(dir_a, name), os.path.join(dir_b, name)
        if os.path.basename(name).startswith("snapshot"):
            entry = report[name] = _snapshot_errors(*paths)
            lines.append((name, entry["rel_linf"],
                          f" rel_l2={entry['rel_l2']:.3e}"))
        else:
            report[name] = _column_errors(name, *paths)
            lines += [(f"{name}:{column}", err, "")
                      for column, err in report[name].items()]
    for name in (n for n in shared
                 if os.path.basename(n) == "manifest.json"):
        report[name] = _diagnostics_errors(os.path.join(dir_a, name),
                                           os.path.join(dir_b, name))
        lines += [(f"{name}:{key}", err, "")
                  for key, err in report[name].items()]
    if outdir:
        names = [n for n in common
                 if os.path.basename(n).startswith("snapshot")]
        os.makedirs(outdir, exist_ok=True)
        write_csv(os.path.join(outdir, "compare.csv"),
                  ["snapshot_index", "rel_linf", "rel_l2"],
                  [np.arange(len(names)),
                   [report[n]["rel_linf"] for n in names],
                   [report[n]["rel_l2"] for n in names]])
    passed = True
    for label, rel_linf, rest in lines:
        verdict = ""
        if tol_linf is not None:
            ok = rel_linf <= tol_linf
            passed = passed and ok
            verdict = "  PASS" if ok else "  FAIL"
        print(f"{label}: rel_linf={rel_linf:.3e}{rest}{verdict}")
    report["_passed"] = passed
    return report
