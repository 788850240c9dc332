"""Digest and check the CSV bundle a workload writes.

A digest records, for every CSV under the output directory, its sha256, its
header, its row count and each column's min, max and exact (``math.fsum``)
sum written with 17 significant digits.  A bundle passes its reference when
the set of files, headers and row counts match and every statistic is within
``RTOL`` of the reference; byte-identical files are counted separately.
"""

from __future__ import annotations

import hashlib
import math
import os

import numpy as np

# Allowed relative drift of a column statistic.  Reassociated floating-point
# sums (a separable planar convolution, a Gram-matrix manifold distance) move
# results by about 1e-13 after a full run; a wrong result moves them by far
# more than 1e-9.  For a sum the scale is rows * max|column|, so that columns
# summing to about zero (imaginary parts, centred angles) are judged against
# the size of their entries.
RTOL = 1e-9


def _fmt(value: float) -> str:
    return format(float(value), ".17g")


def _columns(path: str):
    with open(path, "r", newline="\n") as fh:
        header = fh.readline().rstrip("\n").split(",")
        rows = [line.rstrip("\n").split(",") for line in fh if line.strip()]
    data = np.array(rows, dtype=float).reshape(len(rows), len(header))
    return header, data


def digest_file(path: str) -> dict:
    with open(path, "rb") as fh:
        sha = hashlib.sha256(fh.read()).hexdigest()
    header, data = _columns(path)
    columns = {}
    for name, col in zip(header, data.T):
        columns[name] = {"min": _fmt(col.min()) if len(col) else "nan",
                         "max": _fmt(col.max()) if len(col) else "nan",
                         "sum": _fmt(math.fsum(col))}
    return {"sha256": sha, "header": header, "rows": int(data.shape[0]),
            "columns": columns}


def csv_files(outdir: str) -> list:
    """Relative paths of every CSV under ``outdir``, sorted, '/' separated."""
    found = []
    for dirpath, _, names in os.walk(outdir):
        for name in names:
            if name.endswith(".csv"):
                rel = os.path.relpath(os.path.join(dirpath, name), outdir)
                found.append(rel.replace(os.sep, "/"))
    return sorted(found)


def digest_bundle(outdir: str) -> dict:
    return {rel: digest_file(os.path.join(outdir, rel)) for rel in csv_files(outdir)}


def _stat_problems(rel: str, got: dict, ref: dict) -> list:
    problems = []
    for name, ref_stats in ref["columns"].items():
        got_stats = got["columns"][name]
        scale = max(abs(float(ref_stats["min"])), abs(float(ref_stats["max"])))
        for stat in ("min", "max", "sum"):
            want, have = float(ref_stats[stat]), float(got_stats[stat])
            if math.isnan(want) and math.isnan(have):
                continue
            size = scale * max(ref["rows"], 1) if stat == "sum" else scale
            if not abs(have - want) <= RTOL * max(abs(want), size):
                problems.append(f"{rel}:{name}.{stat} = {got_stats[stat]}, "
                                f"reference {ref_stats[stat]}")
    return problems


def check_bundle(outdir: str, reference: dict):
    """Compare the bundle in ``outdir`` with a reference digest.

    Returns (passed, identical, problems).  Statistics are checked even for
    byte-identical files, so a damaged reference fails too.  ``identical``
    is true when every file matches its reference byte for byte;
    ``problems`` lists each mismatch found.
    """
    files = csv_files(outdir)
    problems = []
    missing = sorted(set(reference) - set(files))
    extra = sorted(set(files) - set(reference))
    if missing:
        problems.append(f"missing CSVs: {missing}")
    if extra:
        problems.append(f"unexpected CSVs: {extra}")
    identical = not problems
    for rel in sorted(set(files) & set(reference)):
        got, ref = digest_file(os.path.join(outdir, rel)), reference[rel]
        identical = identical and got["sha256"] == ref["sha256"]
        if got["header"] != ref["header"] or got["rows"] != ref["rows"]:
            problems.append(f"{rel}: header/rows {got['header']}/{got['rows']}, "
                            f"reference {ref['header']}/{ref['rows']}")
            continue
        problems.extend(_stat_problems(rel, got, ref))
    return not problems, identical, problems
