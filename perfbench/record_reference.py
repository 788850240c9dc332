"""Record the reference digests the benchmark checks every run against.

    python3 perfbench/record_reference.py [WORKLOAD ...]

Runs each workload once per length (full and smoke) from the current
checkout and writes ``reference/<workload>.json``.  Record them only from a
commit whose outputs are trusted; every later run is compared with them.
"""

from __future__ import annotations

import json
import sys

from outputs import digest_bundle
from run import REFERENCE, WORK, WORKLOADS, child_cmd, child_env, spawn


def record(name: str) -> dict:
    wl = WORKLOADS[name]
    env = child_env()
    workdir = WORK / "record" / name
    out = {}
    for length, t_end in wl.t_end.items():
        outdir = workdir / length
        cmd = child_cmd(wl, length, False, workdir / "record.json", outdir)
        workdir.mkdir(parents=True, exist_ok=True)
        rc = spawn(cmd, workdir / "child.log", env).rc
        if rc != 0:
            raise SystemExit(f"{name}/{length}: exit code {rc}, see {workdir}/child.log")
        out[length] = {"t_end": t_end, "files": digest_bundle(str(outdir))}
    return out


def main(names) -> int:
    REFERENCE.mkdir(exist_ok=True)
    for name in names or sorted(WORKLOADS):
        path = REFERENCE / f"{name}.json"
        path.write_text(json.dumps(record(name), indent=1, sort_keys=True) + "\n")
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
