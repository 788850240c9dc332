"""The planar and manifold hot loops write into per-run work arrays instead
of fresh (n, n) temporaries.  Freed together, such temporaries let glibc
give their pages back to the kernel, and the next step faults them in again;
the minor-fault count of a fresh process shows the difference.  The grid's
stored states, diagnosed a block at a time, cost at most one block more
than diagnosing each alone."""

import dataclasses
import os
import platform
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from nlfkpp import analysis, cli, config, stepping
from nlfkpp.kernel import TWO_PI

TESTS = Path(__file__).resolve().parent

# python -c CHURN CASE VARIANT: prints the minor faults of one run, with the
# package's work arrays ("work") or the allocating conftest oracle ("fresh")
CHURN = """
import resource, sys, types
import numpy as np
# conftest needs pytest for its fixture decorator alone, and importing pytest
# frees a block large enough to raise glibc's mmap threshold, after which the
# allocating oracle no longer faults as a fresh nlfkpp process does
sys.modules["pytest"] = types.SimpleNamespace(fixture=lambda f: f)
from conftest import gaussian_influence_oracle, run2d_oracle
from nlfkpp import manifold, planar

case, variant = sys.argv[1:]
if case == "planar":
    field = planar.gaussian_ring(3.0, 128, 1.0, 0.1, 1.0, D=0.001)
    kern = planar.GaussianKernel2D(1.0, 1.0)
    run = planar.run2d if variant == "work" else run2d_oracle
    call = lambda: run(field, kern, 1.0, 0.2, 0.002, 0.6)  # 300 steps
else:
    b = (manifold.gaussian_influence if variant == "work"
         else gaussian_influence_oracle)(1.0, 1.0)
    spec = manifold.ConvectionSpec(a=manifold.constant_rate(1.0), b=b,
                                   kappa=0.2, V_x=manifold.linear_drag(0.03))
    state = manifold.circle_state(1.0, 256, lambda s: np.full_like(s, 0.3))
    call = lambda: manifold.integrate(state, spec, 1.0, 0.05)  # 20 steps
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
call()
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


def minor_faults(case: str, variant: str) -> int:
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [
        str(TESTS.parent / "src"), str(TESTS), os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", CHURN, case, variant],
                         env=env, capture_output=True, text=True, check=True,
                         timeout=120)
    return int(out.stdout.split()[-1])


@pytest.mark.skipif(not (sys.platform.startswith("linux")
                         and platform.libc_ver()[0] == "glibc"),
                    reason="the fault pattern is glibc malloc's on Linux")
@pytest.mark.parametrize("case", ["planar", "manifold"])
def test_work_arrays_stop_the_page_faults(case):
    # planar: run2d at n = 128, 300 euler steps; manifold: a drag run at
    # N = 256, 20 rk4 steps (80 influence builds)
    work, fresh = minor_faults(case, "work"), minor_faults(case, "fresh")
    print(f"{case}: {work} minor faults with work arrays, {fresh} without")
    assert 4 * work <= fresh, (work, fresh)


def traced_peak(call) -> int:
    """The tracemalloc peak, in bytes, of the allocations made by call()."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_block_diagnostics_stay_within_one_block(monkeypatch):
    # the circle_grid workload's batch: fig5a's four gammas at N = 512,
    # imex, 2 000 steps, a state stored every 5 steps; REDUCE_BLOCK = 1
    # diagnoses each stored state alone, the per-frame oracle
    cfg = config.parse_config_text(cli.preset_text("fig5a"))
    config.apply_overrides(cfg, ["numerics.t_end=20"])
    cfgs = [dataclasses.replace(cfg, gamma=g) for g in (0.05, 1.0, 1.5, 50.0)]

    def run():
        return cli._step_grid(cfgs, ())

    block = stepping.REDUCE_BLOCK
    monkeypatch.setattr(stepping, "REDUCE_BLOCK", 1)
    per_frame = run()  # warm the kernel spectrum and symbol caches
    oracle = traced_peak(run)
    monkeypatch.setattr(stepping, "REDUCE_BLOCK", block)
    blocked = traced_peak(run)
    # one block of stored states, and the temporaries of diagnosing it
    states = np.concatenate([rec.y[None] for rec in per_frame] * block)
    allowance = states.nbytes + traced_peak(
        lambda: analysis.diagnose(states, TWO_PI / cfg.N))
    print(f"tracemalloc peak: {oracle} B per frame, {blocked} B in blocks "
          f"of {block}, allowance {allowance} B")
    assert blocked <= oracle + allowance
    assert [rec.frames for rec in run()] == [rec.frames for rec in per_frame]
