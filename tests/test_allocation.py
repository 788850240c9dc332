"""The planar and manifold hot loops write into per-run work arrays instead
of fresh (n, n) temporaries.  Freed together, such temporaries let glibc
give their pages back to the kernel, and the next step faults them in again;
the minor-fault count of a fresh process shows the difference."""

import os
import platform
import subprocess
import sys
from pathlib import Path

import pytest

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
