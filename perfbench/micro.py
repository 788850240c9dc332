"""Layer micro-cases at fixed sizes, calling the package's public functions.

    python micro.py SEED WORKDIR

Prints one JSON object ``{"metrics": {name: value}, "failed": [names]}``.
Inputs are drawn from ``numpy.random.default_rng(SEED)``; sizes are fixed.
Each case reports the median over batches of the time per call, with the
batch size grown until one batch takes at least ``BATCH_S``.
"""

from __future__ import annotations

import json
import math
import os
import statistics
import sys
import time

import numpy as np

from nlfkpp import backends, gridsim, manifold, planar
from nlfkpp.csvio import write_csv
from nlfkpp.kernel import CircleKernelParams, eigenvalues

BATCH_S = 0.02
BATCHES = 5


def per_call_s(fn, batches: int = BATCHES) -> float:
    """Median seconds per call; the caller has already made one warm-up call."""
    n = 1
    while True:
        start = time.perf_counter()
        for _ in range(n):
            fn()
        elapsed = time.perf_counter() - start
        if elapsed >= BATCH_S:
            break
        n *= 2
    samples = [elapsed / n]
    for _ in range(batches - 1):
        start = time.perf_counter()
        for _ in range(n):
            fn()
        samples.append((time.perf_counter() - start) / n)
    return statistics.median(samples)


def cases(rng, workdir):
    """Yield (metric name, callable, check of the callable's result)."""
    def finite(out):
        return bool(np.all(np.isfinite(np.asarray(out))))

    for mu_label, gamma in (("mu1", 1.0), ("mu400", 0.05)):
        kern = CircleKernelParams(1.0 + rng.random(), gamma, 1.0)
        yield (f"micro.kernel.eigenvalues.J40.{mu_label}_us",
               lambda kern=kern: eigenvalues(40, kern), finite)

    unit = CircleKernelParams(1.0, 1.0, 1.0)
    for n in (512, 2048):
        state = gridsim.GridState(n, 0.4 + 0.1 * rng.random(n))
        yield (f"micro.gridsim.nonlocal_term.N{n}_us",
               lambda state=state: gridsim.nonlocal_term(state, unit), finite)

    state = gridsim.GridState(512, 0.4 + 0.1 * rng.random(512))
    for scheme in ("euler", "rk4", "imex"):
        yield (f"micro.gridsim.step.{scheme}.N512_us",
               lambda scheme=scheme: gridsim.step(state, unit, 1.0, 0.2, 0.1,
                                                  1e-4, scheme).rho, finite)

    for J in (10, 40, 160):
        beta = rng.random(2 * J + 1) + 1j * rng.random(2 * J + 1)
        lam = rng.random(2 * J + 1)
        yield (f"micro.backends.quadratic_coupling.J{J}_us",
               lambda beta=beta, lam=lam: backends.quadratic_coupling(beta, lam),
               finite)

    for n in (64, 256, 1024):
        row, rho, ds = rng.random(n), rng.random(n), 2.0 * math.pi / n
        spectrum = ds * np.fft.irfft(np.fft.rfft(row) * np.fft.rfft(rho), n=n)
        yield (f"micro.backends.circulant_apply.N{n}_us",
               lambda row=row, rho=rho, ds=ds: backends.circulant_apply(row, rho, ds),
               lambda out, want=spectrum: bool(np.allclose(out, want, rtol=1e-10,
                                                           atol=1e-12)))

    for n in (128, 256):
        spec = manifold.ConvectionSpec(
            a=manifold.constant_rate(1.0),
            b=manifold.gaussian_influence(1.0, 1.0), kappa=0.2,
            V_x=manifold.linear_drag(0.03))
        mstate = manifold.circle_state(1.0, n, lambda s: 0.5 + 0.1 * rng.random(len(s)))
        yield (f"micro.manifold.ee_rhs.N{n}_us",
               lambda mstate=mstate, spec=spec: manifold.ee_rhs(mstate, spec)[0],
               finite)

    kern2d = planar.GaussianKernel2D(1.0, 1.0)
    for n in (128, 256):
        field = planar.Field2D(3.0, n, 0.1 + rng.random((n, n)), 0.0, 0.001)
        yield (f"micro.planar.nonlocal_term_2d.n{n}_us",
               lambda field=field: planar.nonlocal_term_2d(field, kern2d), finite)

    rows = 100_000
    columns = [np.arange(rows) * 0.01, rng.random(rows), rng.standard_normal(rows)]
    path = os.path.join(workdir, "micro_write.csv")

    def write():
        write_csv(path, ["t", "u", "v"], columns)
        return os.path.getsize(path)

    yield ("micro.csvio.write_csv.1e5rows_s", write, lambda size: size > 0)


def main(argv) -> int:
    seed, workdir = int(argv[0]), argv[1]
    os.makedirs(workdir, exist_ok=True)
    rng = np.random.default_rng(seed)
    metrics, failed = {}, []
    for name, fn, check in cases(rng, workdir):
        if not check(fn()):
            failed.append(name)
        if name.endswith("_us"):
            metrics[name] = per_call_s(fn) * 1e6
        else:
            metrics[name] = per_call_s(fn, batches=3)
    print(json.dumps({"metrics": metrics, "failed": failed}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
