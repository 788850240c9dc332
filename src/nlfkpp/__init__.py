"""Toolkit for nonlocal population dynamics reduced to concentration
manifolds: kernel eigenpairs, exact homogeneous solutions, spectral and
grid solvers on the circle, a coupled manifold solver, a planar verifier,
large-time asymptotics, diagnostics, and a scenario-runner CLI."""

__version__ = "0.1.0"

from .kernel import CircleKernelParams, bessel_i, eigenvalue, eigenvalues

# re-exported from exact, which is imported on the first use of one of
# them, so that importing the package compiles no solver module
_EXACT_NAMES = ("HomogeneousModel", "beta0", "rho0", "rho_lim", "t_max",
                "t_quasi_steady")

__all__ = [
    "__version__",
    "CircleKernelParams", "bessel_i", "eigenvalue", "eigenvalues",
    *_EXACT_NAMES,
]


def __getattr__(name):
    if name in _EXACT_NAMES:
        from . import exact
        return getattr(exact, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
