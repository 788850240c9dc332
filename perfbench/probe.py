"""Small fresh-interpreter probes, each printing one JSON object.

    python probe.py env      library versions, BLAS, compiled-extension flag
    python probe.py import   seconds for ``import nlfkpp.cli``; run it under
                             ``-X importtime`` to also get the share of
                             ``scipy.signal`` from standard error
"""

from __future__ import annotations

import json
import platform
import sys
import time


def env() -> dict:
    import numpy
    import scipy

    import nlfkpp

    try:
        from nlfkpp.backends import HAVE_COMPILED
    except ImportError:  # no backend layer, so nothing compiled either
        HAVE_COMPILED = False
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": blas,
            "have_compiled": bool(HAVE_COMPILED),
            "package": nlfkpp.__file__.rsplit("/", 1)[0]}


def import_cli() -> dict:
    start = time.perf_counter()
    import nlfkpp.cli  # noqa: F401

    return {"import_s": time.perf_counter() - start}


if __name__ == "__main__":
    print(json.dumps({"env": env, "import": import_cli}[sys.argv[1]]()))
