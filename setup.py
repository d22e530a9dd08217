"""Legacy setup shim.

All metadata lives in pyproject.toml; this file exists so that
``pip install -e .`` works in offline environments whose setuptools
lacks the PEP 517 editable hooks (no `wheel` package available), and
so the optional C drain loop can be built on demand (``make ckernel``)::

    REPRO_BUILD_CKERNEL=1 python setup.py build_ext --inplace

The build is gated on the environment variable because the default
install must stay pure-Python: no compiler is assumed, and
repro.sim.kernel runs its reference loop when the module is absent.
Under the gate a failed compile is an error, not a skip — a build
that silently produced nothing would leave the C loop untested.
"""

import os

from setuptools import Extension, setup

ext_modules = []
if os.environ.get("REPRO_BUILD_CKERNEL", "").strip() == "1":
    ext_modules.append(
        Extension(
            "repro.sim._ckernel",
            sources=["src/repro/sim/_ckernel.c"],
        ))

setup(ext_modules=ext_modules)
