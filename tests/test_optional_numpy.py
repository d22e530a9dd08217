"""A simulation loads no array, statistics or process-pool package.

numpy, scipy, ``multiprocessing`` and ``concurrent.futures`` are each
imported where they are first used — an array helper, a confidence
interval, a pool being built — so a serial run pays for none of them
(~100 ms / ~12 MB for numpy, ~40 ms / ~2 MB for the pool modules).
"""

import os
import subprocess
import sys

from repro import optdeps

#: What a ledger child (``benchmarks/ledger/child.py`` + ``workloads.py``)
#: imports from the package, then one fig07 cell and one heavy-traffic
#: cell run in-process.
_SERIAL_RUN = """
import sys
import repro, repro.bounds, repro.experiments, repro.cli
from repro.admission.controller import AdmissionController
from repro.analysis.bench import peak_rss_bytes
from repro.bounds.delay import compute_session_bounds
from repro.experiments import call_churn, figure07, heavy_traffic
from repro.experiments.common import build_mix_network, mix_specs
from repro.net.network import Network
from repro.sim.parallel import merge_payloads, payload_digest, shard_payload
HEAVY = ("numpy", "scipy", "multiprocessing", "concurrent.futures")
loaded = [name for name in HEAVY if name in sys.modules]
assert not loaded, f"importing the package imported {loaded}"
result = figure07.run(duration=0.3, a_off_values=(0.0065,))
assert result.rows[0].packets > 0
cell = heavy_traffic.cells(
    duration=0.2, seed=0, sessions=200, rhos=(0.9,), backends=("soa",),
    topologies=("single",))[0]
assert cell.fn(**cell.kwargs).packets > 0
loaded = [name for name in HEAVY if name in sys.modules]
assert not loaded, f"a simulation cell imported {loaded}"
"""


def test_imports_and_simulation_cells_leave_numpy_alone():
    env = {key: value for key, value in os.environ.items()
           if key != "REPRO_SANITIZE"}
    done = subprocess.run([sys.executable, "-c", _SERIAL_RUN], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


def test_proxy_hands_out_numpy_attributes_and_keeps_them():
    import numpy
    assert optdeps.np.asarray is numpy.asarray
    assert "asarray" in vars(optdeps.np)
    assert not hasattr(optdeps.np, "__wrapped__")
