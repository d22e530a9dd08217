"""numpy is imported on first use, never for a run that needs no array."""

import os
import subprocess
import sys

import pytest

from repro import optdeps
from repro.errors import SimulationError

_NO_NUMPY_YET = """
import sys
import repro, repro.bounds, repro.experiments, repro.cli
from repro import optdeps
assert "numpy" not in sys.modules, "importing the package imported numpy"
optdeps.numpy_available()
assert "numpy" not in sys.modules, "numpy_available() imported numpy"
from repro.experiments import figure07, heavy_traffic
result = figure07.run(duration=0.3, a_off_values=(0.0065,))
assert result.rows[0].packets > 0
cell = heavy_traffic.cells(
    duration=0.2, seed=0, sessions=200, rhos=(0.9,), backends=("soa",),
    topologies=("single",))[0]
assert cell.fn(**cell.kwargs).value.packets > 0
assert "numpy" not in sys.modules, "a simulation cell imported numpy"
"""


def test_imports_and_simulation_cells_leave_numpy_alone():
    env = {key: value for key, value in os.environ.items()
           if key != "REPRO_SANITIZE"}
    done = subprocess.run([sys.executable, "-c", _NO_NUMPY_YET], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


@pytest.mark.skipif(not optdeps.numpy_available(),
                    reason="needs the [scale] extra (numpy)")
def test_proxy_hands_out_numpy_attributes_and_keeps_them():
    import numpy
    assert optdeps.np.asarray is numpy.asarray
    assert "asarray" in vars(optdeps.np)
    assert optdeps.require_numpy("a test") is numpy
    assert optdeps.load_numpy() is numpy
    assert not hasattr(optdeps.np, "__wrapped__")


def test_missing_numpy_keeps_its_messages(monkeypatch):
    # None in sys.modules is how the import system spells "not there".
    monkeypatch.setitem(sys.modules, "numpy", None)
    monkeypatch.setattr(optdeps, "np", optdeps._LazyNumpy())
    assert not optdeps.numpy_available()
    wording = r"requires numpy, which is not installed.*repro\[scale\]"
    with pytest.raises(SimulationError, match="histogram.. " + wording):
        optdeps.require_numpy("histogram()")
    with pytest.raises(SimulationError, match=wording):
        optdeps.np.linspace
