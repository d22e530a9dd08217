"""What each entry point imports, pinned module by module.

Every ledger child pays for its imports before its first event, and
without a bytecode cache every module it loads is compiled from source.
Wall-clock import time is noise on a shared machine; the set of
``repro`` modules a fresh interpreter loads is not.  So, as
``tests/net/test_hop_path_budget.py`` counts opcodes, this file runs
each entry point's import lines in a fresh interpreter and holds the
sorted set of ``repro.*`` modules it loaded to the committed one —
exactly: a module that starts loading where it was not needed fails
here, and so does one that stops (update the set, and say why in the
commit).

``make import-budget`` (``pytest -s`` on this file) also prints, per
entry point, the interpreter's ``-X importtime`` table: the fifteen
imports with the largest cumulative time, stdlib included.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

#: entry point -> the lines it runs.  ``child`` is the ledger's
#: measurement child (``benchmarks/ledger/child.py``, which imports
#: ``workloads.py``): the imports every workload run pays for.
ENTRY_POINTS = {
    "repro": "import repro",
    "cli": "import repro.cli",
    "child": (f"import sys; sys.path.insert(0, "
              f"{str(ROOT / 'benchmarks' / 'ledger')!r}); import child"),
}

#: entry point -> every ``repro`` module it loads.  Before namespaces
#: resolved names on first use these were 39, 100 and 64 modules: the
#: package ``__init__``s imported every discipline, source and bound,
#: the CLI every experiment and, through ``verify/__init__``, the
#: static analyzer.
MODULES = {
    "repro": ["repro"],
    "cli": [
        "repro", "repro.analysis", "repro.analysis.verify",
        "repro.analysis.verify.sanitizer", "repro.argtypes", "repro.cli",
        "repro.errors", "repro.experiments", "repro.experiments.parallel",
        "repro.units",
    ],
    "child": [
        "repro", "repro.admission", "repro.admission.base",
        "repro.admission.classes", "repro.admission.controller",
        "repro.admission.procedure1", "repro.analysis",
        "repro.analysis.bench", "repro.analysis.report", "repro.bounds",
        "repro.bounds.buffer", "repro.bounds.delay", "repro.bounds.jitter",
        "repro.errors", "repro.experiments", "repro.experiments.call_churn",
        "repro.experiments.common", "repro.experiments.heavy_traffic",
        "repro.experiments.parallel", "repro.net", "repro.net.link",
        "repro.net.network", "repro.net.node", "repro.net.packet",
        "repro.net.route", "repro.net.session", "repro.net.session_table",
        "repro.net.sink", "repro.net.topology", "repro.sched",
        "repro.sched.base", "repro.sched.calendar_queue", "repro.sched.edd",
        "repro.sched.fcfs", "repro.sched.leave_in_time",
        "repro.sched.policy", "repro.sim", "repro.sim.events",
        "repro.sim.kernel", "repro.sim.monitor", "repro.sim.parallel",
        "repro.sim.rng", "repro.sim.trace", "repro.traffic",
        "repro.traffic.base", "repro.traffic.onoff",
        "repro.traffic.poisson", "repro.traffic.superposed",
        "repro.units",
    ],
}

#: Standard-library modules no entry point may load: ``subprocess`` is
#: for ``bench.git_rev`` alone, ``decimal`` for the M/D/1 series.
STDLIB_UNUSED = ("subprocess", "decimal")

#: Run after an entry point's lines: what they loaded, as one JSON line.
_PROBE = """
import json, sys
print(json.dumps([
    sorted(name for name in sys.modules if name.partition(".")[0] == "repro"),
    [name for name in {unused!r} if name in sys.modules]]))
"""


def _fresh_import(entry):
    """(loaded ``repro`` modules, loaded modules of ``STDLIB_UNUSED``,
    ``-X importtime`` rows as (cumulative us, module)) of one entry
    point in a new interpreter."""
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    probe = ENTRY_POINTS[entry] + _PROBE.format(unused=STDLIB_UNUSED)
    done = subprocess.run([sys.executable, "-X", "importtime", "-c", probe],
                          env=env, cwd=ROOT, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr[-2000:]
    modules, stdlib = json.loads(done.stdout.splitlines()[-1])
    rows = []
    for line in done.stderr.splitlines():
        fields = line.removeprefix("import time:").split("|")
        if len(fields) == 3 and fields[1].strip().isdigit():
            rows.append((int(fields[1]), fields[2].rstrip()))
    return modules, stdlib, rows


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_import_set(entry):
    modules, stdlib, rows = _fresh_import(entry)
    print(f"\n{entry}: {len(modules)} repro modules; -X importtime, "
          f"cumulative, top 15")
    for cumulative, name in sorted(rows, reverse=True)[:15]:
        print(f"  {cumulative / 1000:8.1f} ms  {name}")
    assert stdlib == [], f"{entry} imported {stdlib}"
    assert modules == MODULES[entry], (
        f"{entry} loads {sorted(set(modules) - set(MODULES[entry]))} "
        f"beyond the committed set and not "
        f"{sorted(set(MODULES[entry]) - set(modules))}")
