"""Type stub for the optional C drain loop (repro/sim/_ckernel.c).

Keeps strict mypy over repro.sim.* working whether or not the
extension has been built in this checkout.
"""

from typing import Optional

from repro.sim.kernel import Simulator

def drain(sim: Simulator, until: Optional[float],
          exclusive: bool) -> float: ...
