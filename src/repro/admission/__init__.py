"""Admission control: the three procedures and delay shifting.

Leave-in-Time decouples the deadline increment ``d_{i,s}`` from the
reserved rate, which allows *delay shifting* — lowering some sessions'
delay bounds at the expense of others' — but arbitrary ``d`` values can
saturate the scheduler. The paper's three admission-control procedures
regulate the assignment:

* **Procedure 1** (:class:`~repro.admission.procedure1.Procedure1`) —
  nested delay classes ``(R_k, σ_k)``; ``d`` grows with ``L/r`` scaled
  by ``R_j/C`` plus the previous class's base delay. Exploits full
  bandwidth; O(P) tests.
* **Procedure 2** (:class:`~repro.admission.procedure2.Procedure2`) —
  same classes, shifted indices: ``d`` uses ``R_{j-1}`` and ``σ_j``,
  decoupling low-rate sessions' delay from ``L/r`` in class 1, at the
  cost of needing a large σ_P to exploit full bandwidth.
* **Procedure 3** (:class:`~repro.admission.procedure3.Procedure3`) —
  arbitrary constant ``d_s`` per session, guarded by the subset test
  (eq. 19) over all ``2^|φ|−1`` subsets.

:class:`~repro.admission.controller.AdmissionController` applies a
procedure at every node of a route transactionally (reject anywhere →
roll back everywhere), mirroring connection establishment.
"""

from repro import _lazy_exports

#: Public name -> defining module, imported on first use.
_EXPORTS = {
    "DelayClass": ".classes",
    "Procedure1": ".procedure1",
    "Procedure2": ".procedure2",
    "Procedure3": ".procedure3",
    "AdmissionController": ".controller",
}
__all__ = list(_EXPORTS)
__getattr__, __dir__ = _lazy_exports(globals(), _EXPORTS)
