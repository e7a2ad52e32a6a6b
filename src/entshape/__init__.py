"""Post-channel distillation vs pre-channel shaping, at desk scale.

Subpackage map:

* :mod:`entshape.qstate` - density matrices, Bell basis, entropies
* :mod:`entshape.channels` - Kraus channels and decoupling transforms
* :mod:`entshape.entanglement` - relative entropy of entanglement: closed forms and ``er_numeric``
* :mod:`entshape.ree` - the numeric solver behind ``er_numeric``, imported on its first call
* :mod:`entshape.protocols` - distillation and shaping pipelines
* :mod:`entshape.dynamics` - claim-side fidelity decay, its rate and trajectories
* :mod:`entshape.harness` - experiments, claims reproduction, CLI; the ``table1`` and
  ``table2`` runners are :mod:`entshape.harness.tables`, imported only by those tables
"""

__version__ = "0.1.0"
