"""Post-channel distillation vs pre-channel shaping, at desk scale.

Subpackage map:

* :mod:`entshape.qstate` - density matrices, Bell basis, entropies
* :mod:`entshape.channels` - Kraus channels and decoupling transforms
* :mod:`entshape.entanglement` - relative entropy of entanglement: closed forms and ``er_numeric``
* :mod:`entshape.ree` - the X-state reduction ``er_numeric`` runs first, imported on its first call
* :mod:`entshape.ree_general` - the local-unitary front end and PPT barrier for every other
  input, imported only for an input that needs them
* :mod:`entshape.protocols` - recurrence distillation and the hashing rate; shaping needs no
  pipeline of its own
* :mod:`entshape.dynamics` - claim-side fidelity decay, its rate and trajectories
* :mod:`entshape.harness` - experiments, claims reproduction, CLI; the ``table1`` and
  ``table2`` runners are :mod:`entshape.harness.tables`, imported only by those tables
"""

__version__ = "0.1.0"
