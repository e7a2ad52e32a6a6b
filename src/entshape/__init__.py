"""Post-channel distillation vs pre-channel shaping, at desk scale.

Subpackage map:

* :mod:`entshape.qstate` - density matrices, Bell basis, entropies
* :mod:`entshape.channels` - Kraus channels and decoupling transforms
* :mod:`entshape.entanglement` - relative entropy of entanglement
* :mod:`entshape.protocols` - distillation and shaping pipelines
* :mod:`entshape.dynamics` - claim-side fidelity decay, its rate and trajectories
* :mod:`entshape.harness` - experiments, claims reproduction, CLI
"""

__version__ = "0.1.0"
