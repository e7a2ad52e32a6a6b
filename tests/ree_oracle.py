"""Two-qubit states whose relative entropy of entanglement is known exactly.

The inverse-REE construction reads the KKT condition of the PPT program
backwards (Ishizaka 2003; Miranowicz & Ishizaka 2008; Friedland & Gour 2011).
Take a full-rank sigma on the PPT boundary and let |phi> span the kernel of
sigma^{T_B}. The program min -Tr[rho ln sigma] + Tr sigma over PPT sigma has
the stationarity condition D ln sigma[rho] = I - mu (|phi><phi|)^{T_B} with
mu >= 0, and D ln sigma[sigma] = I, so sigma is the closest PPT (for two
qubits: separable) state to every

    rho(mu) = sigma - mu (D ln sigma)^{-1}[(|phi><phi|)^{T_B}]

that is a state. Then E_R(rho(mu)) = D(rho(mu) || sigma) exactly. In sigma's
eigenbasis (D ln sigma)^{-1} divides each entry by the first divided
difference of ln at the two eigenvalues, and the trace stays 1 because
<phi|sigma^{T_B}|phi> = 0.
"""

from __future__ import annotations

import numpy as np

from entshape.qstate import DensityMatrix, partial_transpose
from entshape.ree_general import _ln_first_differences
from helpers import random_density_matrix


def inverse_ree_pair(rng: np.random.Generator, rank: int, fraction: float) -> tuple[DensityMatrix, DensityMatrix] | None:
    """(rho, sigma) with E_R(rho) = D(rho || sigma); None when the Ginibre draw is already PPT.

    sigma is a Ginibre state of the given rank mixed with I/4 up to the PPT
    boundary, and mu is ``fraction`` of the largest value that keeps rho PSD.
    """
    start = random_density_matrix(rng, (2, 2), rank=rank).matrix
    nu = np.linalg.eigvalsh(partial_transpose(start))[0]
    if nu >= 0:
        return None
    q = -nu / (0.25 - nu)  # (1 - q) nu + q / 4 = 0: the PT's smallest eigenvalue reaches 0
    sigma = (1 - q) * start + q * np.eye(4) / 4
    phi = np.linalg.eigh(partial_transpose(sigma))[1][:, 0]
    kernel_pt = partial_transpose(np.outer(phi, phi.conj()))
    lam, vecs = np.linalg.eigh(sigma)
    direction = vecs @ ((vecs.conj().T @ kernel_pt @ vecs) / _ln_first_differences(lam)) @ vecs.conj().T
    inv_sqrt = vecs / np.sqrt(lam)
    mu_max = 1 / np.linalg.eigvalsh(inv_sqrt.conj().T @ direction @ inv_sqrt)[-1]
    rho = sigma - fraction * mu_max * direction
    return DensityMatrix(0.5 * (rho + rho.conj().T), (2, 2)), DensityMatrix(sigma, (2, 2))
