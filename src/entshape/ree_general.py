"""Numeric relative entropy of entanglement for qubit pairs outside the X reduction of :mod:`entshape.ree`.

Both parts return the certified interval of :mod:`entshape.ree`:

* Local-unitary front end, for an input with an entry outside the X
  pattern. An input within 1e-12 of that pattern is twirled onto it in its
  own frame, and an input a local unitary away from an X state (pre-rotated
  damped pairs, pure states) is rotated into that form and twirled; the X
  state found is solved by the reduction.
* PPT barrier, for every other input and for an X state whose reduced
  interval does not close: separable equals PPT for two qubits, so Newton
  steps on log-det barriers solve the convex program directly, and the
  optimum splits into at most 4 product states (Wootters 1998).

:func:`entanglement.er_numeric` imports this module only for an input with
an entry outside the X pattern or an X state whose reduced interval stays
open. Every solve of the README's CLI examples is an exact X state whose
interval closes, so none of them compiles it.
"""

from __future__ import annotations

import math

import numpy as np

from .entanglement import CERTIFIED_GAP, ERResult, SeparableAnsatz
from .qstate import PAULIS, DensityMatrix, relative_entropy
from .ree import _OFF_X, _X_PATTERN, X_STATE_TOL, _er_x_state, _frank_wolfe_interval


def _angles(ket: np.ndarray) -> tuple[float, float]:
    a, b = ket
    # phi is the relative phase, so the global phase drops out
    return 2 * math.atan2(abs(b), abs(a)), float(np.angle(b * a.conjugate()))


def _log_gradient(rho: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """Frechet derivative of Tr[rho ln sigma]: G with d/dt Tr[rho ln(sigma+tD)] = Tr[D G]."""
    svals, svecs = np.linalg.eigh(sigma)
    f1 = _ln_first_differences(np.clip(svals, 1e-300, None))
    g = svecs @ (f1 * (svecs.conj().T @ rho @ svecs)) @ svecs.conj().T
    return 0.5 * (g + g.conj().T)


# General path. For two qubits separable equals PPT (Horodecki 1996), so
#   E_R = min over sigma >= 0 with sigma^{T_B} >= 0 of -Tr[rho ln sigma] + Tr sigma,
# plus Tr[rho ln rho] - 1 (nats); the minimum over the cone has Tr sigma = 1.
# sigma = (1/4) sum_k s_k B_k in the Pauli products B_k = P_i (x) P_j, k = 4i + j,
# and the two PSD constraints become log-det barriers, so each stage minimizes
#   F_t(s) = t (-Tr[rho ln sigma] + Tr sigma) - ln det sigma - ln det sigma^{T_B}
# by Newton steps, with the exact Hessian from divided differences of ln.

_PPT_MAX_STEPS = 500  # Newton steps over all barrier stages
_BARRIER_GAP = 1e-10  # the last stage has 8 / t below this, in nats
_LAST_DECREMENT = 1.6e-5  # the last stage stops here: f's error bound decrement / (2t) is then 1e-6 of 8 / t
_BASIS = np.array([np.kron(p, q) for p in PAULIS for q in PAULIS])
_BASIS_ROWS = _BASIS.reshape(16, 16)  # np.tensordot(s, _BASIS, 1) is np.dot(s[None], _BASIS_ROWS), reshaped
_PT_SIGN = np.array([-1.0 if k % 4 == 2 else 1.0 for k in range(16)])  # B_k^{T_B} = +-B_k
_TRIPLES = np.sort(np.indices((4, 4, 4)).reshape(3, -1).T, axis=1).T  # each (i, m, j), sorted
_SPIN_FLIP = np.kron(PAULIS[2], PAULIS[2]).real
_HADAMARD = np.array([[1, 1, 1, 1], [1, 1, -1, -1], [1, -1, 1, -1], [1, -1, -1, 1]]) / 2


def _ln_first_differences(lam: np.ndarray) -> np.ndarray:
    """First divided differences of ln at ascending eigenvalues lam."""
    gap = lam[:, None] - lam[None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = gap / lam[None, :]
        f1 = np.where(np.abs(ratio) < 0.5, np.log1p(ratio), np.log(lam)[:, None] - np.log(lam)[None, :]) / gap
    return np.where(gap == 0, 1 / lam[None, :], f1)


def _barrier_point(s: np.ndarray, rho: np.ndarray) -> tuple | None:
    """t-free pieces of F_t at s, the first three giving F_t = t a - b - c; None outside the cone."""
    lam, vecs = np.linalg.eigh(np.dot(s[None], _BASIS_ROWS).reshape(4, 4) / 4)
    nu, pt_vecs = np.linalg.eigh(np.dot((s * _PT_SIGN)[None], _BASIS_ROWS).reshape(4, 4) / 4)
    if not min(lam[0], nu[0]) > 0:
        return None
    r = vecs.conj().T @ rho @ vecs
    logs = np.log(lam)
    return lam.sum() - r.diagonal().real @ logs, logs.sum(), np.log(nu).sum(), lam, vecs, nu, pt_vecs, r


def _barrier_derivatives(lam, vecs, nu, pt_vecs, r) -> tuple[np.ndarray, ...]:
    """t-free pieces of F_t's gradient, 4 grad = -t g1 - g23 + 4t e_0, and Hessian, 16 hess = -t h1 + h23."""
    f1 = _ln_first_differences(lam)
    lo, mid, hi = lam[_TRIPLES]
    with np.errstate(divide="ignore", invalid="ignore"):
        split = (f1[_TRIPLES[2], _TRIPLES[1]] - f1[_TRIPLES[1], _TRIPLES[0]]) / (hi - lo)
        # Nearly equal triples: Taylor series about the mean, -1/(2m^2) - sum(dev^2)/(8m^4).
        mean = (lo + mid + hi) / 3
        taylor = -0.5 / mean**2 - ((lo - mean) ** 2 + (mid - mean) ** 2 + (hi - mean) ** 2) / (8 * mean**4)
    f2 = np.where(hi - lo <= 1e-4 * hi, taylor, split).reshape(4, 4, 4)  # second divided differences
    b = vecs.conj().T @ _BASIS @ vecs  # B_k in the eigenbasis of sigma
    pt_b = pt_vecs.conj().T @ _BASIS @ pt_vecs
    g1 = np.einsum("ij,kji->k", f1 * r, b).real
    g23 = np.einsum("kii,i->k", b, 1 / lam).real + _PT_SIGN * np.einsum("kii,i->k", pt_b, 1 / nu).real
    # Second derivative of -Tr[rho ln sigma] (Daleckii-Krein) and of both log-dets.
    weighted = np.einsum("imj,lmj->lim", f2 * r.T[:, None, :], b).reshape(16, 16)
    half = b.reshape(16, 16) @ weighted.T  # sum over i, m, j of f2[i,m,j] r[j,i] b_k[i,m] b_l[m,j]
    scaled = (b / np.sqrt(np.outer(lam, lam))).reshape(16, 16)
    pt_scaled = (pt_b / np.sqrt(np.outer(nu, nu))).reshape(16, 16) * _PT_SIGN[:, None]
    return g1, g23, (half + half.T).real, (scaled @ scaled.conj().T + pt_scaled @ pt_scaled.conj().T).real


def _cone_fraction(point: tuple, ds: np.ndarray) -> float:
    """min(1, 90% of the length along ds at which s + length ds leaves either cone).

    With sigma = V L V^dag and D the move of sigma, sigma + x D is PSD up to
    x = -1/m, m the smallest eigenvalue of L^{-1/2} V^dag D V L^{-1/2}; the
    same holds for sigma^{T_B} in its own eigenbasis. Both are in point.
    """
    m = 0.0
    for lam, vecs, sign in ((point[3], point[4], 1.0), (point[5], point[6], _PT_SIGN)):
        d = np.dot((ds * sign)[None], _BASIS_ROWS).reshape(4, 4) / 4
        inv = vecs / np.sqrt(lam)
        m = min(m, np.linalg.eigvalsh(inv.conj().T @ d @ inv)[0])
    return min(1.0, -0.9 / m) if m < 0 else 1.0


def _ppt_newton(rho: np.ndarray) -> tuple[np.ndarray, int]:
    """Barrier stages t = 1, 8, 64, ... until 8/t <= _BARRIER_GAP; returns (sigma, steps).

    Scaling sigma by c adds t(c - 1) Tr sigma - (t + 8) ln c to F_t, so every
    center has Tr sigma = s_0 = 1 + 8/t exactly: the first stage starts at
    s = 9 e_0. While the Newton decrement is at least 0.1 a step must pass an
    Armijo test; below that F_t (of size t) rounds above the decrease, so
    every feasible step is taken. An intermediate stage only has to give the
    next one a good start (Boyd & Vandenberghe 2004, section 11.3), so it
    ends once the decrement is below 0.1. The last stage ends at decrement
    _LAST_DECREMENT, which bounds f's error by decrement/(2t), a millionth of
    the 8/t gap, or when rounding stops the decrement shrinking first.
    Each new stage starts with a predictor step along the central path: at
    the center s(t) just found, t grad a + grad phi = 0 gives the tangent
    ds/dt = -H_t^{-1} grad a (a the t-weighted term, phi the barriers), and
    s(8t) ~ s(t) + (7t/8) ds/dt is linear in 1/t, along which the path is
    nearly straight. The step is cut to 90% of the distance to either cone's
    boundary (_cone_fraction). ``steps`` counts accepted Newton and predictor
    steps: 14-26, median 23, on random, pure-plus-full-rank and inverse-REE
    oracle states, and 25-35, median 29, on pure states.
    F_t is affine in t, so its pieces at a point are computed once, free of t
    (t is a power of 8, so scaling by it is exact). A line-search trial
    computes only the value; derivatives are built for accepted points alone.
    Steps are minimum-norm solutions of the diagonally scaled Newton system,
    applied as -scale V (inv (V^T (scale grad))) from one eigendecomposition
    that the stage's last step and the tangent share; eigenvalues below
    lstsq's cutoff (16 eps max|eigenvalue|) are dropped. In late stages the
    partial-transpose barrier outweighs the rest of the Hessian by up to
    1e17, which leaves it singular to rounding on symmetric inputs such as
    the singlet, and the minimum-norm step stays finite there.
    """
    s, t, steps = 9 * np.eye(1, 16).ravel(), 1.0, 0
    point = _barrier_point(s, rho)
    g1, g23, h1, h23 = _barrier_derivatives(*point[3:])
    while True:
        last, final = math.inf, 8 / t <= _BARRIER_GAP
        while steps < _PPT_MAX_STEPS:
            value, grad, hess = t * point[0] - point[1] - point[2], -t * g1 - g23, (-t * h1 + h23) / 16
            grad[0] += 4 * t
            grad /= 4
            scale = 1 / np.sqrt(np.diag(hess))
            evals, evecs = np.linalg.eigh(hess * np.outer(scale, scale))
            kept = np.abs(evals) > 16 * np.finfo(float).eps * np.abs(evals).max()
            inv = np.divide(1.0, evals, out=np.zeros(16), where=kept)
            step = -scale * (evecs @ (inv * (evecs.T @ (scale * grad))))
            decrement = -grad @ step
            if not decrement > 0 or (decrement < 0.1 and (not final or decrement <= _LAST_DECREMENT or decrement >= last)):
                break
            last, length = decrement, 1.0
            while length > 1e-12:
                trial = _barrier_point(s + length * step, rho)
                if trial is not None and (decrement < 0.1 or t * trial[0] - trial[1] - trial[2] <= value - 0.25 * length * decrement):
                    break
                length /= 2
            else:
                break
            s, point, steps = s + length * step, trial, steps + 1
            g1, g23, h1, h23 = _barrier_derivatives(*point[3:])
        else:
            break  # step budget spent
        if final:
            break
        grad_a = -g1 / 4
        grad_a[0] += 1
        ds = -(7 * t / 8) * scale * (evecs @ (inv * (evecs.T @ (scale * grad_a))))
        ds *= _cone_fraction(point, ds)
        trial = _barrier_point(s + ds, rho)
        if trial is not None:
            s, point, steps = s + ds, trial, steps + 1
            g1, g23, h1, h23 = _barrier_derivatives(*point[3:])
        t *= 8
    sigma = np.tensordot(s, _BASIS, 1) / 4
    return sigma / s[0], steps


def _close_triangle(a: float, b: float, c: float) -> tuple[float, float]:
    """Angles (u, v) with a + b e^{iu} + c e^{iv} = 0 for side lengths a, b, c of a triangle.

    tan(u/2) = sqrt((a + b - c)(a + b + c) / ((c - a + b)(c + a - b))), in
    factored form: the law of cosines loses half the digits of a flat triangle.
    """
    u = 2 * math.atan2(math.sqrt(max((a + b - c) * (a + b + c), 0.0)), math.sqrt(max((c - a + b) * (c + a - b), 0.0)))
    return u, float(np.angle(-a - b * np.exp(1j * u)))


def _product_decomposition(sigma: np.ndarray) -> SeparableAnsatz:
    """At most four product states that mix to a PPT sigma (Wootters 1998).

    With V = eigenvectors * sqrt(eigenvalues), sigma = V V^dag. The Takagi
    factorization V^T (Y (x) Y) V = U D U^T, read off the positive half of the
    spectrum of the real 8x8 form [[Re, Im], [Im, -Re]], gives columns x_j of
    V conj(U) with x_i^T (Y (x) Y) x_j = d_j delta_ij and sigma = sum_j x_j x_j^dag.
    Phases with sum_j e^{i theta_j} d_j = 0 exist because sigma is PPT
    (d_1 <= d_2 + d_3 + d_4), and a Hadamard recombination of the rephased
    columns gives four vectors of zero concurrence: each is a product, read
    off by an SVD.
    """
    lam, vecs = np.linalg.eigh(sigma)
    x = vecs * np.sqrt(np.clip(lam, 0.0, None))
    tau = x.T @ _SPIN_FLIP @ x
    d, pq = np.linalg.eigh(np.block([[tau.real, tau.imag], [tau.imag, -tau.real]]))
    d, x = d[:3:-1], x @ (pq[:4, :3:-1] - 1j * pq[4:, :3:-1])  # descending d_1 >= ... >= d_4
    rest = min(max(d[0] - d[1], d[2] - d[3]), d[2] + d[3])
    u, v = _close_triangle(d[0], d[1], rest)
    u2, v2 = _close_triangle(rest, d[2], d[3])
    theta = np.array([0.0, u, u2 + v + math.pi, v2 + v + math.pi])
    weights, atoms = [], []
    for z in ((x * np.exp(-0.5j * theta)) @ _HADAMARD).T:
        left, svals, right = np.linalg.svd(z.reshape(2, 2))
        weights.append(svals[0] ** 2)
        atoms.append((_angles(left[:, 0]), _angles(right[0])))
    total = sum(weights)
    return SeparableAnsatz(tuple(w / total for w in weights), tuple(atoms))


def _product_max(g: np.ndarray) -> float:
    """Certified max of <ab|G|ab> over product states for a Hermitian 4x4 G.

    In Bloch form <ab|G|ab> = c + alpha.m + beta.n + m^T T n over unit m, n,
    and the best m gives c + beta.n + |alpha + T n|. So mu bounds the maximum
    iff w = mu - c >= |beta| and q(n) = (w - beta.n)^2 - |alpha + T n|^2 >= 0
    on the unit sphere. The sphere test is the trust-region dual: q >= 0
    there iff psi(l) = q0 - l - sum_i bh_i^2 / (a_i + l) >= 0 for some l > -a_min,
    where a_i, bh_i are q's quadratic part's eigenvalues and half its linear
    part in that eigenbasis, and q0 its constant; psi is concave in l.
    Bisection on mu returns the smallest mu that passes, to the last bit.
    """
    coords = np.einsum("kab,ba->k", _BASIS, g).real.reshape(4, 4) / 4
    c, alpha, beta, tt = coords[0, 0], coords[1:, 0], coords[0, 1:], coords[1:, 1:]
    a, frame = np.linalg.eigh(np.outer(beta, beta) - tt.T @ tt)
    beta_f, alpha_f, a = frame.T @ beta, frame.T @ tt.T @ alpha, a.tolist()

    def bounds(w: float) -> bool:
        if w < math.hypot(*beta):
            return False
        bh2 = [e * e for e in (w * beta_f + alpha_f).tolist()]
        pairs = [(b2, ai) for b2, ai in zip(bh2, a) if b2]  # plain floats: psi' runs ~3000 times a call
        # psi's maximizer lies in (-a_min, -a_min + |bh|], where psi' <= 0.
        # A nonzero |bh| below an ulp of a_min leaves no float in it; psi is
        # then taken at the first float above -a_min, as any l > -a_min
        # certifies. A square that underflows to 0 gives an infinite term.
        lo, hi = -a[0], -a[0] + math.sqrt(sum(bh2))
        if pairs and hi == lo:
            hi = math.nextafter(lo, math.inf)
        while lo < (mid := 0.5 * (lo + hi)) < hi:
            slope = 0.0
            for b2, ai in pairs:
                slope += b2 / x if (x := (ai + mid) ** 2) else math.inf
            lo, hi = (mid, hi) if slope > 1 else (lo, mid)
        poles = 0.0
        for b2, ai in pairs:
            poles += b2 / x if (x := ai + hi) else math.inf
        return w * w - alpha @ alpha - hi - poles >= 0

    lo, hi = 0.0, math.hypot(*alpha) + math.hypot(*beta) + float(np.linalg.norm(tt))
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        lo, hi = (lo, mid) if bounds(mid) else (mid, hi)
    return float(c) + hi



def _er_ppt_barrier(rho: DensityMatrix) -> ERResult:
    """Certified interval for any qubit pair; see the barrier notes above."""
    sigma, steps = _ppt_newton(rho.matrix)
    certificate = _product_decomposition(sigma)
    assembled = certificate.assemble()
    top = _product_max(_log_gradient(rho.matrix, assembled.matrix))
    return _frank_wolfe_interval(rho, certificate, assembled, steps, top)


# Local-unitary front end. With Pauli coordinates C = [[1, b^T], [a, T]] (Bloch
# vectors a, b and correlations T_ij = Tr[rho s_i (x) s_j]), a product unitary
# acts as a -> R_A a, b -> R_B b, T -> R_A T R_B^T for rotations R_A, R_B in
# SO(3), and E_R does not change. An X state has a and b on the z axis, T_xz =
# T_yz = T_zx = T_zy = 0, T_xx = -T_yy and T_xy = T_yx, so T's singular values
# are (r, r, s). The SVD T = U D V^T with U, V in SO(3) makes T diagonal; one of
# the 3 cyclic relabelings of the axes then puts the s axis on z, and one of the
# 4 sign flips of det 1 on B (diag(1, -1, -1) is the I (x) X relabel) gives
# T_xx = -T_yy. For r != s that finds every state a local unitary away from an
# X state. For r = s (two-sided damping at gamma = gamma_A = 1/2, say) T's
# singular vectors are arbitrary, but T + a b^T has the X-frame form
# diag(r, -r, s + a_z b_z), which splits the tie when a_z b_z != 0, so its SVD
# is tried second. Before both, the input's own frame is tried, on the input
# matrix itself. The rest keep the general path. Dropping what is left outside
# the X pattern (at most X_STATE_TOL per entry) is the local-phase twirl of the
# reduction notes in entshape.ree, which never raises E_R, so the twirled
# state's lower bound holds for the input.


def _on_pauli_index(rotation: np.ndarray) -> np.ndarray:
    """diag(1, R): a Bloch rotation R acting on one qubit's Pauli index."""
    out = np.eye(4)
    out[1:, 1:] = rotation
    return out


_CYCLES = tuple(np.roll(np.eye(3), k, axis=0) for k in range(3))
_FLIPS = np.array([[1.0, 1.0, 1.0], [1.0, -1.0, -1.0], [-1.0, 1.0, -1.0], [-1.0, -1.0, 1.0]])
# (12, 2, 4, 4): for A and for B, in the order tried. Row scaling, not a
# matrix product, so importing the module does not allocate BLAS buffers.
_RELABELS = np.array(
    [[_on_pauli_index(cycle), _on_pauli_index(flip[:, None] * cycle)] for cycle in _CYCLES for flip in _FLIPS]
)


def _er_x_frame(rho: DensityMatrix) -> ERResult | None:
    """X-path interval for a state near an X state in its own frame or after a local unitary; None if no frame is found.

    The twirled X state is solved in its frame and its certificate's Bloch
    vectors are rotated back, so ``value`` is D(rho || certificate) on the
    input itself; ``lower`` carries over, since the twirled X state's E_R is
    at most the input's.
    """
    coords = np.einsum("kab,ba->k", _BASIS, rho.matrix).real.reshape(4, 4)
    # The input's own frame first, on the input matrix itself: its exact zeros stay zero.
    rot_a = rot_b = np.eye(4)[None]
    states = rho.matrix[None]
    for t in (coords[1:, 1:], coords[1:, 1:] + np.outer(coords[1:, 0], coords[0, 1:]), None):
        found = np.flatnonzero(np.abs(states[:, _OFF_X]).max(axis=1) <= X_STATE_TOL)
        if found.size:
            break
        if t is None:
            return None
        u, _, vt = np.linalg.svd(t)
        u[:, 2] *= np.linalg.det(u)  # into SO(3): the sign moves onto the third singular value
        vt[2] *= np.linalg.det(vt)
        rot_a = _RELABELS[:, 0] @ _on_pauli_index(u.T)
        rot_b = _RELABELS[:, 1] @ _on_pauli_index(vt)
        # Every candidate at once: rotated coordinates, then rotated states.
        states = np.tensordot(rot_a @ coords @ rot_b.transpose(0, 2, 1), _BASIS.reshape(4, 4, 4, 4), 2) / 4
    k = found[0]
    rot_a, rot_b, m = rot_a[k, 1:, 1:], rot_b[k, 1:, 1:], np.where(_X_PATTERN, states[k], 0)
    result = _er_x_state(DensityMatrix(m, (2, 2)))
    theta, phi = np.moveaxis(np.array(result.certificate.product_states), -1, 0)  # each (atom, qubit)
    bloch = np.stack([np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi), np.cos(theta)], axis=-1)
    back = np.stack([bloch[:, 0] @ rot_a, bloch[:, 1] @ rot_b], axis=1)  # R^T n per atom
    # atan2 keeps the polar angle of a near-pole atom to the last bit; acos of n_z does not.
    theta = np.arctan2(np.hypot(back[..., 0], back[..., 1]), back[..., 2])
    phi = np.arctan2(back[..., 1], back[..., 0])
    atoms = tuple(((float(ta), float(pa)), (float(tb), float(pb))) for (ta, tb), (pa, pb) in zip(theta, phi))
    certificate = SeparableAnsatz(result.certificate.weights, atoms)
    value = max(relative_entropy(rho, certificate.assemble()), 0.0)
    lower = min(result.lower, value)  # the input-frame value can round below the twirled state's bound
    return ERResult(value, certificate, result.iterations, value - lower <= CERTIFIED_GAP, lower)
