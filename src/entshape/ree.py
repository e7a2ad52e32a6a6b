"""Numeric relative entropy of entanglement for X states: the reduction :func:`entanglement.er_numeric` runs first.

Every result is a certified interval [``lower``, ``value``]: ``value`` is
the relative entropy to an explicit separable certificate, ``lower`` the
Frank-Wolfe bound (Jaggi 2013) at that certificate with an exact
product-state maximum (:func:`_frank_wolfe_interval`, shared with
:mod:`entshape.ree_general`).

This module solves exact X states: inputs whose only coherence is between
|00> and |11>, with every other off-diagonal entry 0 (every damped,
dephased or depolarized Bell pair the harness builds). The optimum is
itself an X state with closed-form flanks, so Newton steps run on the
log-eigenvalues and angle of its {|00>, |11>} block; the certificate has at
most 5 atoms. With flanks below about 1e-9, a quarter to a third of these
intervals stay open. Any other input, and an X state whose interval stays
open, goes to :mod:`entshape.ree_general`: its local-unitary front end
brings a state near X shape in some frame back to this reduction, and its
PPT barrier solves the rest.

:func:`entanglement.er_numeric` imports this module on its first call, so a
process that reads only closed forms never compiles it.
"""

from __future__ import annotations

import math

import numpy as np

from .entanglement import CERTIFIED_GAP, ERResult, SeparableAnsatz
from .qstate import DensityMatrix, relative_entropy


def _frank_wolfe_interval(
    rho: DensityMatrix, certificate: SeparableAnsatz, sigma: DensityMatrix, steps: int, top: float
) -> ERResult:
    """Certified [lower, value] at sigma, the state the certificate assembles to.

    value = D(rho || sigma); lower is the Frank-Wolfe bound (Jaggi 2013)
    value - (top - 1) / ln 2, clipped at 0, where top = max <ab|G|ab> over
    product states and G = D ln(sigma)[rho]. top = inf keeps only E_R >= 0.
    """
    value = max(relative_entropy(rho, sigma), 0.0)
    lower = max(value - max(top - 1.0, 0.0) / math.log(2), 0.0)
    return ERResult(value, certificate, steps, value - lower <= CERTIFIED_GAP, lower)


# X-state reduction. rho commutes with U = diag(1, e^{it}) (x) diag(1, e^{-it});
# averaging over t maps separable states to separable X states and never raises
# D(rho||.), so the optimum is sigma = diag(a, b, c, d) plus the coherence
# x e^{i arg rho_03}, separable iff x^2 <= bc (and PSD iff x^2 <= ad). For an
# entangled rho the optimum has x^2 = bc, and then
#   -Tr[rho ln sigma] + Tr sigma = -Tr[R ln S] + a + d + h(x),
#   h(x) = min over bc = x^2 of (b + c - p01 ln b - p10 ln c)   (closed form),
# with R and S the {|00>, |11>} blocks of rho and sigma. Its minimum over the
# cone is reached at Tr sigma = 1, so no normalization constraint is needed.

X_STATE_TOL = 1e-12  # largest entry outside the X pattern, in some frame, that the front end twirls away
_X_PATTERN = np.eye(4, dtype=bool)
_X_PATTERN[0, 3] = _X_PATTERN[3, 0] = True
_OFF_X = ~_X_PATTERN
_X_MAX_STEPS = 100
_TINY = np.finfo(float).tiny
_TWIRL_ANGLES = (0.0, 2 * math.pi / 3, 4 * math.pi / 3)
_BASIS_ATOMS = tuple(
    (za, zb) for za in ((0.0, 0.0), (math.pi, 0.0)) for zb in ((0.0, 0.0), (math.pi, 0.0))
)


def _block_in_eigenbasis(
    pops: list[float], r: float, cos: float, sin: float, sin2: float, cos2: float
) -> tuple[float, float, float]:
    """<u1|R|u1>, <u2|R|u2> and <u1|R|u2> for R = [[p00, r], [r, p11]], u1 = (cos t, sin t), u2 = (-sin t, cos t).

    sin2 and cos2 are sin 2t and cos 2t. Each diagonal entry is a square plus
    a non-negative defect, so a tiny one (S nearly orthogonal to a nearly
    pure R) keeps its digits.
    """
    root0, root3 = math.sqrt(pops[0]), math.sqrt(pops[3])
    defect = max(root0 * root3 - r, 0.0) * sin2  # r <= sqrt(p00 p11) may still exceed root0 * root3 by an ulp
    r1 = (root0 * cos + root3 * sin) ** 2 - defect
    r2 = (root0 * sin - root3 * cos) ** 2 + defect
    return r1, r2, (pops[3] - pops[0]) * sin2 / 2 + r * cos2


def _coherence_gradient(l1: float, l2: float, t: float, pops: list[float], r: float) -> np.ndarray:
    """D ln(S)[R] for S with eigenvalue e^l1 on u1 and e^l2 on u2; R, u1, u2 as in _block_in_eigenbasis."""
    cos, sin = math.cos(t), math.sin(t)
    vecs = np.array([[cos, -sin], [sin, cos]])
    r1, r2, r12 = _block_in_eigenbasis(pops, r, cos, sin, math.sin(2 * t), math.cos(2 * t))
    with np.errstate(all="ignore"):  # subnormal eigenvalues give inf or NaN; the caller checks
        e1, e2 = np.exp(l1), np.exp(l2)
        divided = (l1 - l2) / (e2 * np.expm1(l1 - l2)) if l1 != l2 else 1 / e2  # (l1 - l2)/(e1 - e2)
        return vecs @ np.array([[1 / e1 * r1, divided * r12], [divided * r12, 1 / e2 * r2]]) @ vecs.T


def _flanks(x: float, p01: float, p10: float) -> tuple[float, float]:
    """The minimizers (b, c) of h(x): b - c = p01 - p10 and bc = x^2, without cancellation."""
    delta = p01 - p10
    root = math.sqrt(delta * delta + 4 * x * x)
    if delta >= 0:
        c = 2 * x * x / (delta + root) if delta + root else 0.0  # 0 / 0 where x^2 underflows at p01 = p10
        return c + delta, c
    b = 2 * x * x / (root - delta)
    return b, b - delta


def _x_objective(
    v: tuple[float, float, float], pops: list[float], r: float
) -> tuple[float, tuple[float, float, float] | None, tuple[tuple[float, float, float], ...] | None]:
    """Reduced objective (nats), gradient and Hessian (rows) in v = (l1, l2, t), as plain floats.

    S has eigenvalue e^l1 on u1 = (cos t, sin t) and e^l2 on u2 = (-sin t, cos t),
    so Tr[R ln S] = l1 <u1|R|u1> + l2 <u2|R|u2>, a + d = e^l1 + e^l2 and
    x = (e^l1 - e^l2) sin(2t) / 2 are explicit, and the log-eigenvalues keep
    a nearly singular S well scaled. Infinite outside the domain x > 0.
    Gradient base + h_x x_v and Hessian base + h_x x_vv + h_xx x_v x_v^T are summed left to right.
    """
    l1, l2, t = v
    if max(l1, l2) > 50:
        return math.inf, None, None
    p00, p01, p10, p11 = pops
    e1, e2 = math.exp(l1), math.exp(l2)
    sin2, cos2 = math.sin(2 * t), math.cos(2 * t)
    x = (e1 - e2) * sin2 / 2
    b, c = _flanks(x, p01, p10)
    if not (x > 0 and b > 0 and c > 0):
        return math.inf, None, None
    cos, sin = math.cos(t), math.sin(t)
    r1, r2, r12 = _block_in_eigenbasis(pops, r, cos, sin, sin2, cos2)
    r1_t = 2 * r12
    r1_tt = 2 * (p11 - p00) * cos2 - 4 * r * sin2
    h = b + c - p01 * math.log(b) - p10 * math.log(c)
    h_x = 2 * (b - p01) / x
    h_xx = 4 / (b + c) - h_x / x
    x0, x1, x2 = e1 * sin2 / 2, -e2 * sin2 / 2, (e1 - e2) * cos2  # x's gradient; x0, x1 recur on its Hessian's diagonal
    value = e1 + e2 - l1 * r1 - l2 * r2 + h
    h01 = 0.0 + h_xx * (x0 * x1)  # base and x_vv vanish here, and their +0.0 turns a -0.0 product into +0.0
    h02 = -r1_t + h_x * (e1 * cos2) + h_xx * (x0 * x2)
    h12 = r1_t + h_x * (-e2 * cos2) + h_xx * (x1 * x2)
    h00, h11 = e1 + h_x * x0 + h_xx * (x0 * x0), e2 + h_x * x1 + h_xx * (x1 * x1)
    h22 = -(l1 - l2) * r1_tt + h_x * (-2 * (e1 - e2) * sin2) + h_xx * (x2 * x2)
    # Every entry carries h_xx, which is infinite whenever h_x is (subnormal populations).
    if not all(map(math.isfinite, (value, h00, h11, h22, h01, h02, h12))):
        return math.inf, None, None
    grad = (e1 - r1 + h_x * x0, e2 - r2 + h_x * x1, -(l1 - l2) * r1_t + h_x * x2)
    return value, grad, ((h00, h01, h02), (h01, h11, h12), (h02, h12, h22))


def _x_newton(pops: list[float], r: float) -> tuple[tuple[float, float, float], int]:
    """Minimize the reduced objective by damped Newton steps; returns ((l1, l2, t), steps).

    The objective is convex in (a, d, x) but not in the log-eigenvalue
    coordinates, so the Hessian's eigenvalues are taken in absolute value.
    Stops when the Newton decrement falls below 1e-24, stops shrinking, or no
    step lowers the objective any more.
    """
    a, d, x = pops[0], pops[3], r / 2
    half_gap = (a - d) / 2
    hi = (a + d) / 2 + math.hypot(half_gap, x)
    lo = (a * d - x * x) / hi
    # Start with |t| <= pi/4: near t = pi/2 a small coherence would be resolved
    # only to the absolute spacing of floats around pi/2.
    t = 0.5 * math.atan(x / half_gap) if half_gap else math.pi / 4
    v = (math.log(hi), math.log(lo), t) if half_gap >= 0 else (math.log(lo), math.log(hi), t)
    value, grad, hess = _x_objective(v, pops, r)
    steps, last_decrement = 0, math.inf
    while steps < _X_MAX_STEPS and grad is not None:
        steps += 1
        # Diagonal scaling first: near a tiny flank population the curvature
        # in t exceeds the others by up to 1e12.
        # Elementwise products, quotients and maxima round alike in numpy and
        # in Python floats, so they run on floats. eigh, both matrix-vector
        # products and grad @ step stay in numpy: BLAS may fuse multiply-adds.
        (h00, h01, h02), (h10, h11, h12), (h20, h21, h22) = hess
        g0, g1, g2 = grad
        s0 = 1 / math.sqrt(max(abs(h00), _TINY))
        s1 = 1 / math.sqrt(max(abs(h11), _TINY))
        s2 = 1 / math.sqrt(max(abs(h22), _TINY))
        # h_ij * (s_i * s_j): (h_ij * s_i) * s_j rounds differently
        scaled = [
            [h00 * (s0 * s0), h01 * (s0 * s1), h02 * (s0 * s2)],
            [h10 * (s1 * s0), h11 * (s1 * s1), h12 * (s1 * s2)],
            [h20 * (s2 * s0), h21 * (s2 * s1), h22 * (s2 * s2)],
        ]
        evals, evecs = np.linalg.eigh(np.array(scaled))
        z0, z1, z2 = map(abs, evals.tolist())
        floor = 1e-12 * max(z0, z1, z2)
        q0, q1, q2 = (evecs.T @ np.array([s0 * g0, s1 * g1, s2 * g2])).tolist()
        b0, b1, b2 = (evecs @ np.array([q0 / max(z0, floor), q1 / max(z1, floor), q2 / max(z2, floor)])).tolist()
        step = (-s0 * b0, -s1 * b1, -s2 * b2)
        decrement = -(np.array(grad) @ np.array(step))
        # Quadratic convergence shrinks the decrement every step; once it
        # stops shrinking below 1e-12 it is rounding noise.
        if not decrement > 1e-24 or (decrement < 1e-12 and decrement >= last_decrement):
            break
        last_decrement = decrement
        (l1, l2, t), (d1, d2, d3) = v, step
        length = 1.0
        while length > 1e-12:
            trial = (l1 + length * d1, l2 + length * d2, t + length * d3)
            trial_value, trial_grad, trial_hess = _x_objective(trial, pops, r)
            # Below 1e-12 the decrease is lost in rounding; accept any feasible step.
            if trial_value <= value - 0.25 * length * decrement or (decrement < 1e-12 and trial_grad is not None):
                break
            length /= 2
        else:
            break
        v, value, grad, hess = trial, trial_value, trial_grad, trial_hess
    return v, steps


def _x_product_max(g00: float, g01: float, g10: float, g11: float, w: float) -> float:
    """Certified max of <ab|G|ab> over product states for X-shaped G.

    With t = |<0|b>|^2 the best a gives the top eigenvalue of
    M(t) = [[g01 + t(g00 - g01), w sqrt(t(1-t))], [w sqrt(t(1-t)), g11 + t(g10 - g11)]],
    where w = |G_03|. A number mu bounds it on all of [0, 1] iff mu - M(t) is
    PSD for every t: its diagonal is linear in t and its determinant a
    quadratic, so the test is exact. Bisection on mu returns the smallest
    mu that passes, to the last bit.
    """
    a1, b1, ww = g00 - g01, g10 - g11, w * w
    c2 = a1 * b1 + ww
    lo = max(g00, g01, g10, g11)  # attained at b = |0> or |1>
    hi = lo + w / 2
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        u, v = mid - g01, mid - g11
        c1, c0 = -(u * b1 + v * a1 + ww), u * v
        bounds = not (
            min(u, u - a1, v, v - b1) < 0
            or min(c0, c0 + c1 + c2) < 0
            or (c2 > 0 and 0 < -c1 < 2 * c2 and c0 - c1 * c1 / (4 * c2) < 0)
        )
        lo, hi = (lo, mid) if bounds else (mid, hi)
    return hi


def _x_certificate(a: float, b: float, c: float, d: float, x: float, phase: float) -> SeparableAnsatz:
    """Product decomposition of sigma = diag(a, b, c, d) + x e^{i phase}|00><11| + h.c.

    One product state with populations (a, b, x^2/b, x^2/a), whose |00><11|
    and |01><10| coherences both have modulus x, is twirled over
    diag(1, e^{it}) (x) diag(1, e^{-it}) at t = 0, 2pi/3, 4pi/3: the average
    keeps the |00><11| coherence x e^{i phase} and cancels every other one.
    What is left of c and d goes on |10> and |11>: at most 5 atoms.
    """
    weights: list[float] = []
    atoms: list[tuple[tuple[float, float], tuple[float, float]]] = []
    rest = [a, b, c, d]
    x = min(x, math.sqrt(a * d), math.sqrt(b * c))
    if x > 0:
        piece = [a, b, x * x / b, x * x / a]
        total = sum(piece)
        theta_a = 2 * math.acos(min(1.0, math.sqrt((piece[0] + piece[1]) / total)))
        theta_b = 2 * math.acos(min(1.0, math.sqrt((piece[0] + piece[2]) / total)))
        for t in _TWIRL_ANGLES:
            weights.append(total / 3)
            atoms.append(((theta_a, t - phase), (theta_b, -t)))
        rest = [p - q for p, q in zip(rest, piece)]
    for w, atom in zip(rest, _BASIS_ATOMS):
        if w > 0:
            weights.append(w)
            atoms.append(atom)
    total = sum(weights)
    return SeparableAnsatz(tuple(w / total for w in weights), tuple(atoms))


def _er_x_state(rho: DensityMatrix) -> ERResult:
    """Certified interval for an exact X state (0 outside the X pattern); see the reduction notes above."""
    m = rho.matrix
    # The clamp only matters within the PSD tolerance of DensityMatrix. max(0.0, p), not
    # max(p, 0.0), so that a -0.0 population reads 0.0.
    pops = [max(0.0, p) for p in m.diagonal().real.tolist()]
    # np.arctan2, not math.atan2: the two differ in the last bit on about 7% of random phases.
    coherence = m[0, 3]
    r, phase = min(float(abs(coherence)), math.sqrt(pops[0] * pops[3])), float(np.arctan2(coherence.imag, coherence.real))
    if r * r <= pops[1] * pops[2]:
        # PPT, so separable: sigma = rho, and E_R >= 0 closes the interval.
        certificate = _x_certificate(*pops, r, phase)
        return _frank_wolfe_interval(rho, certificate, certificate.assemble(), 0, math.inf)

    steps = 0
    if pops[1] == pops[2] == 0:
        # Support on span{|00>, |11>}: the optimum has x = 0, the dephased state.
        (l1, l2, t), b, c = (math.log(pops[0]), math.log(pops[3]), 0.0), 0.0, 0.0
    else:
        (l1, l2, t), steps = _x_newton(pops, r)
        b, c = _flanks((math.exp(l1) - math.exp(l2)) * math.sin(2 * t) / 2, pops[1], pops[2])
    total = math.exp(l1) + math.exp(l2) + b + c  # 1 up to rounding at the optimum
    l1, l2, b, c = l1 - math.log(total), l2 - math.log(total), b / total, c / total
    e1, e2, cos, sin = math.exp(l1), math.exp(l2), math.cos(t), math.sin(t)
    a, d, x = e1 * cos * cos + e2 * sin * sin, e1 * sin * sin + e2 * cos * cos, (e1 - e2) * sin * cos
    certificate = _x_certificate(a, b, c, d, x, phase)

    # G = D ln(sigma)[rho] for the Frank-Wolfe bound, taken at the X state the
    # certificate assembles to within rounding.
    (g00, g01), (_, g11) = _coherence_gradient(l1, l2, t, pops, r).tolist()
    # A subnormal flank population can leave its certificate flank at 0.
    ratios = [(p / f if f else math.inf) if p else 0.0 for p, f in ((pops[1], b), (pops[2], c))]
    # A subnormal eigenvalue of sigma overflows G; no finite bound exists then.
    entries = (g00, *ratios, g11, abs(g01))
    top = _x_product_max(*entries) if all(map(math.isfinite, entries)) else math.inf  # inf keeps only E_R >= 0
    return _frank_wolfe_interval(rho, certificate, certificate.assemble(), steps, top)
