"""Numeric relative entropy of entanglement for qubit pairs: the solver behind :func:`entanglement.er_numeric`.

Every result is a certified interval [``lower``, ``value``]: ``value`` is
the relative entropy to an explicit separable certificate, ``lower`` the
Frank-Wolfe bound (Jaggi 2013) at that certificate with an exact
product-state maximum. There are two paths:

* X-state reduction, for inputs whose only coherence is between |00> and
  |11>. An exact X state (every damped, dephased or depolarized Bell pair
  the harness builds) is solved directly. An input within 1e-12 of that
  pattern is twirled onto it in its own frame, and an input a local unitary
  away from an X state (pre-rotated damped pairs, pure states) is rotated
  into that form and twirled. The optimum is itself an X state with closed-
  form flanks, so Newton steps run on the log-eigenvalues and angle of its
  {|00>, |11>} block; the certificate has at most 5 atoms. With flanks below
  about 1e-9, a quarter to a third of these intervals stay open.
* PPT barrier, for every other input and for an X state whose reduced
  interval does not close: separable equals PPT for two qubits, so Newton
  steps on log-det barriers solve the convex program directly, and the
  optimum splits into at most 4 product states (Wootters 1998).

:func:`entanglement.er_numeric` imports this module on its first call, so a
process that reads only closed forms never compiles it.
"""

from __future__ import annotations

import math

import numpy as np

from .entanglement import CERTIFIED_GAP, ERResult, SeparableAnsatz
from .qstate import PAULIS, DensityMatrix, relative_entropy


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
    return c + hi


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


def _er_ppt_barrier(rho: DensityMatrix) -> ERResult:
    """Certified interval for any qubit pair; see the barrier notes above."""
    sigma, steps = _ppt_newton(rho.matrix)
    certificate = _product_decomposition(sigma)
    assembled = certificate.assemble()
    top = _product_max(_log_gradient(rho.matrix, assembled.matrix))
    return _frank_wolfe_interval(rho, certificate, assembled, steps, top)


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
) -> tuple[float, np.ndarray | None, np.ndarray | None]:
    """Reduced objective (nats), gradient and Hessian in v = (l1, l2, t), from plain floats.

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
    grad = np.array([e1 - r1 + h_x * x0, e2 - r2 + h_x * x1, -(l1 - l2) * r1_t + h_x * x2])
    return value, grad, np.array([[h00, h01, h02], [h01, h11, h12], [h02, h12, h22]])


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
        (h00, h01, h02), (h10, h11, h12), (h20, h21, h22) = hess.tolist()
        g0, g1, g2 = grad.tolist()
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
        decrement = -(grad @ np.array(step))
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
# reduction notes above, which never raises E_R, so the twirled state's lower
# bound holds for the input.


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