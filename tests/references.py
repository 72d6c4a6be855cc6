"""Test references and paper-identity checks that no CLI command runs.

Closed-form and symbolic jets of the zoo's defining and distance functions,
centred finite-difference jets of black-box functions (their stencil, nodes
and Richardson assembly), the criterion's terms at one boundary point, the
compatibility and transversal-field identity residuals, the residual
sequence, synthetic 1-form sources and loop reparametrisations.
The tests compare the package against these.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from dfindex.cohomology import PathInSigma
from dfindex.certify import PsiStencil
from dfindex.distance import BoundaryPoint, delta_jet, foot_points, normal_n
from dfindex.errors import ChartMismatch, HypothesisFail, NonFinite, \
    NotDegenerate, OrderTooLow
from dfindex.jets import WirtingerJet, third_contraction
from dfindex.levi import levi_matrix
from dfindex.sigma import SigmaChart, _snap, h_field, nu_pairings
from dfindex.util import complex_pack, complex_unpack


# ---------------------------------------------------------------------------
# closed-form and symbolic jets
# ---------------------------------------------------------------------------

_ORACLE_CACHE: dict = {}


def _expression(entry, sp, syms):
    """The entry's defining function as a sympy expression."""
    x1, y1, x2, y2 = syms
    meta = entry.domain.meta
    if entry.id == "bidisc":
        r, M = meta["r"], meta["M"]
        s = x1 ** 2 + y1 ** 2 - r ** 2
        chi = sp.Piecewise((M * s ** 4, s > 0), (0, True))
        return x2 ** 2 + y2 ** 2 - 1 + chi
    if entry.id == "worm":
        a, M = meta["a"], meta["M"]
        u = sp.log(x2 ** 2 + y2 ** 2)
        core = (x1 + sp.cos(u)) ** 2 + (y1 + sp.sin(u)) ** 2 - 1
        sm = sp.Piecewise((M * (u - a) ** 4, u > a), (0, True)) + \
            sp.Piecewise((M * (-u - a) ** 4, u < -a), (0, True))
        return core + sm
    if entry.id == "quartic_circle":
        return (x1 ** 2 + y1 ** 2) ** 2 + x2 ** 2 + y2 ** 2 - 1
    raise ValueError(f"no symbolic expression for {entry.id!r}")


def _lambdify_jets(entry):
    import sympy as sp

    syms = sp.symbols("x1 y1 x2 y2", real=True)
    expr = _expression(entry, sp, syms)
    D = len(syms)
    val = sp.lambdify(syms, expr, "numpy")
    grads = [sp.lambdify(syms, sp.diff(expr, s), "numpy") for s in syms]
    hess = [[sp.lambdify(syms, sp.diff(expr, a, b), "numpy") for b in syms]
            for a in syms]
    third = {}
    for a in range(D):
        for b in range(a, D):
            for c in range(b, D):
                third[(a, b, c)] = sp.lambdify(
                    syms, sp.diff(expr, syms[a], syms[b], syms[c]), "numpy")

    def oracle(P, order=3):
        P = np.atleast_2d(np.asarray(P, dtype=float))
        args = [P[:, a] for a in range(D)]
        B = P.shape[0]

        def ev(fn):
            out = np.asarray(fn(*args), dtype=float)
            return np.broadcast_to(out, (B,)).astype(float)

        v = ev(val)
        g = np.stack([ev(fn) for fn in grads], axis=1)
        h = None
        t = None
        if order >= 2:
            h = np.empty((B, D, D))
            for a in range(D):
                for b in range(D):
                    h[:, a, b] = ev(hess[a][b])
        if order >= 3:
            t = np.empty((B, D, D, D))
            for a in range(D):
                for b in range(D):
                    for c in range(D):
                        t[:, a, b, c] = ev(third[tuple(sorted((a, b, c)))])
        return WirtingerJet(v, g, h, t)

    return oracle


def oracle_jet(entry, P, order=3):
    """Real jets of the entry's defining function from an independent route:
    written out for the ball; otherwise sympy derivatives, imported and
    lambdified on the first call for the entry's parameters and cached."""
    P = np.atleast_2d(np.asarray(P, dtype=float))
    if entry.id == "ball":
        B, D = P.shape
        r2 = entry.domain.meta["radius"] ** 2
        v = np.einsum("ka,ka->k", P, P) - r2
        h = np.broadcast_to(2.0 * np.eye(D), (B, D, D)).copy()
        t = np.zeros((B, D, D, D)) if order >= 3 else None
        return WirtingerJet(v, 2.0 * P, h if order >= 2 else None, t)
    meta = entry.domain.meta
    key = (entry.id, meta.get("r"), meta.get("a"), meta.get("M"))
    if key not in _ORACLE_CACHE:
        _ORACLE_CACHE[key] = _lambdify_jets(entry)
    return _ORACLE_CACHE[key](P, order)


def ball_delta_jet(P, radius=1.0, order=3):
    """Closed-form jets of the ball's signed distance |x| - r."""
    P = np.atleast_2d(np.asarray(P, dtype=float))
    B, D = P.shape
    r = np.linalg.norm(P, axis=1)
    v = r - radius
    g = P / r[:, None]
    eye = np.eye(D)
    h = eye[None] / r[:, None, None] \
        - np.einsum("ka,kb->kab", P, P) / r[:, None, None] ** 3
    t = None
    if order >= 3:
        t = np.zeros((B, D, D, D))
        t -= (np.einsum("ab,kc->kabc", eye, P)
              + np.einsum("ac,kb->kabc", eye, P)
              + np.einsum("bc,ka->kabc", eye, P)) / r[:, None, None, None] ** 3
        t += 3.0 * np.einsum("ka,kb,kc->kabc", P, P, P) \
            / r[:, None, None, None] ** 5
    return WirtingerJet(v, g, h if order >= 2 else None, t)


# ---------------------------------------------------------------------------
# centred finite differences with one Richardson level
# ---------------------------------------------------------------------------

_STENCIL_CACHE: dict = {}


def _stencil(D, order):
    key = (D, order)
    if key in _STENCIL_CACHE:
        return _STENCIL_CACHE[key]
    offsets = [np.zeros(D)]
    index = {tuple(np.zeros(D)): 0}

    def add(v):
        t = tuple(v)
        if t not in index:
            index[t] = len(offsets)
            offsets.append(np.array(v, dtype=float))
        return index[t]

    for a in range(D):
        for s in (+1, -1):
            v = np.zeros(D)
            v[a] = s
            add(v)
    if order >= 2:
        for a in range(D):
            for b in range(a + 1, D):
                for sa in (+1, -1):
                    for sb in (+1, -1):
                        v = np.zeros(D)
                        v[a], v[b] = sa, sb
                        add(v)
    if order >= 3:
        for a in range(D):
            for s in (+2, -2):
                v = np.zeros(D)
                v[a] = s
                add(v)
        for a in range(D):
            for b in range(a + 1, D):
                for c in range(b + 1, D):
                    for sa in (+1, -1):
                        for sb in (+1, -1):
                            for sc in (+1, -1):
                                v = np.zeros(D)
                                v[a], v[b], v[c] = sa, sb, sc
                                add(v)
    O = np.stack(offsets)
    _STENCIL_CACHE[key] = (O, index)
    return O, index


def _fd_index(D, order):
    """Offset -> stencil column lookup used to assemble derivatives."""
    _, index = _stencil(D, order)

    def idx(comps):
        v = np.zeros(D)
        for a, s in comps.items():
            v[a] = s
        return index[tuple(v)]

    return idx


# third derivatives are differenced at THIRD_STEP_FACTOR x the step: their
# difference quotients amplify value noise by 1/h^3
THIRD_STEP_FACTOR = 2.5


def _fd_steps(order, h, richardson):
    """Steps of the difference stencils: h (and h/2), then for order 3 the
    third-derivative step (and its half)."""
    steps = [h, h / 2] if richardson else [h]
    if order >= 3:
        h3 = h * THIRD_STEP_FACTOR
        steps += [h3, h3 / 2] if richardson else [h3]
    return steps


def fd_nodes(P, order, h, richardson=True):
    """Centred difference nodes around points P (B, D): an array
    (steps, B, S, D) of S offsets at each step of _fd_steps."""
    P = np.atleast_2d(np.asarray(P, dtype=float))
    O, _ = _stencil(P.shape[1], order)
    return np.stack([P[:, None, :] + step * O[None, :, :]
                     for step in _fd_steps(order, h, richardson)])


def fd_jet(V, D, order, h, richardson=True):
    """Finite-difference jets in R^D from the values V (steps, B, S) of a
    function at fd_nodes(P, order, h, richardson).  Gradient/Hessian use
    step h; third derivatives use h * THIRD_STEP_FACTOR.  One Richardson
    level (h and h/2) is applied to every entry.
    """
    V = np.asarray(V, dtype=float)
    if not np.all(np.isfinite(V)):
        raise NonFinite("non-finite value in finite-difference stencil")
    B = V.shape[1]
    idx = _fd_index(D, order)
    steps = _fd_steps(order, h, richardson)

    def derive(V, step, do_gh=True, do_t=True):
        g = np.zeros((B, D)) if do_gh else None
        hs = np.zeros((B, D, D)) if (do_gh and order >= 2) else None
        t = np.zeros((B, D, D, D)) if (do_t and order >= 3) else None
        f0 = V[:, 0]
        if do_gh:
            for a in range(D):
                fp = V[:, idx({a: +1})]
                fm = V[:, idx({a: -1})]
                g[:, a] = (fp - fm) / (2 * step)
                if order >= 2:
                    hs[:, a, a] = (fp - 2 * f0 + fm) / step ** 2
        if do_gh and order >= 2:
            for a in range(D):
                for b in range(a + 1, D):
                    fpp = V[:, idx({a: +1, b: +1})]
                    fpm = V[:, idx({a: +1, b: -1})]
                    fmp = V[:, idx({a: -1, b: +1})]
                    fmm = V[:, idx({a: -1, b: -1})]
                    val = (fpp - fpm - fmp + fmm) / (4 * step ** 2)
                    hs[:, a, b] = val
                    hs[:, b, a] = val
        if do_t and order >= 3:
            for a in range(D):
                f2p = V[:, idx({a: +2})]
                f2m = V[:, idx({a: -2})]
                fp = V[:, idx({a: +1})]
                fm = V[:, idx({a: -1})]
                t[:, a, a, a] = (f2p - 2 * fp + 2 * fm - f2m) / (2 * step ** 3)
            for a in range(D):
                for b in range(D):
                    if a == b:
                        continue
                    fpp = V[:, idx({a: +1, b: +1})]
                    fmp = V[:, idx({a: -1, b: +1})]
                    fpm = V[:, idx({a: +1, b: -1})]
                    fmm = V[:, idx({a: -1, b: -1})]
                    fbp = V[:, idx({b: +1})]
                    fbm = V[:, idx({b: -1})]
                    val = (fpp - 2 * fbp + fmp - fpm + 2 * fbm - fmm) \
                        / (2 * step ** 3)
                    # d^2/da^2 d/db
                    t[:, a, a, b] = val
                    t[:, a, b, a] = val
                    t[:, b, a, a] = val
            for a in range(D):
                for b in range(a + 1, D):
                    for c in range(b + 1, D):
                        acc = np.zeros(B)
                        for sa in (+1, -1):
                            for sb in (+1, -1):
                                for sc in (+1, -1):
                                    acc += sa * sb * sc * \
                                        V[:, idx({a: sa, b: sb, c: sc})]
                        val = acc / (8 * step ** 3)
                        for perm in ((a, b, c), (a, c, b), (b, a, c),
                                     (b, c, a), (c, a, b), (c, b, a)):
                            t[:, perm[0], perm[1], perm[2]] = val
        return g, hs, t

    f0 = V[0][:, 0]
    g_out, h_out, _ = derive(V[0], steps[0], do_t=False)
    if richardson:
        g2, h2, _ = derive(V[1], steps[1], do_t=False)
        g_out = (4 * g2 - g_out) / 3
        if order >= 2:
            h_out = (4 * h2 - h_out) / 3
    t = None
    if order >= 3:
        k = len(steps) // 2
        _, _, t = derive(V[k], steps[k], do_gh=False)
        if richardson:
            _, _, tb = derive(V[k + 1], steps[k + 1], do_gh=False)
            t = (4 * tb - t) / 3
    return WirtingerJet(f0, g_out, h_out, t)


def numeric_jet(fbatch, P, order, h, richardson=True):
    """Finite-difference jets of a black-box batch scalar function
    fbatch: (K, D) -> (K,), called once per step on that step's nodes."""
    nodes = fd_nodes(P, order, h, richardson)
    D = nodes.shape[-1]
    V = [np.reshape(fbatch(n.reshape(-1, D)), n.shape[:-1]) for n in nodes]
    return fd_jet(V, D, order, h, richardson)


def measured_orders(residuals, floor=0.0):
    """Convergence orders log2(r_k / r_{k+1}) for a halving refinement sequence.

    Pairs where either residual is below `floor` are treated as converged and
    reported as +inf (the quantity is at the noise floor, not divergent).
    """
    r = np.asarray(residuals, dtype=float)
    out = []
    for a, b in zip(r[:-1], r[1:]):
        if a <= floor or b <= floor:
            out.append(np.inf)
        else:
            out.append(math.log2(a / b))
    return np.array(out)


# ---------------------------------------------------------------------------
# Levi form and criterion terms at one boundary point
# ---------------------------------------------------------------------------

def hess(jet: WirtingerJet, A, B):
    """Hermitian-slot Hessian pairing on (1,0) vectors: sum A_i conj(B_j) H_ij,
    with A and B per point (B, n) or shared (n,)."""
    H = jet.mixed
    A = np.broadcast_to(np.asarray(A, dtype=complex), H.shape[:2])
    B = np.broadcast_to(np.asarray(B, dtype=complex), H.shape[:2])
    return np.einsum("kij,ki,kj->k", H, A, np.conj(B))


@dataclass
class LeviDecomposition:
    """Tangent frame, restricted Levi matrix and its spectrum at one point."""

    frame: np.ndarray        # (n-1, n) rows are the tangent frame vectors
    levi: np.ndarray         # (n-1, n-1) Hermitian
    eigenvalues: np.ndarray  # ascending
    eigenvectors: np.ndarray
    null_direction: np.ndarray  # (n,) tangent vector attaining lambda_min

    @property
    def lambda_min(self):
        return float(self.eigenvalues[0])

    def directions(self, k=None):
        """Tangent directions for the k smallest eigenvalues (default all)."""
        k = self.eigenvalues.shape[0] if k is None else k
        return np.einsum("ak,an->kn", self.eigenvectors[:, :k], self.frame)


def levi_decompose(bp: BoundaryPoint) -> LeviDecomposition:
    M, frames = levi_matrix(bp.jet, bp.N[None])
    w, V = np.linalg.eigh(M)
    frame = frames[0]
    null = np.einsum("a,an->n", V[0][:, 0], frame)
    return LeviDecomposition(frame=frame, levi=M[0], eigenvalues=w[0],
                             eigenvectors=V[0], null_direction=null)


def mixed_term(bp: BoundaryPoint, L) -> complex:
    """Hess_delta(N, L) by jet contraction."""
    return complex(hess(bp.jet, bp.N, np.asarray(L, dtype=complex))[0])


def third_term(bp: BoundaryPoint, L) -> complex:
    """Pure third-derivative contraction along (L, N, conj L)."""
    if bp.jet.order < 3:
        raise OrderTooLow("third_term needs an order-3 delta-jet")
    return complex(third_contraction(bp.jet, L, bp.N, L)[0])


def third_term_field(bp: BoundaryPoint, L) -> complex:
    """Third-order term with the normal field's coefficient transport.

    The normal field has coefficients 2*conj(d delta/dz); differentiating it
    along L adds 2*||H conj(L)||^2 to the pure contraction (H the ambient
    mixed Hessian of delta).  This is the covariant value the boundary
    inequality uses.
    """
    L = np.asarray(L, dtype=complex)
    H = bp.jet.mixed[0]
    col = H @ np.conj(L)
    return third_term(bp, L) + 2.0 * float(np.vdot(col, col).real)


def null_cross_residual(bp: BoundaryPoint, L, frame, threshold) -> float:
    """max_j |Hess_delta(L, T_j)| over the frame vectors orthogonal to the
    null direction L; must vanish at degenerate points.
    """
    L = np.asarray(L, dtype=complex)
    lev = abs(complex(hess(bp.jet, L, L)[0]))
    if lev > threshold:
        raise NotDegenerate(
            f"Levi value {lev:.3e} above threshold {threshold:.3e}")
    frame = np.atleast_2d(np.asarray(frame, dtype=complex))
    vals = []
    for T in frame:
        overlap = abs(complex(np.vdot(L, T)))
        if overlap > 1.0 - 1e-8:
            continue
        vals.append(abs(complex(hess(bp.jet, L, T)[0])))
    return max(vals) if vals else 0.0


# ---------------------------------------------------------------------------
# chart and 1-form identities
# ---------------------------------------------------------------------------

def holomorphy_defect(chart: SigmaChart, U):
    """max |xi(Y_j) - i xi(X_j)| over the grid; zero for holomorphic
    embeddings."""
    if chart.kind != "complex":
        raise ChartMismatch("holomorphy defect needs a complex chart")
    U = np.atleast_2d(np.asarray(U, dtype=float))
    he = 1e-6 * float(np.max(chart.hi - chart.lo))
    worst = 0.0
    for j in range(chart.m):
        dx = np.zeros_like(U)
        dx[:, 2 * j] = he
        dy = np.zeros_like(U)
        dy[:, 2 * j + 1] = he
        xx = complex_pack((chart.embed_batch(U + dx)
                           - chart.embed_batch(U - dx)) / (2 * he))
        yy = complex_pack((chart.embed_batch(U + dy)
                           - chart.embed_batch(U - dy)) / (2 * he))
        worst = max(worst, float(np.max(np.abs(yy - 1j * xx))))
    return worst


def _chart_wirtinger_derivs(chart, U, fn, h):
    """(d/dz_j F, d/dzbar_j F) of a chart field by centered differences.

    F = fn(U) must return (K, m) complex samples; derivatives for every
    chart coordinate j, giving (K, m_coords, m_fields) arrays.
    """
    U = np.atleast_2d(np.asarray(U, dtype=float))
    K, p = U.shape
    m = chart.m
    stack = []
    for j in range(m):
        for a, step in ((2 * j, h), (2 * j + 1, h)):
            dU = np.zeros_like(U)
            dU[:, a] = step
            stack.append(U + dU)
            stack.append(U - dU)
    allU = np.concatenate(stack, axis=0)
    chart.require_inside(allU)
    allF = fn(allU)
    m_fields = allF.shape[1]
    blocks = allF.reshape(2 * m, 2, K, m_fields)
    dzs = np.empty((K, m, m_fields), dtype=complex)
    dzbars = np.empty((K, m, m_fields), dtype=complex)
    for j in range(m):
        Dx = (blocks[2 * j, 0] - blocks[2 * j, 1]) / (2 * h)
        Dy = (blocks[2 * j + 1, 0] - blocks[2 * j + 1, 1]) / (2 * h)
        dzs[:, j, :] = 0.5 * (Dx - 1j * Dy)
        dzbars[:, j, :] = 0.5 * (Dx + 1j * Dy)
    return dzs, dzbars


def chart_compat_residuals(chart: SigmaChart, u, h):
    """Residuals of the two normal-Hessian compatibility identities.

    Identity one: d/dz_j h_i = conj(d/dz_i h_j); identity two:
    d/dzbar_j h_i = d/dzbar_i h_j.  Both vanish on the degenerate set; the
    centered differences converge at second order.
    """
    if chart.kind != "complex":
        raise ChartMismatch("compatibility residuals need a complex chart")
    U = np.atleast_2d(np.asarray(u, dtype=float))
    dz, dzb = _chart_wirtinger_derivs(chart, U, lambda V: h_field(chart, V), h)
    r1 = np.abs(dz - np.conj(np.swapaxes(dz, 1, 2)))
    r2 = np.abs(dzb - np.swapaxes(dzb, 1, 2))
    r1 = r1.reshape(U.shape[0], -1).max(axis=1)
    r2 = r2.reshape(U.shape[0], -1).max(axis=1)
    if np.asarray(u).ndim == 1:
        return float(r1[0]), float(r2[0])
    return r1, r2


def wirtinger_compat_residual(h_samples, step):
    """Maximum residual of the complex compatibility identities for gridded
    fields h_j, j = 1..m, sampled on a uniform grid over (x1, y1, ..., ym).

    h_samples: complex array of shape (G1, ..., G2m, m).
    """
    h = np.asarray(h_samples, dtype=complex)
    m = h.shape[-1]
    grads_z = []
    grads_zb = []
    interior = tuple(slice(1, -1) for _ in range(2 * m))
    for j in range(m):
        Dx = np.gradient(h, step, axis=2 * j)
        Dy = np.gradient(h, step, axis=2 * j + 1)
        grads_z.append((0.5 * (Dx - 1j * Dy))[interior])
        grads_zb.append((0.5 * (Dx + 1j * Dy))[interior])
    worst = 0.0
    for i in range(m):
        for j in range(m):
            worst = max(worst, float(np.max(np.abs(
                grads_zb[i][..., j] - grads_zb[j][..., i]))))
            worst = max(worst, float(np.max(np.abs(
                grads_z[i][..., j] - np.conj(grads_z[j][..., i])))))
    return worst


def nu_identity_residuals(chart: SigmaChart, u, h, strict=True,
                          null_tol=None):
    """Residuals of the three transversal-field identities at chart point u.

    r1, r2: pointwise identities Re/Im h_j = (1/4) g(nabla_nu nu, X_j / Y_j);
    r3: the derivative identity, discretized with chart steps along X_j and
    ambient collar steps along the J-companion Y_j (which may leave the
    boundary; the collar fields stay defined).

    strict=True raises HypothesisFail when the complexified x-direction is
    not Levi-null within null_tol (the identity set r1/r2 holds regardless;
    r3 discretizes the closedness statement that needs the hypothesis).
    """
    U = np.atleast_2d(np.asarray(u, dtype=float))
    dom = chart.domain
    P = _snap(chart, U)
    jet = delta_jet(dom, P, order=2)
    N = normal_n(jet)
    xi = chart.tangents(U)          # (K, m, n)
    levi = np.einsum("kij,kmi,kmj->km", jet.mixed, xi, np.conj(xi)).real
    if null_tol is None:
        null_tol = 1e-3 * float(np.max(np.abs(jet.mixed)))
    if strict and np.any(np.abs(levi) > null_tol):
        raise HypothesisFail(
            f"Levi form on the complexified chart direction reaches "
            f"{float(np.max(np.abs(levi))):.3e} (tol {null_tol:.3e})")
    hvals = np.einsum("kij,ki,kmj->km", jet.mixed, N, np.conj(xi))
    gx, gy = nu_pairings(jet, xi)
    r1 = np.abs(hvals.real - 0.25 * gx).max(axis=1)
    r2 = np.abs(hvals.imag - 0.25 * gy).max(axis=1)

    # r3: Re(d/dz_j h_j) vs (1/8)(D_X g(.,X_j) + D_Y g(.,Y_j))
    K, m, n = xi.shape
    r3 = np.zeros(K)
    ha = 1e-3 * dom.scale
    for j in range(m):
        if chart.kind == "complex":
            dUx = np.zeros_like(U)
            dUx[:, 2 * j] = h
            dUy = np.zeros_like(U)
            dUy[:, 2 * j + 1] = h
            hxp, gxp, _ = _h_and_g(chart, U + dUx, j)
            hxm, gxm, _ = _h_and_g(chart, U - dUx, j)
            hyp, _, gyp = _h_and_g(chart, U + dUy, j)
            hym, _, gym = _h_and_g(chart, U - dUy, j)
            Dx_h = (hxp - hxm) / (2 * h)
            Dy_h = (hyp - hym) / (2 * h)
            Dx_gx = (gxp - gxm) / (2 * h)
            Dy_gy = (gyp - gym) / (2 * h)
        else:
            dUx = np.zeros_like(U)
            dUx[:, j] = h
            hxp, gxp, _ = _h_and_g(chart, U + dUx, j)
            hxm, gxm, _ = _h_and_g(chart, U - dUx, j)
            Dx_h = (hxp - hxm) / (2 * h)
            Dx_gx = (gxp - gxm) / (2 * h)
            # ambient straight-line steps along the J-companion
            Yreal = complex_unpack(1j * xi[:, j, :])
            nrm = np.linalg.norm(Yreal, axis=1, keepdims=True)
            Yhat = Yreal / np.maximum(nrm, 1e-300)
            hyp, _, gyp = _h_and_g_ambient(chart, P + ha * Yhat, xi[:, j, :])
            hym, _, gym = _h_and_g_ambient(chart, P - ha * Yhat, xi[:, j, :])
            rate = nrm[:, 0] / (2.0 * ha)
            Dy_h = (hyp - hym) * rate
            Dy_gy = (gyp - gym) * rate
        dz_h = 0.5 * (Dx_h - 1j * Dy_h)
        rhs = 0.125 * (Dx_gx + Dy_gy)
        r3 = np.maximum(r3, np.abs(dz_h.real - rhs))
    if np.asarray(u).ndim == 1:
        return float(r1[0]), float(r2[0]), float(r3[0])
    return r1, r2, r3


def _h_and_g(chart, U, j):
    """(h_j, g(.,X_j), g(.,Y_j)) at chart parameters U for direction j."""
    dom = chart.domain
    P = _snap(chart, U)
    jet = delta_jet(dom, P, order=2)
    N = normal_n(jet)
    xi = chart.tangents(U)[:, j, :]
    hj = np.einsum("kij,ki,kj->k", jet.mixed, N, np.conj(xi))
    gx, gy = nu_pairings(jet, xi)
    return hj, gx, gy


def _h_and_g_ambient(chart, P, xi_frozen):
    """Collar fields evaluated at ambient points with a frozen direction."""
    dom = chart.domain
    jet = delta_jet(dom, P, order=2)
    N = normal_n(jet)
    hj = np.einsum("kij,ki,kj->k", jet.mixed, N, np.conj(xi_frozen))
    gx, gy = nu_pairings(jet, xi_frozen)
    return hj, gx, gy


# ---------------------------------------------------------------------------
# residual sequence
# ---------------------------------------------------------------------------

def residual_sequence(domain, chart: SigmaChart, inner_frac, etas,
                      psi_producer, res=17):
    """L1 integrals of |(1/2) Lbar psi_n + Hess_delta(N, L)| over a fixed
    compact sub-box of the chart, for the family psi_n = psi_producer(eta_n).

    Constant shifts of psi leave every residual unchanged (the family need
    not converge pointwise); the report carries the integrals only.
    """
    lo = chart.lo + (1 - inner_frac) / 2 * (chart.hi - chart.lo)
    hi = chart.hi - (1 - inner_frac) / 2 * (chart.hi - chart.lo)
    sub = SigmaChart(domain=chart.domain, kind=chart.kind, m=chart.m,
                     lo=lo, hi=hi, embed=chart.embed, tangent=chart.tangent,
                     leaf_label=chart.leaf_label, name=chart.name + "_inner")
    U, shape = sub.grid(res)
    P = sub.embed_batch(U)
    feet, _ = foot_points(domain, P, ambiguity_check=False)
    h = h_field(sub, U)[:, 0]
    Ls = sub.tangents(U)[:, 0, :]
    nrm = np.sqrt(np.einsum("kj,kj->k", Ls, np.conj(Ls)).real)
    Ls = Ls / nrm[:, None]
    h = h / nrm
    stencil = PsiStencil(domain, feet)

    # Simpson weights over the sub-box
    wts = np.ones(shape[0])
    wts[1:-1:2] = 4.0
    wts[2:-1:2] = 2.0
    w2 = np.outer(wts, wts).ravel() if len(shape) == 2 else wts
    cell = np.prod((hi - lo) / (np.array(shape) - 1)) / (3.0 ** len(shape))

    out = []
    for eta in etas:
        _, wpsi, _ = stencil.differences(psi_producer(eta))
        lbar = np.conj(np.einsum("kj,kj->k", Ls, wpsi))
        integrand = np.abs(0.5 * lbar + h)
        out.append(float(np.dot(w2, integrand) * cell))
    return out


# ---------------------------------------------------------------------------
# synthetic 1-form sources and loop reparametrisations
# ---------------------------------------------------------------------------

@dataclass
class FuncSource:
    """Synthetic 1-form given by a components callable (K,p)->(K,p)."""

    chart: SigmaChart
    fn: Callable

    def components(self, U):
        return np.atleast_2d(self.fn(np.atleast_2d(U)))


@dataclass
class HFieldSource:
    """Synthetic complex h-field; components per the 1-form construction."""

    chart: SigmaChart
    hfn: Callable    # (K,p) -> (K, m) complex

    def components(self, U):
        h = np.atleast_2d(self.hfn(np.atleast_2d(U)))
        K, m = h.shape
        comps = np.empty((K, 2 * m))
        comps[:, 0::2] = h.real
        comps[:, 1::2] = h.imag
        return comps

    def h(self, U):
        return np.atleast_2d(self.hfn(np.atleast_2d(U)))


def reversed_path(path: PathInSigma) -> PathInSigma:
    return PathInSigma(path.params[::-1].copy(), path.closed, path.chart_name)


def rotated_path(path: PathInSigma, k, wrap_axis=None,
                 period=None) -> PathInSigma:
    """Basepoint rotation of a closed loop by k vertices.

    For loops that close through a periodic chart coordinate, pass the
    axis and its period so the rolled parameter list stays monotone.
    """
    if not path.closed:
        raise ValueError("rotation needs a closed path")
    pts = np.roll(path.params[:-1], -k, axis=0)
    if wrap_axis is None:
        pts = np.vstack([pts, pts[:1]])
    else:
        col = pts[:, wrap_axis].copy()
        for i in range(1, len(col)):
            while col[i] < col[i - 1] - 1e-12:
                col[i] += period
        pts = pts.copy()
        pts[:, wrap_axis] = col
        last = pts[:1].copy()
        last[0, wrap_axis] += period
        pts = np.vstack([pts, last])
    return PathInSigma(pts, True, path.chart_name)
