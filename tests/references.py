"""Test references and paper-identity checks that no CLI command runs.

Closed-form and symbolic jets of the zoo's defining and distance functions,
the jet algebra on every coordinate (DenseJet) that jets with supports must
reproduce, centred finite-difference jets of black-box functions (their
stencil, nodes and Richardson assembly), tangent frames in C^n from an SVD
and the restricted Levi minimum from the defining function, the criterion's terms
at one boundary point (with the NotDegenerate error of the null-cross
residual), chart tangents by centred
differences of the embedding and the chart-box check of chart stencils, the
compatibility and transversal-field identity residuals, the residual
sequence, synthetic 1-forms, the spanning-tree potential without its
cycle check, loop reparametrisations, the one-path line integral, the
criterion on unscaled columns, the unmemoized coordinate descent and the
potential with one lattice and one polynomial model per leaf (the forms
that re-evaluate what the package shares), the projecting delta-jet and
boundary-point helpers, the general contraction of the third tensor
with (p, q) derivations, and the cutoff L2 bound on a disc patch (with the
HypothesisFail error of its screening and of the transversal-field
identities).
The tests compare the package against these.
"""

from __future__ import annotations

import contextlib
import itertools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
import pytest

from dfindex import cohomology
from dfindex.cohomology import PERIOD_TOL, POTENTIAL_FACTOR
from dfindex.certify import FD_STEP, PsiStencil, combine
from dfindex import distance
from dfindex.distance import (boundary_jet, normal_n,
                              signed_distance_from_feet)
from dfindex.errors import AmbiguousFoot, ChartGap, ChartMismatch, \
    DfIndexError, NoConvergence, NonFinite, OrderTooLow, StencilLeak
from dfindex.jets import (DomainSpec, Jet, WirtingerJet, _nadd, _nscale,
                          _outer_gg, _outer_ggg, _sym_gh, third_contraction)
from dfindex.sigma import SigmaChart, h_field, nu_pairings
from dfindex.util import complex_pack, complex_unpack, smoothstep_c3


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


class DenseJet(Jet):
    """The jet algebra on every coordinate: the package's Jet before jets
    carried supports, kept as the reference that the support must not
    change a bit of.  v: (B,); g: (B,D); h: (B,D,D); t: (B,D,D,D); missing
    blocks are None.  It subclasses Jet so that the zoo's jlog, jsin, jcos
    and jhinge_pow dispatch to its chain and ** to its product; it
    overrides every other operation and never reads idx."""

    __slots__ = ()

    def __init__(self, order, v, g=None, h=None, t=None):
        self.order = order
        self.v = np.asarray(v, dtype=float)
        self.g = g
        self.h = h
        self.t = t

    @staticmethod
    def variables(P, order):
        """Seed one DenseJet per coordinate of P (B, D)."""
        P = np.asarray(P, dtype=float)
        B, D = P.shape
        out = []
        for a in range(D):
            g = np.zeros((B, D))
            g[:, a] = 1.0
            out.append(DenseJet(order, P[:, a].copy(), g))
        return out

    def _coerce(self, other):
        if isinstance(other, DenseJet):
            return other
        v = np.asarray(other, dtype=float)
        if v.ndim == 0:
            v = np.full(self.v.shape, float(v))
        return DenseJet(self.order, v)

    def __add__(self, other):
        o = self._coerce(other)
        return DenseJet(self.order, self.v + o.v, _nadd(self.g, o.g),
                        _nadd(self.h, o.h), _nadd(self.t, o.t))

    __radd__ = __add__

    def __neg__(self):
        def neg(a):
            return None if a is None else -a
        return DenseJet(self.order, -self.v, neg(self.g), neg(self.h),
                        neg(self.t))

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __mul__(self, other):
        o = self._coerce(other)
        v = self.v * o.v
        g = _nadd(_nscale(o.g, self.v), _nscale(self.g, o.v))
        h = None
        t = None
        if self.order >= 2:
            h = _nadd(_nscale(o.h, self.v), _nscale(self.h, o.v))
            gg = _outer_gg(self.g, o.g)
            if gg is not None:
                sym = gg + np.swapaxes(gg, -1, -2)
                h = _nadd(h, sym)
        if self.order >= 3:
            t = _nadd(_nscale(o.t, self.v), _nscale(self.t, o.v))
            t = _nadd(t, _sym_gh(self.g, o.h))
            t = _nadd(t, _sym_gh(o.g, self.h))
        return DenseJet(self.order, v, g, h, t)

    __rmul__ = __mul__

    def chain(self, d0, d1, d2, d3):
        g = _nscale(self.g, d1)
        h = None
        t = None
        if self.order >= 2:
            h = _nadd(_nscale(self.h, d1),
                      _nscale(_outer_gg(self.g, self.g), d2))
        if self.order >= 3:
            t = _nadd(_nscale(self.t, d1),
                      _nscale(_sym_gh(self.g, self.h), d2))
            t = _nadd(t, _nscale(_outer_ggg(self.g), d3))
        return DenseJet(self.order, d0, g, h, t)


def dense_jet(domain, P, order):
    """(v, g, h, t) of the domain's defining function at points P (B, D)
    through DenseJet, zero blocks filled in as DomainSpec.jet fills them;
    h is None below order 2 and t below order 3."""
    P = np.atleast_2d(np.asarray(P, dtype=float))
    B, D = P.shape
    out = domain.rho(DenseJet.variables(P, order))
    g = out.g if out.g is not None else np.zeros((B, D))
    h = t = None
    if order >= 2:
        h = out.h if out.h is not None else np.zeros((B, D, D))
    if order >= 3:
        t = out.t if out.t is not None else np.zeros((B, D, D, D))
    return out.v, g, h, t


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


def ball_interior_points(ball, count, seed, depth):
    """Closed-form points of the ball below its boundary mesh: each mesh
    point P = radius v moved to (1 - d) P, at depth d x radius, with d
    drawn uniformly from the band depth.  They need no delta, so the band may
    reach past the collar, where the package's interior mesh raises."""
    d = np.random.default_rng(seed).uniform(depth[0], depth[1], count)
    return (1.0 - d)[:, None] * ball.boundary_mesh(count, seed)


# ---------------------------------------------------------------------------
# projected delta-jets and boundary points
# ---------------------------------------------------------------------------
# The CLI builds delta's jets at feet it already has (boundary points, and
# the feet that distance.march_inward verifies); these helpers project
# arbitrary points first.  They call distance.foot_points through the
# module, so that tests can replace it.

# smallest eigenvalue of I + delta W that delta_jet accepts: 0 at a focal
# point
FOCAL_FLOOR = 1e-8

def signed_distance(domain: DomainSpec, Z):
    """delta(Z): negative inside, positive outside, zero on the boundary."""
    Z = np.atleast_2d(np.asarray(Z, dtype=float))
    feet, _ = distance.foot_points(domain, Z)
    return signed_distance_from_feet(domain, Z, feet)


def delta_jet(domain: DomainSpec, z, order=2) -> WirtingerJet:
    """Jets of the signed distance at collar points z (single or batch):
    each point is projected once, and the jet is built at its foot.  Raises
    StencilLeak when |delta| exceeds the collar, the projection does not
    converge or finds two nearest feet (z on the cut locus), or z is at or
    past a focal point."""
    Z = np.atleast_2d(np.asarray(z, dtype=float))
    try:
        feet, _ = distance.foot_points(domain, Z)
    except (AmbiguousFoot, NoConvergence) as exc:
        raise StencilLeak(f"projection failed: {exc}") from exc
    d = signed_distance_from_feet(domain, Z, feet)
    wide = np.abs(d) > domain.collar_width
    if np.any(wide):
        raise StencilLeak(f"{int(wide.sum())} point(s) outside the collar")
    frame = distance._focal_frame(domain, feet, d, order)
    focal = frame[-1] <= FOCAL_FLOOR
    if np.any(focal):
        raise StencilLeak(f"{int(focal.sum())} point(s) at or past a focal "
                          "point of the boundary")
    return distance._delta_jet(frame, d)


@dataclass
class BoundaryPoint:
    """A boundary location with its delta-jet and normal data."""

    domain: DomainSpec
    position: np.ndarray
    jet: WirtingerJet
    N: np.ndarray
    grad_delta: np.ndarray


class BoundaryBatch:
    """Boundary points with their delta-jet and normal data, batched."""

    def __init__(self, domain, positions, jet):
        self.domain = domain
        self.positions = positions
        self.jet = jet
        self.N = normal_n(jet)
        self.grad_delta = jet.rgrad


def boundary_point(batch: BoundaryBatch, i) -> BoundaryPoint:
    """Point i of a boundary batch."""
    return BoundaryPoint(batch.domain, batch.positions[i],
                         batch.jet.subset([i]), batch.N[i],
                         batch.grad_delta[i])


def boundary_batch(domain: DomainSpec, Z, order=2) -> BoundaryBatch:
    """Project points to the boundary and attach delta-jets (vectorized)."""
    feet, _ = distance.foot_points(domain, Z)
    return BoundaryBatch(domain, feet, boundary_jet(domain, feet, order=order))


def project_to_boundary(domain: DomainSpec, z, order=2) -> BoundaryPoint:
    """Nearest boundary point of z, with delta-jet of the requested order."""
    return boundary_point(boundary_batch(domain, np.atleast_2d(z),
                                         order=order), 0)


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


def derivation_coeff(d, D):
    """Real-coordinate coefficients (..., D) of the derivation
    sum_i p_i d/dz_i + q_i d/dz.bar_i, given as the pair d = (p, q)."""
    p, q = (np.asarray(v, dtype=complex) for v in d)
    c = np.zeros(p.shape[:-1] + (D,), dtype=complex)
    c[..., 0::2] = 0.5 * (p + q)
    c[..., 1::2] = 0.5j * (q - p)
    return c


def conj_derivation(d):
    """The conjugate derivation: conj(D f) = (conj_derivation D) f for real
    f."""
    p, q = d
    return np.conj(q), np.conj(p)


def third_directional(jet: WirtingerJet, d1, d2, d3):
    """The real third tensor contracted with three (p, q) derivations, each
    per point (K, n) or shared (n,): the general contraction of which
    jets.third_contraction is the case ((A, 0), (B, 0), (0, conj C))."""
    if jet.order < 3:
        raise OrderTooLow("third_directional needs an order-3 jet")
    K, D = jet.rgrad.shape
    cs = [np.broadcast_to(derivation_coeff(d, D), (K, D))
          for d in (d1, d2, d3)]
    return np.einsum("kabc,ka,kb,kc->k", jet.rthird, *cs)


def tangent_frames(N):
    """Orthonormal (1,0) tangent frames (B, n-1, n) of unit normal
    coefficients N (B, n), in any C^n: the rows span the SVD null space of
    conj(N)^T, the vectors L with <L, N> = 0.  In C^2 the one row is
    levi.tangent_direction up to a unit phase."""
    N = np.atleast_2d(np.asarray(N, dtype=complex))
    _, _, Vh = np.linalg.svd(np.conj(N)[:, None, :])
    return np.conj(Vh[:, 1:, :])


def levi_matrix(jet, N):
    """(restricted Levi matrix (B, n-1, n-1) of the jet on the tangent
    frames of N, the frames)."""
    frames = tangent_frames(N)
    return np.einsum("kij,kai,kbj->kab", jet.mixed, frames,
                     np.conj(frames)), frames


def levi_min_via_rho(domain: DomainSpec, P):
    """Minimal restricted Levi eigenvalue via the defining function.

    On the boundary, Hess_delta(X, Y) = Hess_rho(X, Y)/|grad rho| for
    tangent X, Y, so the restricted Levi spectrum can be evaluated from
    forward-mode jets of rho exactly, without a projection: the second route
    that detect_sigma's delta-jet spectrum is checked against.
    """
    P = np.atleast_2d(np.asarray(P, dtype=float))
    jet = domain.jet(P, order=2)
    w = jet.wgrad
    s = np.sqrt(np.einsum("kj,kj->k", w, np.conj(w)).real)
    N = np.conj(w) / np.maximum(s[:, None], 1e-300)
    M, _ = levi_matrix(jet, N)
    M = M / (2.0 * s)[:, None, None]
    return np.linalg.eigvalsh(M)[:, 0]


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


class NotDegenerate(DfIndexError):
    """Operation only applies at Levi-degenerate boundary points."""


class HypothesisFail(DfIndexError):
    """A pointwise hypothesis required by the check is violated."""


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

def require_inside(chart: SigmaChart, U):
    """U, after raising StencilLeak if a parameter leaves the chart's box."""
    U = np.atleast_2d(U)
    if np.any(U < chart.lo - 1e-12) or np.any(U > chart.hi + 1e-12):
        raise StencilLeak("chart parameter outside the box")
    return U


def fd_tangents(chart: SigmaChart, U):
    """The chart's tangent (SigmaChart.tangents) by centred differences of
    its embedding in C^n, (K, n): the (1,0) part of d/dt on a real chart,
    and (d/dx - i d/dy)/2 of the embedding on a complex one."""
    U = np.atleast_2d(np.asarray(U, dtype=float))
    he = 1e-6 * float(np.max(chart.hi - chart.lo))
    cols = []
    for a in range(U.shape[1]):
        dU = np.zeros_like(U)
        dU[:, a] = he
        dE = (chart.embed_batch(U + dU) - chart.embed_batch(U - dU)) / (2 * he)
        cols.append(complex_pack(dE))
    if chart.kind == "real":
        return cols[0]
    return 0.5 * (cols[0] - 1j * cols[1])


def holomorphy_defect(chart: SigmaChart, U):
    """max |xi(Y) - i xi(X)| over the grid; zero for holomorphic
    embeddings."""
    if chart.kind != "complex":
        raise ChartMismatch("holomorphy defect needs a complex chart")
    U = np.atleast_2d(np.asarray(U, dtype=float))
    he = 1e-6 * float(np.max(chart.hi - chart.lo))
    dx = np.array([he, 0.0])
    dy = np.array([0.0, he])
    xx = complex_pack((chart.embed_batch(U + dx)
                       - chart.embed_batch(U - dx)) / (2 * he))
    yy = complex_pack((chart.embed_batch(U + dy)
                       - chart.embed_batch(U - dy)) / (2 * he))
    return float(np.max(np.abs(yy - 1j * xx)))


def _chart_wirtinger_derivs(chart, U, fn, h):
    """(d/dz F, d/dzbar F) of a chart field F = fn(U), (K,) complex, by
    centered differences in the chart's coordinate z = x + i y."""
    U = np.atleast_2d(np.asarray(U, dtype=float))
    dx = np.array([h, 0.0])
    dy = np.array([0.0, h])
    allU = np.concatenate([U + dx, U - dx, U + dy, U - dy], axis=0)
    require_inside(chart, allU)
    F = fn(allU).reshape(4, U.shape[0])
    Dx = (F[0] - F[1]) / (2 * h)
    Dy = (F[2] - F[3]) / (2 * h)
    return 0.5 * (Dx - 1j * Dy), 0.5 * (Dx + 1j * Dy)


def chart_compat_residuals(chart: SigmaChart, u, h):
    """Residuals of the two normal-Hessian compatibility identities.

    Identity one: d/dz_j h_i = conj(d/dz_i h_j); identity two:
    d/dzbar_j h_i = d/dzbar_i h_j.  Both vanish on the degenerate set; the
    centered differences converge at second order.  A chart in C^2 has one
    direction, i = j: identity one asks d/dz h to be real, and identity two
    holds by itself (its residual is 0 wherever d/dzbar h is finite).
    """
    if chart.kind != "complex":
        raise ChartMismatch("compatibility residuals need a complex chart")
    U = np.atleast_2d(np.asarray(u, dtype=float))
    dz, dzb = _chart_wirtinger_derivs(chart, U, lambda V: h_field(chart, V), h)
    r1 = np.abs(dz - np.conj(dz))
    r2 = np.abs(dzb - dzb)
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

    r1, r2: pointwise identities Re/Im h = (1/4) g(nabla_nu nu, X / Y);
    r3: the derivative identity, discretized with chart steps along X and
    ambient collar steps along the J-companion Y (which may leave the
    boundary; the collar fields stay defined).

    strict=True raises HypothesisFail when the complexified x-direction is
    not Levi-null within null_tol (the identity set r1/r2 holds regardless;
    r3 discretizes the closedness statement that needs the hypothesis).
    """
    U = np.atleast_2d(np.asarray(u, dtype=float))
    dom = chart.domain
    P = chart.embed_batch(U)
    jet = delta_jet(dom, P, order=2)
    N = normal_n(jet)
    xi = chart.tangents(U)          # (K, n)
    levi = np.einsum("kij,ki,kj->k", jet.mixed, xi, np.conj(xi)).real
    if null_tol is None:
        null_tol = 1e-3 * float(np.max(np.abs(jet.mixed)))
    if strict and np.any(np.abs(levi) > null_tol):
        raise HypothesisFail(
            f"Levi form on the complexified chart direction reaches "
            f"{float(np.max(np.abs(levi))):.3e} (tol {null_tol:.3e})")
    hvals = np.einsum("kij,ki,kj->k", jet.mixed, N, np.conj(xi))
    gx, gy = nu_pairings(jet, xi)
    r1 = np.abs(hvals.real - 0.25 * gx)
    r2 = np.abs(hvals.imag - 0.25 * gy)

    # r3: Re(d/dz h) vs (1/8)(D_X g(.,X) + D_Y g(.,Y))
    ha = 1e-3 * dom.scale
    if chart.kind == "complex":
        dUx = np.array([h, 0.0])
        dUy = np.array([0.0, h])
        hxp, gxp, _ = _h_and_g(chart, U + dUx)
        hxm, gxm, _ = _h_and_g(chart, U - dUx)
        hyp, _, gyp = _h_and_g(chart, U + dUy)
        hym, _, gym = _h_and_g(chart, U - dUy)
        Dx_h = (hxp - hxm) / (2 * h)
        Dy_h = (hyp - hym) / (2 * h)
        Dx_gx = (gxp - gxm) / (2 * h)
        Dy_gy = (gyp - gym) / (2 * h)
    else:
        hxp, gxp, _ = _h_and_g(chart, U + h)
        hxm, gxm, _ = _h_and_g(chart, U - h)
        Dx_h = (hxp - hxm) / (2 * h)
        Dx_gx = (gxp - gxm) / (2 * h)
        # ambient straight-line steps along the J-companion
        Yreal = complex_unpack(1j * xi)
        nrm = np.linalg.norm(Yreal, axis=1, keepdims=True)
        Yhat = Yreal / np.maximum(nrm, 1e-300)
        hyp, _, gyp = _h_and_g_ambient(chart, P + ha * Yhat, xi)
        hym, _, gym = _h_and_g_ambient(chart, P - ha * Yhat, xi)
        rate = nrm[:, 0] / (2.0 * ha)
        Dy_h = (hyp - hym) * rate
        Dy_gy = (gyp - gym) * rate
    dz_h = 0.5 * (Dx_h - 1j * Dy_h)
    rhs = 0.125 * (Dx_gx + Dy_gy)
    r3 = np.abs(dz_h.real - rhs)
    if np.asarray(u).ndim == 1:
        return float(r1[0]), float(r2[0]), float(r3[0])
    return r1, r2, r3


def _h_and_g(chart, U):
    """(h, g(.,X), g(.,Y)) at chart parameters U."""
    dom = chart.domain
    P = chart.embed_batch(U)
    jet = delta_jet(dom, P, order=2)
    N = normal_n(jet)
    xi = chart.tangents(U)
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
    sub = SigmaChart(domain=chart.domain, kind=chart.kind, lo=lo, hi=hi,
                     embed=chart.embed, tangent=chart.tangent,
                     leaf_label=chart.leaf_label, name=chart.name + "_inner")
    U, shape = sub.grid(res)
    P = sub.embed_batch(U)
    feet, _ = distance.foot_points(domain, P)
    h = h_field(sub, U)
    Ls = sub.tangents(U)
    nrm = np.sqrt(np.einsum("kj,kj->k", Ls, np.conj(Ls)).real)
    Ls = Ls / nrm[:, None]
    h = h / nrm
    stencil = PsiStencil(domain, feet, delta_jet(domain, feet, order=3), (),
                         FD_STEP)

    # Simpson weights over the sub-box
    wts = np.ones(shape[0])
    wts[1:-1:2] = 4.0
    wts[2:-1:2] = 2.0
    w2 = np.outer(wts, wts).ravel() if len(shape) == 2 else wts
    cell = np.prod((hi - lo) / (np.array(shape) - 1)) / (3.0 ** len(shape))

    out = []
    for eta in etas:
        psi = psi_producer(eta)
        _, wpsi, _ = combine(stencil.columns(psi.terms), psi.coef)
        lbar = np.conj(np.einsum("kj,kj->k", Ls, wpsi))
        integrand = np.abs(0.5 * lbar + h)
        out.append(float(np.dot(w2, integrand) * cell))
    return out


# ---------------------------------------------------------------------------
# synthetic 1-forms and loop reparametrisations
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
    hfn: Callable    # (K,p) -> (K,) complex

    def components(self, U):
        h = self.hfn(np.atleast_2d(U))
        return np.stack([h.real, h.imag], axis=1)


@contextlib.contextmanager
def synthetic_theta(*sources):
    """cohomology reads each source's synthetic form on the source's chart,
    and theta on every other chart, while the context lasts.  The
    references below read the form the same way, so that the package and
    they integrate one form."""
    theta = cohomology.theta_components

    def components(chart, U):
        for src in sources:
            if src.chart is chart:
                return src.components(U)
        return theta(chart, U)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cohomology, "theta_components", components)
        yield


# ---------------------------------------------------------------------------
# spanning-tree potential without the cycle check, one model per leaf
# ---------------------------------------------------------------------------

class PolyModel:
    """Least-squares tensor polynomial on normalized chart parameters, one
    leaf's own: its design at the lattice nodes, its normal matrix and its
    fit."""

    def __init__(self, lo, hi, degree):
        self.lo = np.asarray(lo, dtype=float)
        self.hi = np.asarray(hi, dtype=float)
        self.degree = degree
        self.coef = None
        self.terms = None

    def _design(self, U):
        """Monomial columns of total degree <= degree, built from one
        per-axis power table gathered through the cached exponent index."""
        X = 2.0 * (U - self.lo) / (self.hi - self.lo) - 1.0
        p = X.shape[1]
        if self.terms is None:
            self.terms = np.array(
                [e for e in itertools.product(range(self.degree + 1),
                                              repeat=p)
                 if sum(e) <= self.degree])
        powers = np.stack([X ** e for e in range(self.degree + 1)], axis=2)
        A = np.take(powers[:, 0], self.terms[:, 0], axis=1)
        for a in range(1, p):
            A *= np.take(powers[:, a], self.terms[:, a], axis=1)
        return A

    def fit(self, U, y):
        A = self._design(np.atleast_2d(U))
        lam = 1e-10
        AtA = A.T @ A + lam * np.eye(A.shape[1])
        self.coef = np.linalg.solve(AtA, A.T @ np.asarray(y, dtype=float))

    def __call__(self, U):
        A = self._design(np.atleast_2d(U))
        return A @ self.coef


def eval_per_leaf(models, labels, U, t):
    """PotentialField.eval with one model per leaf: each leaf's model builds
    its own monomial table on the rows whose bracketing labels include the
    leaf, so each point's table is built twice."""
    U = np.atleast_2d(U)
    if t is None or labels is None or len(models) == 1:
        return models[0](U)
    tt = np.mod(np.asarray(t, dtype=float), 2 * np.pi)
    k = np.searchsorted(labels, tt) % len(labels)
    k0 = (k - 1) % len(labels)
    span = np.mod(labels[k] - labels[k0], 2 * np.pi)
    w = smoothstep_c3(np.where(span > 0, np.mod(tt - labels[k0], 2 * np.pi)
                               / np.where(span > 0, span, 1.0), 0.0))
    out = np.zeros(U.shape[0])
    for j, model in enumerate(models):
        rows = np.flatnonzero((k0 == j) | (k == j))
        if rows.size:
            wj = np.where(k0[rows] == j, 1.0 - w[rows], w[rows])
            out[rows] += wj * model(U[rows])
    return out


def _tree_edges(shape):
    """Spanning-tree edges of a lattice: node index -> parent index."""
    strides = np.cumprod((1,) + shape[:0:-1])[::-1]

    def flat(idx):
        return int(np.dot(idx, strides))

    edges = []
    for node in np.ndindex(*shape):
        idx = np.array(node)
        if not idx.any():
            continue
        a = int(np.argmax(idx > 0))
        parent = idx.copy()
        parent[a] -= 1
        edges.append((flat(parent), flat(idx)))
    return edges


def integrate_edges(chart, U, edges):
    """Simpson (5 nodes) along each straight lattice edge of the chart
    times POTENTIAL_FACTOR."""
    a = U[[e[0] for e in edges]]
    b = U[[e[1] for e in edges]]
    t = np.linspace(0, 1, 5)
    nodes = a[:, None, :] + t[None, :, None] * (b - a)[:, None, :]
    S, Q, p = nodes.shape
    comps = cohomology.theta_components(
        chart, nodes.reshape(-1, p)).reshape(S, Q, p)
    integrand = np.einsum("sqp,sp->sq", comps, b - a)
    w = np.array([1.0, 4.0, 2.0, 4.0, 1.0])
    return POTENTIAL_FACTOR * (integrand @ w) / 12.0


def tree_potential(chart, res):
    """One leaf of build_potential by its tree edges alone, each integrated
    at its own five Simpson nodes, zero at the node nearest the box centre,
    and h read by a separate evaluation at the lattice nodes: (node values,
    fitted model, gradient residual)."""
    U, shape = chart.grid(res)
    edges = _tree_edges(shape)
    vals = np.zeros(U.shape[0])
    for (pa, pb), dv in zip(edges, integrate_edges(chart, U, edges)):
        vals[pb] = vals[pa] + dv
    centre = 0.5 * (chart.lo + chart.hi)
    vals -= vals[int(np.argmin(np.linalg.norm(U - centre, axis=1)))]
    comps = cohomology.theta_components(chart, U)
    hv = (comps[:, 0] + 1j * comps[:, 1]).reshape(shape)
    grid_vals = vals.reshape(shape)
    hstep = (chart.hi - chart.lo) / (np.array(shape) - 1)
    Dx = np.gradient(grid_vals, hstep[0], axis=0)
    Dy = np.gradient(grid_vals, hstep[1], axis=1)
    dbar = 0.5 * (Dx + 1j * Dy)
    grad_res = float(np.max(np.abs((dbar - hv)[1:-1, 1:-1])))
    model = PolyModel(chart.lo, chart.hi, degree=min(8, res - 1))
    model.fit(U, vals)
    return vals, model, grad_res


def leaf_sources(bidisc):
    """A synthetic exact form on each of the bidisc's leaf charts, by label,
    that differs from leaf to leaf (the bidisc's own form vanishes)."""
    def source(chart):
        a = np.cos(chart.leaf_label) + 2.0
        return HFieldSource(chart, lambda U: a * (U[:, 0] - 1j * U[:, 1])
                            + a * a)

    return [source(c) for c in sorted(bidisc.charts.values(),
                                      key=lambda c: c.leaf_label)]


def reversed_path(path):
    return path[::-1].copy()


def rotated_path(path, k, wrap_axis=None, period=None):
    """Basepoint rotation of a closed loop, a (V, p) array, by k vertices.

    For loops that close through a periodic chart coordinate, pass the
    axis and its period so the rolled parameter list stays monotone.
    """
    pts = np.roll(path[:-1], -k, axis=0)
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
    return pts


# ---------------------------------------------------------------------------
# one path per line integral, the unscaled criterion, the unmemoized search
# ---------------------------------------------------------------------------
# The forms these computations had before the package shared their work:
# each must give the package's bits.

def integrate_theta_single(chart, path):
    """Line integral of the 1-form along one path of the chart's
    parameters, by composite Simpson per segment at 4, 8, ..., 2048 nodes
    per segment, each level evaluating every one of its nodes, until two
    successive whole-path estimates differ by less than PERIOD_TOL
    (relative)."""
    if not np.all(chart.contains(path)):
        raise ChartGap("path vertex outside the chart")
    seg_a = path[:-1]
    dU = path[1:] - path[:-1]

    def estimate(nodes_per_seg):
        t = np.linspace(0.0, 1.0, nodes_per_seg + 1)
        nodes = seg_a[:, None, :] + t[None, :, None] * dU[:, None, :]
        S, Q, p = nodes.shape
        comps = cohomology.theta_components(
            chart, nodes.reshape(-1, p)).reshape(S, Q, p)
        integrand = np.einsum("sqp,sp->sq", comps, dU)
        w = np.ones(Q)
        w[1:-1:2] = 4.0
        w[2:-1:2] = 2.0
        return float(np.sum(integrand @ w) / (3.0 * nodes_per_seg))

    est = estimate(4)
    for k in range(3, 12):
        prev, est = est, estimate(2 ** k)
        if abs(est - prev) < PERIOD_TOL * (1 + abs(est)):
            return est
    raise NoConvergence("line integral not converged at 2048 nodes")


def lhs_unscaled(evaluator, terms, coef, eta):
    """The criterion's left-hand side per sample from unscaled columns,
    a |1/2 G c + h_L|^2 + 1/2 (1/2 Q c + third_field), with G = Lbar T_i
    and Q = 1/4 (d^2 along L + d^2 along iL)."""
    _, wpsi, second = evaluator.stencil.columns(terms)
    d2x, d2j = second[evaluator.stencil.D:]
    G = np.conj(np.einsum("kj,kjc->kc", evaluator.L, wpsi))
    Q = 0.25 * (d2x + d2j)
    a = 1.0 / (1.0 - eta) - 1.0
    return a * np.abs(0.5 * (G @ coef) + evaluator.h_L) ** 2 \
        + 0.5 * (0.5 * (Q @ coef) + evaluator.third_field)


def coordinate_descent_unmemoized(objective, x0, lo, hi, rounds,
                                  gold_iters):
    """certify.coordinate_descent calling the objective at every step,
    revisited points included (with its stale-coordinate defect)."""
    gr = (np.sqrt(5.0) - 1.0) / 2.0
    x = np.asarray(x0, dtype=float).copy()
    best = objective(x)
    for _ in range(rounds):
        improved = False
        for k in range(x.size):
            a, b = lo[k], hi[k]
            c = b - gr * (b - a)
            d = a + gr * (b - a)
            xc = x.copy()
            xc[k] = c
            fc = objective(xc)
            xd = x.copy()
            xd[k] = d
            fd = objective(xd)
            for _ in range(gold_iters):
                if fc < fd:
                    b, d, fd = d, c, fc
                    c = b - gr * (b - a)
                    xc[k] = c
                    fc = objective(xc)
                else:
                    a, c, fc = c, d, fd
                    d = a + gr * (b - a)
                    xd[k] = d
                    fd = objective(xd)
            cand = xc if fc < fd else xd
            val = min(fc, fd)
            if val < best - 1e-15:
                x, best = cand.copy(), val
                improved = True
        if not improved:
            break
    return x, best


# ---------------------------------------------------------------------------
# cutoff L2 bound
# ---------------------------------------------------------------------------

# the cutoff bound's inner plateau W_p and cutoff support V_p, as fractions
# of the patch radius, and its angular quadrature nodes
W_FRAC = 0.5
V_FRAC = 0.8
QUAD_POINTS = 512


def _f_jets(f_eval, P):
    """(|dbar f|^2, Hess_f(z, z)) of a jet-generic real scalar on C."""
    xs = Jet.variables(P, 2)
    out = f_eval(xs).lift((0, 1))
    g = out.g if out.g is not None else np.zeros((P.shape[0], 2))
    h = out.h if out.h is not None else np.zeros((P.shape[0], 2, 2))
    jw = WirtingerJet(out.v, g, h)
    # |d f / d zbar| = |d f / dz| for real f
    return np.abs(jw.wgrad[:, 0]) ** 2, jw.mixed[:, 0, 0].real


def caccioppoli_check(radius, f_eval, n: int):
    """Verify the cutoff L2 bound on the patch U_p, the disc of this radius
    in C: after screening the pointwise hypothesis
    n |dbar f|^2 + Hess_f(z, z) <= 0 on U_p, check
    integral_{W_p} |dbar f|^2 dV <= C(U_p) / n^2 with 1% slack,
    C(U_p) = integral 4 |d chi / dz|^2 dV for the C3 radial cutoff chi.
    Returns {n, left (the integral over W_p), constant (C(U_p)), bound
    (C(U_p) / n^2), hypothesisMax (the screened maximum), ok}.
    """
    # hypothesis screening on a polar grid of U_p
    nr, na = 96, 128
    r = np.linspace(0, radius, nr + 1)[1:]
    a = np.linspace(0, 2 * np.pi, na, endpoint=False)
    rr, aa = np.meshgrid(r, a, indexing="ij")
    P = np.stack([rr.ravel() * np.cos(aa.ravel()),
                  rr.ravel() * np.sin(aa.ravel())], axis=1)
    dbar2, mixed = _f_jets(f_eval, P)
    hyp = n * dbar2 + mixed
    hyp_max = float(hyp.max())
    if hyp_max > 1e-10:
        raise HypothesisFail(
            f"n|dbar f|^2 + Hess_f = {hyp_max:.3e} > 0 somewhere on the patch")

    # quadrature: radial Simpson x angular trapezoid (periodic)
    w_r = W_FRAC * radius
    v_r = V_FRAC * radius

    def radial_simpson(fn, r0, r1, steps):
        rr = np.linspace(r0, r1, 2 * steps + 1)
        wts = np.ones_like(rr)
        wts[1:-1:2] = 4.0
        wts[2:-1:2] = 2.0
        return (r1 - r0) / (6.0 * steps) * np.dot(wts, fn(rr))

    ang = np.linspace(0, 2 * np.pi, QUAD_POINTS, endpoint=False)

    def mean_over_angle(rr):
        out = np.empty_like(rr)
        for i, rv in enumerate(rr):
            P = np.stack([rv * np.cos(ang), rv * np.sin(ang)], axis=1)
            out[i] = _f_jets(f_eval, P)[0].mean()
        return out

    left = radial_simpson(lambda rr: 2 * np.pi * rr * mean_over_angle(rr),
                          0.0, w_r, 160)

    span = max(v_r - w_r, 1e-12)

    def chi_prime_sq(rr):
        s = (rr - w_r) / span
        ds = np.where((s > 0) & (s < 1),
                      (140.0 * np.clip(s, 0, 1) ** 3
                       * (1.0 - np.clip(s, 0, 1)) ** 3) / span, 0.0)
        return ds ** 2

    constant = radial_simpson(lambda rr: 2 * np.pi * rr * chi_prime_sq(rr),
                              w_r, v_r, 200)
    bound = constant / n ** 2
    ok = bool(left <= 0.99 * bound)
    return {"n": int(n), "left": float(left), "bound": float(bound),
            "constant": float(constant), "hypothesisMax": hyp_max, "ok": ok}
