"""Closed-form test domains with analytic jet oracles, known degenerate sets,
chart atlases and generator loops.

All entries are domains in C^2 with interleaved real coordinates
(x1, y1, x2, y2).  Oracles are sympy-generated jets of the defining function,
built lazily on first use and cached; evaluators are jet-generic so
forward-mode differentiation is exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import BetaTooSmall
from .jets import DomainSpec, Jet, WirtingerJet, jcos, jhinge_pow, jlog, jsin
from .sigma import SigmaChart
from .util import complex_pack, complex_unpack, rng_for


# ---------------------------------------------------------------------------
# sympy oracle machinery
# ---------------------------------------------------------------------------

_ORACLE_CACHE: dict = {}


def _sympy_oracle(key, expr_builder):
    """Real jets (to order 3) of a sympy expression in 4 symbols.

    sympy is imported, and the derivatives lambdified, on the first call;
    the result is cached under key, so building an entry costs nothing.
    """

    def oracle(P, order=3):
        if key not in _ORACLE_CACHE:
            _ORACLE_CACHE[key] = _lambdify_jets(expr_builder)
        return _ORACLE_CACHE[key](P, order)

    return oracle


def _lambdify_jets(expr_builder):
    import sympy as sp

    syms = sp.symbols("x1 y1 x2 y2", real=True)
    expr = expr_builder(sp, syms)
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


# ---------------------------------------------------------------------------
# zoo entry container
# ---------------------------------------------------------------------------

@dataclass
class ZooEntry:
    """A test domain plus everything the pipelines need to run on it."""

    id: str
    domain: DomainSpec
    sigma_kind: str                     # Empty | Foliation | ComplexSubmanifold | RealCurve
    charts: dict = field(default_factory=dict)
    loops: dict = field(default_factory=dict)     # name -> (chart_name, params, closed)
    boundary_mesh: Callable | None = None         # (count, seed) -> (B, 4)
    interior_mesh: Callable | None = None         # (count, seed, depth) -> (B, 4)
    sigma_distance: Callable | None = None        # ambient P -> distance to Sigma
    sigma_coords: Callable | None = None          # boundary P -> (U, t, edge)
    notes: dict = field(default_factory=dict)

    def describe(self):
        return {
            "id": self.id,
            "sigma_kind": self.sigma_kind,
            "charts": sorted(self.charts),
            "loops": sorted(self.loops),
            "box_lo": self.domain.box_lo.tolist(),
            "box_hi": self.domain.box_hi.tolist(),
            "notes": {k: str(v) for k, v in self.notes.items()},
        }


def _inward_mesh(dom, P, seed, depth):
    """March boundary points inward and keep only those with reliable,
    unambiguous projections (clear of the medial axis)."""
    from .distance import cut_locus_mask

    rng = rng_for(seed + 1)
    jet = dom.jet(P, order=1)
    g = jet.rgrad
    nhat = g / np.linalg.norm(g, axis=1, keepdims=True)
    d = rng.uniform(depth[0], depth[1], P.shape[0])
    Q = P - d[:, None] * nhat
    Q = Q[dom.value(Q) < -1e-9]
    keep = ~cut_locus_mask(dom, Q)
    return Q[keep]


def _uniform_disc(rng, count, radius):
    r = radius * np.sqrt(rng.uniform(0, 1, count))
    a = rng.uniform(0, 2 * np.pi, count)
    return r * np.cos(a), r * np.sin(a)


# ---------------------------------------------------------------------------
# ball
# ---------------------------------------------------------------------------

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


def make_ball(radius=1.0) -> ZooEntry:
    """Strongly pseudoconvex baseline: rho = |z|^2 - r^2, empty Sigma."""
    r2 = radius * radius

    def rho(c):
        x1, y1, x2, y2 = c
        return x1 * x1 + y1 * y1 + x2 * x2 + y2 * y2 - r2

    def oracle(P, order=3):
        P = np.atleast_2d(np.asarray(P, dtype=float))
        B, D = P.shape
        v = np.einsum("ka,ka->k", P, P) - r2
        g = 2.0 * P
        h = np.broadcast_to(2.0 * np.eye(D), (B, D, D)).copy()
        t = np.zeros((B, D, D, D)) if order >= 3 else None
        return WirtingerJet(v, g, h if order >= 2 else None, t)

    lim = 2.2 * radius
    dom = DomainSpec(n=2, rho=rho, box_lo=-lim * np.ones(4),
                     box_hi=lim * np.ones(4), oracle=oracle, name="ball",
                     meta={"radius": radius})

    def boundary_mesh(count, seed=0):
        rng = rng_for(seed)
        v = rng.normal(size=(count, 4))
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        return radius * v

    def interior_mesh(count, seed=0, depth=(0.05, 0.5)):
        rng = rng_for(seed)
        v = rng.normal(size=(count, 4))
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        d = rng.uniform(depth[0], depth[1], count) * radius
        return (radius - d)[:, None] * v

    entry = ZooEntry(
        id="ball", domain=dom, sigma_kind="Empty",
        boundary_mesh=boundary_mesh, interior_mesh=interior_mesh,
        notes={"delta": "closed form |z| - r attached for validation",
               "levi": "restricted Levi eigenvalue 1/(2r) on the boundary"})
    entry.notes["delta_jet"] = lambda P, order=3: ball_delta_jet(
        P, radius, order)
    return entry


# ---------------------------------------------------------------------------
# fattened bidisc
# ---------------------------------------------------------------------------

def make_fattened_bidisc(r=0.7, smoothing_scale=1.0) -> ZooEntry:
    """rho = |z2|^2 - 1 + chi(|z1|^2 - r^2) with the C3 quartic hinge chi.

    Sigma = {|z2| = 1, |z1| <= r}, a trivial foliation by discs
    {z2 = e^(i t)}; theta vanishes identically on the leaves.
    """
    if not 0 < r < 1:
        raise ValueError("need 0 < r < 1")
    M = smoothing_scale

    def rho(c):
        x1, y1, x2, y2 = c
        s = x1 * x1 + y1 * y1 - r * r
        return x2 * x2 + y2 * y2 - 1.0 + jhinge_pow(s, 4, M)

    def build(sp, syms):
        x1, y1, x2, y2 = syms
        s = x1 ** 2 + y1 ** 2 - r ** 2
        chi = sp.Piecewise((M * s ** 4, s > 0), (0, True))
        return x2 ** 2 + y2 ** 2 - 1 + chi

    oracle = _sympy_oracle(("bidisc", r, M), build)
    s_star = (1.0 / M) ** 0.25
    R_max = float(np.sqrt(r * r + s_star))
    lim = 1.1 * max(R_max, 1.0) + 0.3
    dom = DomainSpec(n=2, rho=rho, box_lo=-lim * np.ones(4),
                     box_hi=lim * np.ones(4), oracle=oracle,
                     name="bidisc", meta={"r": r, "M": M, "R_max": R_max})
    # the C3 hinge crease at |z1| = r limits finite-difference accuracy in a
    # stencil-wide band; cross-check tests sample away from it
    dom.meta["crease_guard"] = lambda P, margin=0.05: (
        np.abs(np.hypot(P[:, 0], P[:, 1]) - r) > margin)

    tube_min = 0.35
    R_mesh = float(np.sqrt(r * r + (1.0 - tube_min ** 2) ** 0.25 * s_star))

    def boundary_mesh(count, seed=0):
        rng = rng_for(seed)
        x1, y1 = _uniform_disc(rng, count, R_mesh)
        s = x1 * x1 + y1 * y1 - r * r
        hinge = M * np.where(s > 0, s, 0.0) ** 4
        rad2 = np.sqrt(np.maximum(1.0 - hinge, 0.0))
        a = rng.uniform(0, 2 * np.pi, count)
        return np.stack([x1, y1, rad2 * np.cos(a), rad2 * np.sin(a)], axis=1)

    def interior_mesh(count, seed=0, depth=(0.04, 0.12)):
        return _inward_mesh(dom, boundary_mesh(count, seed), seed, depth)

    c = 0.65 * r   # leaf chart half-width, keeps the box inside |z1| < r
    leaf_labels = np.linspace(0.0, 2 * np.pi, 9)[:-1]
    charts = {}
    for t in leaf_labels:
        ct, st = float(np.cos(t)), float(np.sin(t))

        def embed(U, ct=ct, st=st):
            U = np.atleast_2d(U)
            out = np.empty((U.shape[0], 4))
            out[:, 0] = U[:, 0]
            out[:, 1] = U[:, 1]
            out[:, 2] = ct
            out[:, 3] = st
            return out

        def tangent(U):
            U = np.atleast_2d(U)
            W = np.zeros((U.shape[0], 1, 2), dtype=complex)
            W[:, 0, 0] = 1.0
            return W

        charts[f"leaf_{t:.3f}"] = SigmaChart(
            domain=dom, kind="complex", m=1, lo=np.array([-c, -c]),
            hi=np.array([c, c]), embed=embed, tangent=tangent,
            leaf_label=float(t), name=f"leaf_{t:.3f}")
    main_leaf = charts["leaf_0.000"]

    ang = np.linspace(0, 2 * np.pi, 65)
    circ = 0.9 * c * np.stack([np.cos(ang), np.sin(ang)], axis=1)
    loops = {"leaf_boundary": ("leaf_0.000", circ, True)}

    def sigma_distance(P):
        Z = complex_pack(np.atleast_2d(P))
        d1 = np.maximum(np.abs(Z[:, 0]) - r, 0.0)
        d2 = np.abs(np.abs(Z[:, 1]) - 1.0)
        return np.hypot(d1, d2)

    def sigma_coords(P):
        """Boundary points -> (leaf chart params, leaf label, edge in [0,1])."""
        Z = complex_pack(np.atleast_2d(P))
        U = np.stack([Z[:, 0].real, Z[:, 0].imag], axis=1)
        t = np.mod(np.angle(Z[:, 1]), 2 * np.pi)
        edge = np.abs(Z[:, 0]) / r
        return U, t, edge

    entry = ZooEntry(
        id="bidisc", domain=dom, sigma_kind="Foliation", charts=charts,
        loops=loops, boundary_mesh=boundary_mesh, interior_mesh=interior_mesh,
        sigma_distance=sigma_distance, sigma_coords=sigma_coords,
        notes={"sigma": "{|z2|=1, |z1|<=r} foliated by discs z2=const",
               "theta": "vanishes identically on the leaves",
               "main_leaf": main_leaf})
    return entry


# ---------------------------------------------------------------------------
# worm
# ---------------------------------------------------------------------------

def make_worm(beta=np.pi, smoothing_scale=1.0) -> ZooEntry:
    """rho = |z1 + e^{i log|z2|^2}|^2 - 1 + s(log|z2|^2).

    s is the even C3 quartic-hinge profile vanishing exactly on
    [-(beta - pi/2), beta - pi/2]; Sigma is the complex annulus
    {z1 = 0, |log|z2|^2| <= beta - pi/2} with the classical nonzero period
    of theta around its core circle.
    """
    if beta <= np.pi / 2:
        raise BetaTooSmall("need beta > pi/2")
    a = float(beta - np.pi / 2)
    M = smoothing_scale
    u_star = a + (1.0 / M) ** 0.25

    def rho(c):
        x1, y1, x2, y2 = c
        u = jlog(x2 * x2 + y2 * y2)
        cu, su = jcos(u), jsin(u)
        core = (x1 + cu) ** 2 + (y1 + su) ** 2 - 1.0
        return core + jhinge_pow(u - a, 4, M) + jhinge_pow(-u - a, 4, M)

    def build(sp, syms):
        x1, y1, x2, y2 = syms
        u = sp.log(x2 ** 2 + y2 ** 2)
        core = (x1 + sp.cos(u)) ** 2 + (y1 + sp.sin(u)) ** 2 - 1
        sm = sp.Piecewise((M * (u - a) ** 4, u > a), (0, True)) + \
            sp.Piecewise((M * (-u - a) ** 4, u < -a), (0, True))
        return core + sm

    oracle = _sympy_oracle(("worm", a, M), build)
    r_hi = float(np.exp(u_star / 2))
    lim1 = 2.2
    dom = DomainSpec(
        n=2, rho=rho,
        box_lo=np.array([-lim1, -lim1, -1.1 * r_hi, -1.1 * r_hi]),
        box_hi=np.array([lim1, lim1, 1.1 * r_hi, 1.1 * r_hi]),
        oracle=oracle, name="worm",
        meta={"beta": beta, "a": a, "M": M, "u_star": u_star})
    dom.meta["crease_guard"] = lambda P, margin=0.05: (
        np.abs(np.abs(np.log(np.maximum(P[:, 2] ** 2 + P[:, 3] ** 2, 1e-12)))
               - a) > margin)
    # random-probe guard: keep |z2| clear of the log singularity, where
    # derivative growth outruns fixed-step finite differences
    dom.meta["sample_guard"] = lambda P: (np.hypot(P[:, 2], P[:, 3]) > 0.4)

    # keep meshes where the signed distance stays smooth within jet stencils:
    # past a + 0.45 the closing caps put the cut locus inside stencil reach
    tube_min = 0.35
    u_cap = min(a + (1.0 - tube_min ** 2) ** 0.25 * (1.0 / M) ** 0.25,
                a + 0.2)

    def boundary_mesh(count, seed=0, sigma_fraction=0.25):
        rng = rng_for(seed)
        k = int(count * sigma_fraction)
        u = rng.uniform(-u_cap, u_cap, count)
        th = rng.uniform(0, 2 * np.pi, count)
        if k:
            # exact degenerate-set samples: z1 = 0 needs theta = u, |u| < a
            u[:k] = rng.uniform(-0.999 * a, 0.999 * a, k)
            th[:k] = u[:k]
        s = M * np.where(np.abs(u) > a, (np.abs(u) - a), 0.0) ** 4
        rad = np.sqrt(np.maximum(1.0 - s, 0.0))
        ph = rng.uniform(0, 2 * np.pi, count)
        z1 = -np.exp(1j * u) + rad * np.exp(1j * th)
        z2 = np.exp(u / 2) * np.exp(1j * ph)
        return complex_unpack(np.stack([z1, z2], axis=1))

    def interior_mesh(count, seed=0, depth=(0.04, 0.12)):
        return _inward_mesh(dom, boundary_mesh(count, seed), seed, depth)

    half = 0.45 * a

    def embed_logpolar(U):
        U = np.atleast_2d(U)
        sig, ph = U[:, 0], U[:, 1]
        z2 = np.exp(sig + 1j * ph)
        out = np.zeros((U.shape[0], 4))
        out[:, 2] = z2.real
        out[:, 3] = z2.imag
        return out

    def tangent_logpolar(U):
        U = np.atleast_2d(U)
        W = np.zeros((U.shape[0], 1, 2), dtype=complex)
        W[:, 0, 1] = np.exp(U[:, 0] + 1j * U[:, 1])
        return W

    log_polar = SigmaChart(
        domain=dom, kind="complex", m=1,
        lo=np.array([-half, -0.8]), hi=np.array([half, 2 * np.pi + 0.8]),
        embed=embed_logpolar, tangent=tangent_logpolar, name="log_polar")

    r_in = float(np.exp(-a / 2))
    r_out = float(np.exp(a / 2))
    bx_lo = np.array([0.75 * r_in + 0.25 * r_out, -0.3 * (r_out - r_in)])
    bx_hi = np.array([0.9 * r_out, 0.3 * (r_out - r_in)])

    def embed_patch(U):
        U = np.atleast_2d(U)
        out = np.zeros((U.shape[0], 4))
        out[:, 2] = U[:, 0]
        out[:, 3] = U[:, 1]
        return out

    def tangent_patch(U):
        U = np.atleast_2d(U)
        W = np.zeros((U.shape[0], 1, 2), dtype=complex)
        W[:, 0, 1] = 1.0
        return W

    patch = SigmaChart(domain=dom, kind="complex", m=1, lo=bx_lo, hi=bx_hi,
                       embed=embed_patch, tangent=tangent_patch, name="patch")

    ang = np.linspace(0, 2 * np.pi, 129)
    core = np.stack([np.zeros_like(ang), ang], axis=1)
    sq = 0.08 * a
    square = np.array([[0.0, 1.0], [sq, 1.0], [sq, 1.0 + sq], [0.0, 1.0 + sq],
                       [0.0, 1.0]])
    loops = {"core": ("log_polar", core, True),
             "contractible": ("log_polar", square, True)}

    def sigma_distance(P):
        Z = complex_pack(np.atleast_2d(P))
        r2 = np.abs(Z[:, 1])
        d2 = np.where(r2 < r_in, r_in - r2,
                      np.where(r2 > r_out, r2 - r_out, 0.0))
        return np.hypot(np.abs(Z[:, 0]), d2)

    def sigma_coords(P):
        Z = complex_pack(np.atleast_2d(P))
        sig = np.log(np.maximum(np.abs(Z[:, 1]), 1e-12))
        ph = np.mod(np.angle(Z[:, 1]), 2 * np.pi)
        U = np.stack([sig, ph], axis=1)
        edge = np.abs(sig) / (a / 2)
        return U, None, edge

    entry = ZooEntry(
        id="worm", domain=dom, sigma_kind="ComplexSubmanifold",
        charts={"log_polar": log_polar, "patch": patch}, loops=loops,
        boundary_mesh=boundary_mesh, interior_mesh=interior_mesh,
        sigma_distance=sigma_distance, sigma_coords=sigma_coords,
        notes={
            "sigma": "annulus {z1=0, |log|z2|^2| <= beta - pi/2}",
            "core_period": -np.pi,
            "h_on_sigma": "Hess_delta(N, d/dz2) = -i/(2 conj(z2))",
        })
    return entry


# ---------------------------------------------------------------------------
# quartic circle
# ---------------------------------------------------------------------------

def make_quartic_circle() -> ZooEntry:
    """rho = |z1|^4 + |z2|^2 - 1; the degenerate set is the real curve
    {z1 = 0, |z2| = 1}."""

    def rho(c):
        x1, y1, x2, y2 = c
        q = x1 * x1 + y1 * y1
        return q * q + x2 * x2 + y2 * y2 - 1.0

    def build(sp, syms):
        x1, y1, x2, y2 = syms
        return (x1 ** 2 + y1 ** 2) ** 2 + x2 ** 2 + y2 ** 2 - 1

    oracle = _sympy_oracle(("quartic",), build)
    dom = DomainSpec(n=2, rho=rho, box_lo=-1.6 * np.ones(4),
                     box_hi=1.6 * np.ones(4), oracle=oracle, name="quartic")

    def boundary_mesh(count, seed=0, sigma_fraction=0.25):
        rng = rng_for(seed)
        s = np.sqrt(rng.uniform(0, 1, count)) * 0.97
        if sigma_fraction:
            s[:int(count * sigma_fraction)] = 0.0
        al = rng.uniform(0, 2 * np.pi, count)
        ph = rng.uniform(0, 2 * np.pi, count)
        z1 = s * np.exp(1j * al)
        z2 = np.sqrt(np.maximum(1 - s ** 4, 0)) * np.exp(1j * ph)
        return complex_unpack(np.stack([z1, z2], axis=1))

    def interior_mesh(count, seed=0, depth=(0.04, 0.12)):
        return _inward_mesh(dom, boundary_mesh(count, seed), seed, depth)

    def embed_curve(U):
        U = np.atleast_2d(U)
        out = np.zeros((U.shape[0], 4))
        out[:, 2] = np.cos(U[:, 0])
        out[:, 3] = np.sin(U[:, 0])
        return out

    def tangent_curve(U):
        U = np.atleast_2d(U)
        xi = np.zeros((U.shape[0], 1, 2), dtype=complex)
        xi[:, 0, 1] = 1j * np.exp(1j * U[:, 0])
        return xi

    curve = SigmaChart(domain=dom, kind="real", m=1, lo=np.array([0.0]),
                       hi=np.array([2 * np.pi]), embed=embed_curve,
                       tangent=tangent_curve, name="curve")

    def sigma_distance(P):
        Z = complex_pack(np.atleast_2d(P))
        return np.hypot(np.abs(Z[:, 0]), np.abs(np.abs(Z[:, 1]) - 1.0))

    def sigma_coords(P):
        Z = complex_pack(np.atleast_2d(P))
        t = np.mod(np.angle(Z[:, 1]), 2 * np.pi)
        U = t[:, None]
        edge = np.abs(Z[:, 0]) / 0.6
        return U, None, edge

    entry = ZooEntry(
        id="quartic_circle", domain=dom, sigma_kind="RealCurve",
        charts={"curve": curve}, boundary_mesh=boundary_mesh,
        interior_mesh=interior_mesh, sigma_distance=sigma_distance,
        sigma_coords=sigma_coords,
        notes={"sigma": "real curve {z1=0, |z2|=1}",
               "levi_ambient": "complex Hessian of rho is diag(4|z1|^2, 1)"})
    return entry


_MAKERS = {
    "ball": make_ball,
    "bidisc": make_fattened_bidisc,
    "worm": make_worm,
    "quartic_circle": make_quartic_circle,
}


def zoo_ids():
    return sorted(_MAKERS)


def make(domain_id, **kwargs) -> ZooEntry:
    if domain_id not in _MAKERS:
        raise KeyError(f"unknown zoo domain {domain_id!r}")
    return _MAKERS[domain_id](**kwargs)
