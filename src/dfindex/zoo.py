"""Closed-form test domains with known degenerate sets, chart atlases and
generator loops.

All entries are domains in C^2 with interleaved real coordinates
(x1, y1, x2, y2).  Evaluators are jet-generic, so forward-mode
differentiation is exact.  Each Sigma chart is given by its complex
embedding z(u) and its closed-form tangent z'(u), both (K, 2) complex
(see _chart).  Every entry's interior mesh is its boundary mesh marched
inward by distance.march_inward (ZooEntry.interior_mesh); an entry sets
only its boundary mesh and the unit of the mesh's depths.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .distance import march_inward
from .errors import BetaTooSmall, ConfigInvalid
from .jets import DomainSpec, jcos, jhinge_pow, jlog, jsin
from .sigma import SigmaChart
from .util import complex_pack, complex_unpack, rng_for

# share of the worm's and the quartic's boundary mesh drawn exactly on Sigma
SIGMA_FRACTION = 0.25

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
    loops: dict = field(default_factory=dict)     # name -> (chart_name, params); all closed
    boundary_mesh: Callable | None = None         # (count, seed) -> (B, 4)
    depth_unit: float = 1.0                       # unit of interior_mesh's depths
    sigma_distance: Callable | None = None        # ambient P -> distance to Sigma
    sigma_coords: Callable | None = None          # boundary P -> (U, t, edge)
    notes: dict = field(default_factory=dict)     # name -> printable value

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

    def interior_mesh(self, count, seed, depth):
        """(points, delta's order-3 jet there): the boundary mesh of count
        points drawn with seed, marched inward by depths drawn uniformly
        from the band depth, in units of depth_unit, and kept where
        distance.march_inward verifies them."""
        d = rng_for(seed + 1).uniform(depth[0], depth[1], count)
        return march_inward(self.domain, self.boundary_mesh(count, seed),
                            d * self.depth_unit)


def _chart(dom, kind, lo, hi, z, dz, name, leaf_label=None):
    """The SigmaChart with complex embedding z (K, p) -> (K, 2), whose real
    coordinates interleave z's parts, and tangent dz (K, p) -> (K, 2): d/du
    at u = x + i y on a complex chart, d/dt on a real one."""
    return SigmaChart(domain=dom, kind=kind, lo=lo, hi=hi,
                      embed=lambda U: complex_unpack(z(U)), tangent=dz,
                      leaf_label=leaf_label, name=name)


def _on_z2(w):
    """(0, w): points or directions on the z2-axis, (K, 2) complex."""
    return np.stack([np.zeros_like(w), w], axis=1)


def _uniform_disc(rng, count, radius):
    r = radius * np.sqrt(rng.uniform(0, 1, count))
    a = rng.uniform(0, 2 * np.pi, count)
    return r * np.cos(a), r * np.sin(a)


# ---------------------------------------------------------------------------
# ball
# ---------------------------------------------------------------------------

def make_ball(radius) -> ZooEntry:
    """Strongly pseudoconvex baseline: rho = |z|^2 - r^2, empty Sigma."""
    if not radius > 0:
        raise ConfigInvalid(f"need radius > 0, got {radius}")
    r2 = radius * radius

    def rho(c):
        x1, y1, x2, y2 = c
        return x1 * x1 + y1 * y1 + x2 * x2 + y2 * y2 - r2

    lim = 2.2 * radius
    dom = DomainSpec(rho=rho, box_lo=-lim * np.ones(4),
                     box_hi=lim * np.ones(4), name="ball",
                     meta={"radius": radius})

    def boundary_mesh(count, seed):
        rng = rng_for(seed)
        v = rng.normal(size=(count, 4))
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        return radius * v

    return ZooEntry(
        id="ball", domain=dom, sigma_kind="Empty",
        boundary_mesh=boundary_mesh, depth_unit=radius,
        notes={"delta": "foot-point projection like every entry; = |z| - r",
               "levi": "restricted Levi eigenvalue 1/(2r) on the boundary"})


# ---------------------------------------------------------------------------
# fattened bidisc
# ---------------------------------------------------------------------------

def make_fattened_bidisc(r) -> ZooEntry:
    """rho = |z2|^2 - 1 + chi(|z1|^2 - r^2) with the C3 quartic hinge
    chi(s) = max(s, 0)^4.

    Sigma = {|z2| = 1, |z1| <= r}, a trivial foliation by discs
    {z2 = e^(i t)}; theta vanishes identically on the leaves.
    """
    if not 0 < r < 1:
        raise ConfigInvalid(f"need 0 < r < 1, got {r}")

    def rho(c):
        x1, y1, x2, y2 = c
        s = x1 * x1 + y1 * y1 - r * r
        return x2 * x2 + y2 * y2 - 1.0 + jhinge_pow(s, 4)

    R_max = float(np.sqrt(r * r + 1.0))
    lim = 1.1 * max(R_max, 1.0) + 0.3
    dom = DomainSpec(rho=rho, box_lo=-lim * np.ones(4),
                     box_hi=lim * np.ones(4), name="bidisc",
                     meta={"r": r, "M": 1.0, "R_max": R_max})

    tube_min = 0.35
    R_mesh = float(np.sqrt(r * r + (1.0 - tube_min ** 2) ** 0.25))

    def boundary_mesh(count, seed):
        rng = rng_for(seed)
        x1, y1 = _uniform_disc(rng, count, R_mesh)
        s = x1 * x1 + y1 * y1 - r * r
        hinge = np.where(s > 0, s, 0.0) ** 4
        rad2 = np.sqrt(np.maximum(1.0 - hinge, 0.0))
        a = rng.uniform(0, 2 * np.pi, count)
        return np.stack([x1, y1, rad2 * np.cos(a), rad2 * np.sin(a)], axis=1)

    c = 0.65 * r   # leaf chart half-width, keeps the box inside |z1| < r
    leaf_labels = np.linspace(0.0, 2 * np.pi, 9)[:-1]

    def leaf_tangent(U):
        return np.tile([1, 0j], (len(U), 1))

    charts = {}
    for t in leaf_labels:
        # the leaf z2 = e^(i t), parametrized by u = z1
        w = complex(float(np.cos(t)), float(np.sin(t)))

        def leaf(U, w=w):
            return np.stack([complex_pack(U)[:, 0], np.full(len(U), w)],
                            axis=1)

        name = f"leaf_{t:.3f}"
        charts[name] = _chart(dom, "complex", [-c, -c], [c, c], leaf,
                              leaf_tangent, name, leaf_label=float(t))

    ang = np.linspace(0, 2 * np.pi, 65)
    circ = 0.9 * c * np.stack([np.cos(ang), np.sin(ang)], axis=1)
    loops = {"leaf_boundary": ("leaf_0.000", circ)}

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
        loops=loops, boundary_mesh=boundary_mesh,
        sigma_distance=sigma_distance, sigma_coords=sigma_coords,
        notes={"sigma": "{|z2|=1, |z1|<=r} foliated by discs z2=const",
               "theta": "vanishes identically on the leaves",
               "main_leaf": "leaf_0.000"})
    return entry


# ---------------------------------------------------------------------------
# worm
# ---------------------------------------------------------------------------

def make_worm(beta) -> ZooEntry:
    """rho = |z1 + e^{i log|z2|^2}|^2 - 1 + s(log|z2|^2).

    s(u) = max(|u| - a, 0)^4 is the even C3 quartic-hinge profile
    vanishing exactly on [-a, a], a = beta - pi/2; Sigma is the complex annulus
    {z1 = 0, |log|z2|^2| <= beta - pi/2} with the classical nonzero period
    of theta around its core circle.
    """
    if beta <= np.pi / 2:
        raise BetaTooSmall("need beta > pi/2")
    a = float(beta - np.pi / 2)
    u_star = a + 1.0
    # the box spans 2.2 e^{u_star / 2} along z2, finite up to beta ~ 1419
    if not u_star / 2 < np.log(np.finfo(float).max / 2.2):
        raise ConfigInvalid(f"beta {beta} is too large: the worm's bounding "
                            "box overflows")

    def rho(c):
        x1, y1, x2, y2 = c
        u = jlog(x2 * x2 + y2 * y2)
        cu, su = jcos(u), jsin(u)
        core = (x1 + cu) ** 2 + (y1 + su) ** 2 - 1.0
        return core + jhinge_pow(u - a, 4) + jhinge_pow(-u - a, 4)

    r_hi = float(np.exp(u_star / 2))
    lim1 = 2.2
    dom = DomainSpec(
        rho=rho,
        box_lo=np.array([-lim1, -lim1, -1.1 * r_hi, -1.1 * r_hi]),
        box_hi=np.array([lim1, lim1, 1.1 * r_hi, 1.1 * r_hi]),
        name="worm",
        meta={"beta": beta, "a": a, "M": 1.0, "u_star": u_star})

    # keep meshes where the signed distance stays smooth within jet stencils:
    # past a + 0.45 the closing caps put the cut locus inside stencil reach
    tube_min = 0.35
    u_cap = min(a + (1.0 - tube_min ** 2) ** 0.25, a + 0.2)

    def boundary_mesh(count, seed):
        rng = rng_for(seed)
        k = int(count * SIGMA_FRACTION)
        u = rng.uniform(-u_cap, u_cap, count)
        th = rng.uniform(0, 2 * np.pi, count)
        if k:
            # exact degenerate-set samples: z1 = 0 needs theta = u, |u| < a
            u[:k] = rng.uniform(-0.999 * a, 0.999 * a, k)
            th[:k] = u[:k]
        s = np.where(np.abs(u) > a, (np.abs(u) - a), 0.0) ** 4
        rad = np.sqrt(np.maximum(1.0 - s, 0.0))
        ph = rng.uniform(0, 2 * np.pi, count)
        z1 = -np.exp(1j * u) + rad * np.exp(1j * th)
        z2 = np.exp(u / 2) * np.exp(1j * ph)
        return complex_unpack(np.stack([z1, z2], axis=1))

    half = 0.45 * a

    def logpolar(U):
        # (0, e^u) at u = log|z2| + i arg z2, its own derivative
        return _on_z2(np.exp(U[:, 0] + 1j * U[:, 1]))

    log_polar = _chart(dom, "complex", [-half, -0.8],
                       [half, 2 * np.pi + 0.8], logpolar, logpolar,
                       "log_polar")

    r_in = float(np.exp(-a / 2))
    r_out = float(np.exp(a / 2))
    # a box inside the annulus r_in < |z2| < r_out for every beta > pi/2:
    # below beta = 1.714, 0.9 r_out falls left of lo_x, and halfway from lo_x
    # to the rim takes over
    lo_x = 0.75 * r_in + 0.25 * r_out
    bx_lo = np.array([lo_x, -0.3 * (r_out - r_in)])
    bx_hi = np.array([max(0.9 * r_out, 0.5 * (lo_x + r_out)),
                      0.3 * (r_out - r_in)])

    # (0, u) at u = z2
    patch = _chart(dom, "complex", bx_lo, bx_hi,
                   lambda U: _on_z2(complex_pack(U)[:, 0]),
                   lambda U: np.tile([0j, 1], (len(U), 1)), "patch")

    ang = np.linspace(0, 2 * np.pi, 129)
    core = np.stack([np.zeros_like(ang), ang], axis=1)
    sq = min(0.08 * a, np.pi)     # within log_polar's phi-range at any beta
    square = np.array([[0.0, 1.0], [sq, 1.0], [sq, 1.0 + sq], [0.0, 1.0 + sq],
                       [0.0, 1.0]])
    loops = {"core": ("log_polar", core),
             "contractible": ("log_polar", square)}

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
        boundary_mesh=boundary_mesh,
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

    dom = DomainSpec(rho=rho, box_lo=-1.6 * np.ones(4),
                     box_hi=1.6 * np.ones(4), name="quartic")

    def boundary_mesh(count, seed):
        rng = rng_for(seed)
        s = np.sqrt(rng.uniform(0, 1, count)) * 0.97
        s[:int(count * SIGMA_FRACTION)] = 0.0
        al = rng.uniform(0, 2 * np.pi, count)
        ph = rng.uniform(0, 2 * np.pi, count)
        z1 = s * np.exp(1j * al)
        z2 = np.sqrt(np.maximum(1 - s ** 4, 0)) * np.exp(1j * ph)
        return complex_unpack(np.stack([z1, z2], axis=1))

    # (0, cos t + i sin t)
    curve = _chart(dom, "real", [0.0], [2 * np.pi],
                   lambda U: _on_z2(np.cos(U[:, 0]) + 1j * np.sin(U[:, 0])),
                   lambda U: _on_z2(1j * np.exp(1j * U[:, 0])), "curve")

    def sigma_distance(P):
        Z = complex_pack(np.atleast_2d(P))
        return np.hypot(np.abs(Z[:, 0]), np.abs(np.abs(Z[:, 1]) - 1.0))

    entry = ZooEntry(
        id="quartic_circle", domain=dom, sigma_kind="RealCurve",
        charts={"curve": curve}, boundary_mesh=boundary_mesh,
        sigma_distance=sigma_distance,
        notes={"sigma": "real curve {z1=0, |z2|=1}",
               "levi_ambient": "complex Hessian of rho is diag(4|z1|^2, 1)"})
    return entry


# the zoo: domain id -> builder of its entry from the CLI's settings.  Each
# builder looks its maker up in this module when called, so that a maker
# rebound on the module (a tracer's wrapper) is the one that runs.
REGISTRY = {
    "ball": lambda v: make_ball(v["radius"]),
    "bidisc": lambda v: make_fattened_bidisc(v["r"]),
    "worm": lambda v: make_worm(v["beta"]),
    "quartic_circle": lambda v: make_quartic_circle(),
}
