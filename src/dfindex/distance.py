"""Signed distance to the boundary, its derivative jets, and the complex
normal field.

The signed distance delta is negative inside the domain.  Feet are found by a
gradient-flow predictor followed by Newton on the constrained nearest-point
system; delta-jets are centered differences of the exact foot-point distance
with one Richardson level, per the toolkit's accuracy budget (order <= 2
entries to 1e-6 relative, order 3 to 1e-4, validated on the ball).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (AmbiguousFoot, DegenerateGradient, NoConvergence,
                     StencilLeak)
from .jets import DomainSpec, WirtingerJet, numeric_jet
from .util import complex_pack

_MAX_ITERS = 50
_KKT_TARGET = 1e-15          # aimed-for residual (machine floor), x scale
_KKT_REQUIRED = 1e-12        # contract: residual must end below this, x scale
_AMBIGUITY_TOL = 1e-6


def _chunks(B, size=65536):
    for s in range(0, B, size):
        yield slice(s, min(s + size, B))


def _clip_box(domain, p):
    return np.clip(p, domain.box_lo, domain.box_hi)


def _kkt_polish(domain, Z, p, lam):
    """Damped Newton iterations on [p - z + lam*grad(rho); rho] = 0, batched.

    Per-point step damping shrinks where the residual grows (tight-curvature
    spots near focal distances) and recovers once progress resumes.
    """
    B, D = p.shape
    p = _clip_box(domain, p)
    scale = domain.scale
    eye = np.eye(D)
    best_res = np.full(B, np.inf)
    best_p = p.copy()
    best_lam = lam.copy()
    stall = np.zeros(B, dtype=int)
    alpha = np.ones(B)
    active = np.arange(B)
    for _ in range(_MAX_ITERS):
        pa = p[active]
        la = lam[active]
        jet = domain.jet(pa, order=2)
        grad, hess = jet.rgrad, jet.rhess
        F1 = pa - Z[active] + la[:, None] * grad
        F2 = jet.value
        res = np.maximum(np.max(np.abs(F1), axis=1), np.abs(F2))
        better = res < best_res[active]
        worse = res > 2.0 * best_res[active]
        alpha[active] = np.where(better, np.minimum(1.0, alpha[active] * 1.5),
                                 alpha[active])
        alpha[active] = np.where(worse, alpha[active] * 0.3, alpha[active])
        # diverging points restart from their best iterate with a small step
        if np.any(worse):
            iw = active[worse]
            p[iw] = best_p[iw]
            lam[iw] = best_lam[iw]
            pa = p[active]
            la = lam[active]
            jet = domain.jet(pa, order=2)
            grad, hess = jet.rgrad, jet.rhess
            F1 = pa - Z[active] + la[:, None] * grad
            F2 = jet.value
            res = np.maximum(np.max(np.abs(F1), axis=1), np.abs(F2))
            better = res < best_res[active]
        ib = active[better]
        best_res[ib] = res[better]
        best_p[ib] = pa[better]
        best_lam[ib] = la[better]
        stall[active] = np.where(better, 0, stall[active] + 1)
        live = (best_res[active] > _KKT_TARGET * scale) & (stall[active] < 8)
        if not np.any(live):
            break
        keep = np.flatnonzero(live)
        active = active[keep]
        grad, hess = grad[keep], hess[keep]
        F1, F2 = F1[keep], F2[keep]
        K = len(active)
        J = np.zeros((K, D + 1, D + 1))
        J[:, :D, :D] = eye[None] + lam[active][:, None, None] * hess
        J[:, :D, D] = grad
        J[:, D, :D] = grad
        F = np.concatenate([F1, F2[:, None]], axis=1)
        try:
            step = np.linalg.solve(J, -F[:, :, None])[:, :, 0]
        except np.linalg.LinAlgError:
            jitter = 1e-12 * scale * np.eye(D + 1)
            step = np.linalg.solve(J + jitter[None], -F[:, :, None])[:, :, 0]
        norm = np.linalg.norm(step[:, :D], axis=1)
        cap = 0.1 * scale
        shrink = np.where(norm > cap, cap / np.maximum(norm, 1e-300), 1.0)
        step = step * (alpha[active] * shrink)[:, None]
        p[active] = _clip_box(domain, p[active] + step[:, :D])
        lam[active] = lam[active] + step[:, D]
    return best_p, best_lam, best_res


def _predict_gradient_flow(domain, Z, steps):
    p = _clip_box(domain, Z.copy())
    for _ in range(steps):
        jet = domain.jet(p, order=1)
        g = jet.rgrad
        gg = np.maximum(np.einsum("ka,ka->k", g, g), 1e-300)
        p = _clip_box(domain, p - (jet.value / gg)[:, None] * g)
    jet = domain.jet(p, order=1)
    g = jet.rgrad
    gg = np.maximum(np.einsum("ka,ka->k", g, g), 1e-300)
    lam = np.einsum("ka,ka->k", p - Z, g) / gg
    return p, lam


def _predict_tangential(domain, Z, sweeps=6, relax=0.7):
    """Alternate seed: level-set snap plus tangential pull toward Z."""
    p, _ = _predict_gradient_flow(domain, Z, 1)
    for _ in range(sweeps):
        jet = domain.jet(p, order=1)
        g = jet.rgrad
        gg = np.maximum(np.einsum("ka,ka->k", g, g), 1e-300)
        p = _clip_box(domain, p - (jet.value / gg)[:, None] * g)
        d = Z - p
        coef = np.einsum("ka,ka->k", d, g) / gg
        p = _clip_box(domain, p + relax * (d - coef[:, None] * g))
    jet = domain.jet(p, order=1)
    g = jet.rgrad
    gg = np.maximum(np.einsum("ka,ka->k", g, g), 1e-300)
    lam = np.einsum("ka,ka->k", p - Z, g) / gg
    return p, lam


def foot_points(domain: DomainSpec, Z, ambiguity_check=True):
    """Feet of the nearest-point projection onto the boundary.

    Returns (feet (B,D), residual (B,)).  Raises NoConvergence when the
    Newton budget is exhausted and AmbiguousFoot when two restarts disagree
    (cut-locus detector).
    """
    Z = np.atleast_2d(np.asarray(Z, dtype=float))
    B, D = Z.shape
    feet = np.empty_like(Z)
    res = np.empty(B)
    scale = domain.scale
    for sl in _chunks(B):
        z = Z[sl]
        p0, l0 = _predict_gradient_flow(domain, z, 2)
        pa, la, ra = _kkt_polish(domain, z, p0, l0)
        retry = np.flatnonzero(ra > _KKT_REQUIRED * scale)
        if retry.size and not ambiguity_check:
            p1, l1 = _predict_tangential(domain, z[retry])
            pb, lb, rb = _kkt_polish(domain, z[retry], p1, l1)
            take = rb < ra[retry]
            pa[retry[take]] = pb[take]
            ra[retry[take]] = rb[take]
            retry2 = np.flatnonzero(ra > _KKT_REQUIRED * scale)
            if retry2.size:
                # conservative seed: many slow tangential relaxation sweeps
                p2, l2 = _predict_tangential(domain, z[retry2], sweeps=30,
                                             relax=0.5)
                pc, lc, rc = _kkt_polish(domain, z[retry2], p2, l2)
                take = rc < ra[retry2]
                pa[retry2[take]] = pc[take]
                ra[retry2[take]] = rc[take]
            retry3 = np.flatnonzero(ra > _KKT_REQUIRED * scale)
            if retry3.size:
                # last resort: deterministic multistart around the query
                rng = np.random.default_rng(1234)
                offs = rng.normal(size=(8, Z.shape[1]))
                offs *= 0.04 * scale / np.linalg.norm(offs, axis=1,
                                                      keepdims=True)
                for off in offs:
                    zq = z[retry3] + off
                    p3, l3 = _predict_tangential(domain, zq, sweeps=20,
                                                 relax=0.5)
                    pd, ld, rd = _kkt_polish(domain, z[retry3], p3, l3)
                    take = rd < ra[retry3]
                    pa[retry3[take]] = pd[take]
                    ra[retry3[take]] = rd[take]
                    retry3 = retry3[ra[retry3] > _KKT_REQUIRED * scale]
                    if not retry3.size:
                        break
        if ambiguity_check:
            # gather stationary feet from several seeds; ambiguity means two
            # (near-)minimal-distance feet disagree, not that some restart
            # found a farther stationary point of the distance
            cands = [(pa, ra)]
            p1, l1 = _predict_tangential(domain, z)
            cands.append(_kkt_polish(domain, z, p1, l1)[::2])
            off = np.zeros_like(z)
            off[:, 0] = 0.03 * scale
            for zq in (z + off, z - off):
                pq, lq = _predict_gradient_flow(domain, zq, 2)
                pc, _, rc = _kkt_polish(domain, z, pq, lq)
                cands.append((pc, rc))
            dists = [np.where(r <= _KKT_REQUIRED * scale,
                              np.linalg.norm(p - z, axis=1), np.inf)
                     for p, r in cands]
            dmin = np.min(np.stack(dists), axis=0)
            gap = np.zeros(z.shape[0])
            for (p1_, _), d1 in zip(cands, dists):
                for (p2_, _), d2 in zip(cands, dists):
                    near = (d1 <= dmin + 1e-9 * scale) & \
                           (d2 <= dmin + 1e-9 * scale)
                    gap = np.maximum(gap, np.where(
                        near, np.linalg.norm(p1_ - p2_, axis=1), 0.0))
            bad = gap > _AMBIGUITY_TOL * scale
            if np.any(bad):
                k = int(np.argmax(np.where(bad, gap, 0.0)))
                raise AmbiguousFoot(
                    f"{int(bad.sum())} point(s) near the cut locus; "
                    f"restart feet differ by {gap[k]:.3e}")
            for (p_, r_), d_ in zip(cands, dists):
                take = d_ <= dmin + 1e-12 * scale
                pa[take] = p_[take]
                ra[take] = r_[take]
        feet[sl] = pa
        res[sl] = ra
    if np.any(res > _KKT_REQUIRED * scale):
        raise NoConvergence(
            f"{int((res > _KKT_REQUIRED * scale).sum())} projection(s) above "
            f"residual {_KKT_REQUIRED:.0e} after {_MAX_ITERS} iterations")
    return feet, res


def cut_locus_mask(domain: DomainSpec, Z, gap_tol=_AMBIGUITY_TOL):
    """True where the nearest-point projection is unreliable: the two
    restart strategies disagree or fail to converge (point at or beyond the
    cut locus of the boundary)."""
    Z = np.atleast_2d(np.asarray(Z, dtype=float))
    scale = domain.scale
    p0, l0 = _predict_gradient_flow(domain, Z, 2)
    pa, _, ra = _kkt_polish(domain, Z, p0, l0)
    p1, l1 = _predict_tangential(domain, Z, sweeps=20, relax=0.5)
    pb, _, rb = _kkt_polish(domain, Z, p1, l1)
    gap = np.linalg.norm(pa - pb, axis=1)
    fail = np.minimum(ra, rb) > _KKT_REQUIRED * scale
    disagree = (gap > gap_tol * scale) & (ra <= _KKT_REQUIRED * scale) & \
        (rb <= _KKT_REQUIRED * scale)
    return fail | disagree


def signed_distance(domain: DomainSpec, Z, ambiguity_check=False):
    """delta(Z): negative inside, positive outside, zero on the boundary."""
    Z = np.atleast_2d(np.asarray(Z, dtype=float))
    feet, _ = foot_points(domain, Z, ambiguity_check=ambiguity_check)
    return signed_distance_from_feet(domain, Z, feet)


def signed_distance_from_feet(domain: DomainSpec, Z, feet):
    """delta(Z) given the feet of Z's projections onto the boundary."""
    return np.sign(domain.value(Z)) * np.linalg.norm(Z - feet, axis=1)


def delta_jet(domain: DomainSpec, z, order=2, h=None, collar=None) -> WirtingerJet:
    """Jets of the signed distance at collar points z (single or batch).

    The default step 1.5e-4 x scale keeps the h^4 Richardson remainder below
    the 1e-6 relative budget even at the zoo's worst boundary-curvature
    spots; value noise from machine-floor projections stays two decades
    under truncation at this step.  Third differences use a wider step (set
    by h3_factor) since they amplify value noise by 1/h^3.
    """
    Z = np.atleast_2d(np.asarray(z, dtype=float))
    if h is None:
        h = 1.5e-4 * domain.scale
    if collar is None:
        collar = domain.collar_width

    def dist(Q):
        try:
            d = signed_distance(domain, Q)
        except NoConvergence as exc:
            raise StencilLeak(f"projection failed inside stencil: {exc}")
        if np.any(np.abs(d) > collar):
            raise StencilLeak("stencil point left the collar")
        return d

    # third differences use a wider step (noise amplification ~ 1/h^3)
    return numeric_jet(dist, Z, order, h=h, h3_factor=10.0)


def normal_n(jet: WirtingerJet):
    """The (1,0) normal field N from a delta-jet: coefficients
    conj(d delta/dz_j) / sqrt(sum |d delta/dz_j|^2); unit coefficient vector.
    """
    w = jet.wgrad
    s = np.sqrt(np.einsum("kj,kj->k", w, np.conj(w)).real)
    if np.any(s < 1e-8):
        raise DegenerateGradient("vanishing Wirtinger gradient")
    return np.conj(w) / s[:, None]


@dataclass
class TransversalField:
    """nu = N - conj(N): purely imaginary combination whose realification is
    J(grad delta); tangent to the boundary."""

    nu_holo: np.ndarray       # (n,) coefficients of the d/dz part (= N)
    j_grad_delta: np.ndarray  # (2n,) real vector J(grad delta) = i*nu

    @staticmethod
    def from_normal(N, grad_delta):
        N = np.asarray(N, dtype=complex)
        g = np.asarray(grad_delta, dtype=float)
        jg = np.empty_like(g)
        jg[0::2] = -g[1::2]
        jg[1::2] = g[0::2]
        return TransversalField(nu_holo=N, j_grad_delta=jg)

    def tangency_defect(self, grad_delta):
        return abs(float(np.dot(self.j_grad_delta, grad_delta)))


class BoundaryBatch:
    """Boundary points with delta-jets, batched."""

    def __init__(self, domain, positions, jet, residual):
        self.domain = domain
        self.positions = positions
        self.jet = jet
        self.residual = residual
        self.N = normal_n(jet)
        self.grad_delta = jet.rgrad

    @property
    def batch(self):
        return self.positions.shape[0]

    def subset(self, idx) -> "BoundaryBatch":
        idx = np.asarray(idx)
        return BoundaryBatch(self.domain, self.positions[idx],
                             self.jet.subset(idx), self.residual[idx])

    def point(self, i) -> "BoundaryPoint":
        return BoundaryPoint(self.domain, self.positions[i], self.jet.at(i),
                             self.N[i], self.grad_delta[i],
                             float(self.residual[i]))


@dataclass
class BoundaryPoint:
    """A boundary location with its delta-jet and normal data."""

    domain: DomainSpec
    position: np.ndarray
    jet: WirtingerJet
    N: np.ndarray
    grad_delta: np.ndarray
    foot_residual: float

    @property
    def n(self):
        return self.domain.n

    @property
    def nu(self) -> TransversalField:
        return TransversalField.from_normal(self.N, self.grad_delta)

    @property
    def z(self):
        return complex_pack(self.position[None])[0]

    def defects(self):
        """(|N delta - 1/2|, ||N + conj(N) - grad delta||, | |N|^2 - 1 |)."""
        w = self.jet.wgrad[0]
        nd = complex(np.dot(self.N, w))
        # realification of N + conj(N): x-components Re N_j, y-components Im N_j
        v = np.empty_like(self.grad_delta)
        v[0::2] = self.N.real
        v[1::2] = self.N.imag
        return (abs(nd - 0.5),
                float(np.linalg.norm(v - self.grad_delta)),
                abs(float(np.einsum("j,j->", self.N,
                                    np.conj(self.N)).real) - 1.0))


def boundary_batch(domain: DomainSpec, Z, order=2, ambiguity_check=False,
                   h=None) -> BoundaryBatch:
    """Project points to the boundary and attach delta-jets (vectorized)."""
    Z = np.atleast_2d(np.asarray(Z, dtype=float))
    feet, res = foot_points(domain, Z, ambiguity_check=ambiguity_check)
    jet = delta_jet(domain, feet, order=order, h=h)
    return BoundaryBatch(domain, feet, jet, res)


def project_to_boundary(domain: DomainSpec, z, order=2,
                        ambiguity_check=True) -> BoundaryPoint:
    """Nearest boundary point of z, with delta-jet of the requested order."""
    b = boundary_batch(domain, np.atleast_2d(z), order=order,
                       ambiguity_check=ambiguity_check)
    return b.point(0)
