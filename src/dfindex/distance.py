"""Signed distance to the boundary, its derivative jets, and the complex
normal field.

The signed distance delta is negative inside the domain.  Feet are found by a
gradient-flow predictor followed by Newton on the constrained nearest-point
system.  delta-jets to order 3 come from one projection per point: the
classical closed form of the distance's derivatives in terms of the
defining function's jet at the foot (Gilbarg-Trudinger section 14.6;
Krantz-Parks, Distance to C^k hypersurfaces), exact to machine precision.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (AmbiguousFoot, DegenerateGradient, NoConvergence,
                     StencilLeak)
from .jets import DomainSpec, WirtingerJet

_MAX_ITERS = 50
_KKT_TARGET = 1e-15          # aimed-for residual (machine floor), x scale
_KKT_REQUIRED = 1e-12        # contract: residual must end below this, x scale
_AMBIGUITY_TOL = 1e-6
# smallest eigenvalue of I + delta W accepted: 0 at a focal point
_FOCAL_FLOOR = 1e-8


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

    def residual(rows):
        """Iterates, rho's gradient and Hessian, both KKT blocks and the
        residual at the given rows."""
        pa = p[rows]
        la = lam[rows]
        jet = domain.jet(pa, order=2)
        F1 = pa - Z[rows] + la[:, None] * jet.rgrad
        res = np.maximum(np.max(np.abs(F1), axis=1), np.abs(jet.value))
        return pa, la, jet.rgrad, jet.rhess, F1, jet.value, res

    for _ in range(_MAX_ITERS):
        pa, la, grad, hess, F1, F2, res = residual(active)
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
            pa, la, grad, hess, F1, F2, res = residual(active)
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

    Known defect: without the ambiguity check a converged foot is a
    stationary point of the distance but not always a nearest one.  On the
    worm, a point 0.011 from an interior mesh point can get a foot 0.366
    away while the mesh point's foot is 0.087 away; cut_locus_mask flags
    such points, but difference stencils around mesh points project them
    unchecked.
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
    """True where the nearest-point projection is unreliable (point at or
    beyond the cut locus of the boundary): the two restart strategies
    disagree or fail to converge, or Z is at or past a focal point of the
    foot that foot_points takes, where delta_jet raises StencilLeak."""
    Z = np.atleast_2d(np.asarray(Z, dtype=float))
    scale = domain.scale
    p0, l0 = _predict_gradient_flow(domain, Z, 2)
    pa, _, ra = _kkt_polish(domain, Z, p0, l0)
    p1, l1 = _predict_tangential(domain, Z, sweeps=20, relax=0.5)
    pb, _, rb = _kkt_polish(domain, Z, p1, l1)
    gap = np.linalg.norm(pa - pb, axis=1)
    ok_a = ra <= _KKT_REQUIRED * scale
    fail = np.minimum(ra, rb) > _KKT_REQUIRED * scale
    disagree = (gap > gap_tol * scale) & ok_a & (rb <= _KKT_REQUIRED * scale)
    bad = fail | disagree
    # the converged foot, as foot_points takes it
    keep = np.flatnonzero(~bad)
    feet = np.where(ok_a[:, None], pa, pb)[keep]
    d = signed_distance_from_feet(domain, Z[keep], feet)
    bad[keep] = _focal_frame(domain, feet, d, order=2)[-1]
    return bad


def signed_distance(domain: DomainSpec, Z, ambiguity_check=False):
    """delta(Z): negative inside, positive outside, zero on the boundary."""
    Z = np.atleast_2d(np.asarray(Z, dtype=float))
    feet, _ = foot_points(domain, Z, ambiguity_check=ambiguity_check)
    return signed_distance_from_feet(domain, Z, feet)


def signed_distance_from_feet(domain: DomainSpec, Z, feet):
    """delta(Z) given the feet of Z's projections onto the boundary."""
    return np.sign(domain.value(Z)) * np.linalg.norm(Z - feet, axis=1)


def _focal_frame(domain: DomainSpec, feet, d, order):
    """Normal frame at the feet of points at signed distance d: rho's jet
    (order >= 2), |grad rho|, n, the tangent projector P, the shape operator
    W = P Hess rho P / |grad rho| and M = I + d W, with the mask of points
    at or past a focal point (smallest eigenvalue of M at most
    _FOCAL_FLOOR, where the foot is not a nearest point)."""
    rj = domain.jet(feet, order=max(order, 2))
    g, H = rj.rgrad, rj.rhess
    gn = np.linalg.norm(g, axis=1)
    n = g / gn[:, None]
    eye = np.eye(feet.shape[1])
    P = eye - np.einsum("ka,kb->kab", n, n)
    W = P @ H @ P / gn[:, None, None]
    M = eye + d[:, None, None] * W
    focal = np.linalg.eigvalsh(M)[:, 0] <= _FOCAL_FLOOR
    return rj, gn, n, P, W, M, focal


def delta_jet(domain: DomainSpec, z, order=2) -> WirtingerJet:
    """Jets of the signed distance at collar points z (single or batch).

    Each point is projected once; the jet is built in closed form from the
    defining function's AD jet at the foot p.  With g = grad rho(p),
    n = g/|g|, P = I - n n^T and the shape operator W = P Hess rho P / |g|:
    grad delta = n and Hess delta = W (I + delta W)^-1 (Gilbarg-Trudinger
    Lemma 14.17).  The third derivative differentiates that identity along
    dp/dz = (I + delta W)^-1 P, which needs Hess rho and the third tensor of
    rho at p only.  Raises StencilLeak when |delta| exceeds the collar, the
    projection does not converge, or I + delta W is not positive definite
    (z at or past a focal point, where the foot is not a nearest point).
    """
    Z = np.atleast_2d(np.asarray(z, dtype=float))
    try:
        feet, _ = foot_points(domain, Z, ambiguity_check=False)
    except NoConvergence as exc:
        raise StencilLeak(f"projection failed: {exc}") from exc
    d = signed_distance_from_feet(domain, Z, feet)
    if np.any(np.abs(d) > domain.collar_width):
        raise StencilLeak(f"{int((np.abs(d) > domain.collar_width).sum())} "
                          "point(s) outside the collar")
    rj, gn, n, P, W, M, focal = _focal_frame(domain, feet, d, order)
    if np.any(focal):
        raise StencilLeak(f"{int(focal.sum())} point(s) at or past a focal "
                          "point of the boundary")
    B, D = Z.shape
    if order < 2:
        return WirtingerJet(d, n)
    Minv = np.linalg.inv(M)
    G = W @ Minv
    G = 0.5 * (G + np.swapaxes(G, 1, 2))   # symmetric to the last bit
    t = None
    if order >= 3:
        # derivative along z_c, stacked on axis 1 (the tensor is symmetric):
        # dp = S e_c, d delta = n_c, dn = G e_c and
        # d Hess delta = M^-1 dW M^-1 - n_c G^2
        S = Minv @ P
        H = rj.rhess
        dH = (S @ rj.rthird.reshape(B, D, D * D)).reshape(B, D, D, D)
        dgn = (n[:, None, :] @ H @ S)[:, 0, :]
        dP = -(G[:, :, :, None] * n[:, None, None, :]
               + n[:, None, :, None] * G[:, :, None, :])
        X = dP @ (H @ P)[:, None]
        dW = (X + np.swapaxes(X, 2, 3) + P[:, None] @ dH @ P[:, None]
              - W[:, None] * dgn[:, :, None, None]) / gn[:, None, None, None]
        t = Minv[:, None] @ dW @ Minv[:, None] \
            - n[:, :, None, None] * (G @ G)[:, None]
    return WirtingerJet(d, n, G, t)


def normal_n(jet: WirtingerJet):
    """The (1,0) normal field N from a delta-jet: coefficients
    conj(d delta/dz_j) / sqrt(sum |d delta/dz_j|^2); unit coefficient vector.
    """
    w = jet.wgrad
    s = np.sqrt(np.einsum("kj,kj->k", w, np.conj(w)).real)
    if np.any(s < 1e-8):
        raise DegenerateGradient("vanishing Wirtinger gradient")
    return np.conj(w) / s[:, None]


class BoundaryBatch:
    """Boundary points with delta-jets, batched."""

    def __init__(self, domain, positions, jet, residual):
        self.domain = domain
        self.positions = positions
        self.jet = jet
        self.residual = residual
        self.N = normal_n(jet)
        self.grad_delta = jet.rgrad

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


def boundary_batch(domain: DomainSpec, Z, order=2,
                   ambiguity_check=False) -> BoundaryBatch:
    """Project points to the boundary and attach delta-jets (vectorized)."""
    Z = np.atleast_2d(np.asarray(Z, dtype=float))
    feet, res = foot_points(domain, Z, ambiguity_check=ambiguity_check)
    jet = delta_jet(domain, feet, order=order)
    return BoundaryBatch(domain, feet, jet, res)


def project_to_boundary(domain: DomainSpec, z, order=2,
                        ambiguity_check=True) -> BoundaryPoint:
    """Nearest boundary point of z, with delta-jet of the requested order."""
    b = boundary_batch(domain, np.atleast_2d(z), order=order,
                       ambiguity_check=ambiguity_check)
    return b.point(0)
