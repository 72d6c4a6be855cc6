"""Signed distance to the boundary, its derivative jets, and the complex
normal field.

The signed distance delta is negative inside the domain, and its jets mean
something only where each point's foot is its nearest boundary point.
_nearest_feet is the one projection route: it slides several seeds per
point along the boundary, polishes the promising ones with damped Newton
on the constrained nearest-point system and keeps the nearest converged
foot.  Runs reach it through march_inward, the one way to an interior
point: it marches boundary points inward along the normal, keeps the
points whose nearest foot is the boundary point they came from, and
returns them with their delta-jets (the interior oracle's mesh and the
collar probe both take it).  foot_points, the projection's raising form
(AmbiguousFoot, NoConvergence), is the tests' reference projection.
delta-jets to order 3 come from the classical closed form of the
distance's derivatives in terms of the defining function's jet at the foot
(Gilbarg-Trudinger section 14.6; Krantz-Parks, Distance to C^k
hypersurfaces), exact to machine precision.  boundary_jet takes points
already on the boundary as their own feet and projects none.  Boundary
data is the delta-jet alone: normal_n forms the normal field N from it
where a caller needs N.
"""

from __future__ import annotations

import numpy as np

from .errors import AmbiguousFoot, NoConvergence, StencilLeak
from .jets import DomainSpec, WirtingerJet

_MAX_ITERS = 50
_KKT_TARGET = 1e-15          # aimed-for residual (machine floor), x scale
_KKT_REQUIRED = 1e-12        # contract: residual must end below this, x scale
_AMBIGUITY_TOL = 1e-6
# smallest eigenvalue of I + delta W at a verified mesh point: at most 3/4
# of the way to the focal point, so that |Hess delta| <= 4 |W| and the psi
# stencils' Taylor model of the foot map stays within about 5 steps
_MESH_FOCAL_MARGIN = 0.25
_CHUNK = 16384               # points per batch of _nearest_feet


def _chunks(B):
    for s in range(0, B, _CHUNK):
        yield slice(s, min(s + _CHUNK, B))


def _clip_box(domain, p):
    return np.clip(p, domain.box_lo, domain.box_hi)


def _kkt_step(J, F, jitter):
    """Newton steps solving J step = -F per point.  When some J is singular,
    each point is solved alone and only the singular J take jitter x I, so
    no point's step depends on the batch it is in."""
    try:
        return np.linalg.solve(J, -F[..., None])[..., 0]
    except np.linalg.LinAlgError:
        if J.ndim == 2:
            return np.linalg.solve(J + jitter * np.eye(len(F)), -F)
        return np.stack([_kkt_step(Jk, Fk, jitter) for Jk, Fk in zip(J, F)])


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
        step = _kkt_step(J, F, 1e-12 * scale)
        norm = np.linalg.norm(step[:, :D], axis=1)
        cap = 0.1 * scale
        shrink = np.where(norm > cap, cap / np.maximum(norm, 1e-300), 1.0)
        step = step * (alpha[active] * shrink)[:, None]
        p[active] = _clip_box(domain, p[active] + step[:, :D])
        lam[active] = lam[active] + step[:, D]
    return best_p, best_lam, best_res


def _multiplier(domain, Z, p):
    """(lam, off) at seeds p for the points Z: the KKT multiplier's estimate
    and p's first-order distance |rho| / |grad rho| to the boundary."""
    jet = domain.jet(p, order=1)
    g = jet.rgrad
    gg = np.maximum(np.einsum("ka,ka->k", g, g), 1e-300)
    lam = np.einsum("ka,ka->k", p - Z, g) / gg
    return lam, np.abs(jet.value) / np.sqrt(gg)


def _snap(domain, p):
    """Newton step for rho along its gradient from p: (the snapped point,
    rho's gradient g at p, |g|^2)."""
    jet = domain.jet(p, order=1)
    g = jet.rgrad
    gg = np.maximum(np.einsum("ka,ka->k", g, g), 1e-300)
    return _clip_box(domain, p - (jet.value / gg)[:, None] * g), g, gg


def _predict_gradient_flow(domain, Z, steps):
    """Seed: Newton steps for rho along its gradient from Z; returns
    (p, lam, off) as _multiplier gives them."""
    p = _clip_box(domain, Z)
    for _ in range(steps):
        p = _snap(domain, p)[0]
    return (p,) + _multiplier(domain, Z, p)


def _predict_tangential(domain, Z, X):
    """Seed from X for the points Z: a level-set snap, then sweeps of snap
    plus tangential pull toward Z, which slide it toward a stationary foot
    of Z; returns (p, lam, off)."""
    p = _snap(domain, _clip_box(domain, X))[0]
    for _ in range(6):
        p, g, gg = _snap(domain, p)
        d = Z - p
        coef = np.einsum("ka,ka->k", d, g) / gg
        p = _clip_box(domain, p + 0.7 * (d - coef[:, None] * g))
    return (p,) + _multiplier(domain, Z, p)


def _nearest_feet(domain: DomainSpec, Z):
    """(feet, residual, gap) per point, raising nothing: the nearest
    converged foot among the seeds, and the largest distance between two
    converged feet whose distances to the point are within 1e-9 x scale of
    the nearest (above _AMBIGUITY_TOL x scale on the cut locus).

    The first seed is the gradient flow from z, at distance r from z.  The
    others start at the reflection 2z - p of its foot and at z +- r e_k on
    the sphere through it, and slide along the boundary toward stationary
    feet of z (_predict_tangential).  Besides the first, a seed is polished
    only if it landed on the boundary no farther from z than the nearest
    such seed plus 0.2 r, and no earlier polished seed lies within 0.01 r
    of it; the polished seeds of a chunk go through one _kkt_polish call,
    whose damping is per point.  Of equally near feet the earliest seed's
    wins.  On the worm's oracle meshes (800 points, mesh seeds 0-15) no
    kept point has a boundary point nearer than its foot; four seeds at
    fixed offsets (the gradient flow from z and from z +- 0.03 x scale e_1,
    and the tangential seed from z) miss that on 70 of 12,131.
    """
    Z = np.atleast_2d(np.asarray(Z, dtype=float))
    B, D = Z.shape
    feet = np.empty_like(Z)
    res = np.empty(B)
    gap = np.empty(B)
    scale = domain.scale
    for sl in _chunks(B):
        z = Z[sl]
        p0, l0, o0 = _predict_gradient_flow(domain, z, 2)
        r = np.maximum(np.linalg.norm(z - p0, axis=1), 1e-3 * scale)
        starts = [2 * z - p0]
        for e in np.eye(D):
            starts += [z + r[:, None] * e, z - r[:, None] * e]
        S = 1 + len(starts)
        pt, lt, ot = _predict_tangential(domain, np.tile(z, (S - 1, 1)),
                                         np.concatenate(starts))
        seeds = np.concatenate([p0, pt]).reshape(S, -1, D)
        lams = np.concatenate([l0, lt]).reshape(S, -1)
        off = np.concatenate([o0, ot]).reshape(S, -1)
        a = np.where(off <= 0.01 * r, np.linalg.norm(seeds - z, axis=2),
                     np.inf)
        todo = a <= a.min(axis=0) + 0.2 * r
        todo[0] = True
        for s in range(1, S):
            same = np.linalg.norm(seeds[s] - seeds[:s], axis=2) <= 0.01 * r
            todo[s] &= ~np.any(same & todo[:s], axis=0)
        si, pi = np.nonzero(todo)
        p = np.zeros_like(seeds)
        rs = np.full(todo.shape, np.inf)
        p[si, pi], _, rs[si, pi] = _kkt_polish(domain, z[pi], seeds[si, pi],
                                               lams[si, pi])
        dist = np.where(rs <= _KKT_REQUIRED * scale,
                        np.linalg.norm(p - z, axis=2), np.inf)
        dmin = dist.min(axis=0)
        near = np.isfinite(dist) & (dist <= dmin + 1e-9 * scale)
        g = np.zeros(len(z))
        for s in range(S):
            spread = np.linalg.norm(p - p[s], axis=2)
            g = np.maximum(g, np.where(near & near[s], spread, 0.0).max(0))
        gap[sl] = g
        k = np.argmax(dist <= dmin + 1e-12 * scale, axis=0)
        cols = np.arange(len(k))
        feet[sl] = p[k, cols]
        res[sl] = rs[k, cols]
    return feet, res, gap


def foot_points(domain: DomainSpec, Z):
    """Feet of the nearest-point projection onto the boundary.

    Returns (feet (B,D), residual (B,)): each point's nearest converged
    foot among _nearest_feet's seeds.  Raises AmbiguousFoot when two of its
    nearest feet disagree (the point is on the cut locus) and NoConvergence
    when no seed's residual ends below _KKT_REQUIRED x scale.

    A foot is nearest among the seeds' stationary feet, not provably
    nearest on the whole boundary; on the worm, where a single seed can
    converge to a stationary foot 0.366 away while one 0.087 away exists,
    the seeds find one 0.0547 away.
    """
    feet, res, gap = _nearest_feet(domain, Z)
    scale = domain.scale
    bad = gap > _AMBIGUITY_TOL * scale
    if np.any(bad):
        raise AmbiguousFoot(
            f"{int(bad.sum())} point(s) near the cut locus; "
            f"restart feet differ by {gap.max():.3e}")
    if np.any(res > _KKT_REQUIRED * scale):
        raise NoConvergence(
            f"{int((res > _KKT_REQUIRED * scale).sum())} projection(s) above "
            f"residual {_KKT_REQUIRED:.0e} after {_MAX_ITERS} iterations")
    return feet, res


def march_inward(domain: DomainSpec, P, depth):
    """(points, delta-jet): the boundary points P marched inward along the
    unit normal by depth (outward where depth < 0), keeping each marched
    point Z whose nearest foot as the route finds it is P -- converged,
    unambiguous and within _AMBIGUITY_TOL x scale of P -- and which is
    short of a focal point of P by _MESH_FOCAL_MARGIN.  The jet is delta's
    of order 3 at the kept points, built from one rho-jet at their feet,
    which also gives the focal test.  Each point is projected once, and its
    result does not depend on the rest of the batch.  Raises StencilLeak
    where a kept point's |depth| exceeds the collar."""
    P = np.atleast_2d(np.asarray(P, dtype=float))
    g = domain.jet(P, order=1).rgrad
    nhat = g / np.linalg.norm(g, axis=1, keepdims=True)
    Z = P - depth[:, None] * nhat
    feet, res, gap = _nearest_feet(domain, Z)
    tol = _AMBIGUITY_TOL * domain.scale
    ok = (res <= _KKT_REQUIRED * domain.scale) & (gap <= tol) \
        & (np.linalg.norm(feet - P, axis=1) <= tol)
    Z, feet, depth = Z[ok], feet[ok], depth[ok]
    d = signed_distance_from_feet(domain, Z, feet)
    frame = _focal_frame(domain, feet, d, 3)
    keep = frame[-1] >= _MESH_FOCAL_MARGIN
    wide = np.abs(depth[keep]) > domain.collar_width
    if np.any(wide):
        raise StencilLeak(f"{int(wide.sum())} point(s) outside the collar")
    frame = [None if a is None else a[keep] for a in frame]
    return Z[keep], _delta_jet(frame, d[keep])


def signed_distance_from_feet(domain: DomainSpec, Z, feet):
    """delta(Z) given the feet of Z's projections onto the boundary."""
    return np.sign(domain.value(Z)) * np.linalg.norm(Z - feet, axis=1)


def _focal_frame(domain: DomainSpec, feet, d, order):
    """Normal frame at the feet of points at signed distance d: rho's
    Hessian and, at order 3, its third derivative (else None), |grad rho|,
    n, the tangent projector P, the shape operator
    W = P Hess rho P / |grad rho| and M = I + d W (None when d is 0
    everywhere, as M is I), with the smallest eigenvalue of M (at most 0 at
    or past a focal point, where the foot is not a nearest point)."""
    rj = domain.jet(feet, order=max(order, 2))
    g, H = rj.rgrad, rj.rhess
    gn = np.linalg.norm(g, axis=1)
    n = g / gn[:, None]
    eye = np.eye(feet.shape[1])
    P = eye - np.einsum("ka,kb->kab", n, n)
    W = P @ H @ P / gn[:, None, None]
    T = rj.rthird if order >= 3 else None
    if not np.any(d):
        return H, T, gn, n, P, W, None, np.ones(len(d))
    M = eye + d[:, None, None] * W
    return H, T, gn, n, P, W, M, np.linalg.eigvalsh(M)[:, 0]


def boundary_jet(domain: DomainSpec, P, order) -> WirtingerJet:
    """Jets of the signed distance at boundary points P, their own feet
    (delta = 0, grad delta = n, Hess delta = W).  Raises StencilLeak unless
    |rho(P)| <= _KKT_REQUIRED * scale, as for a projection's feet."""
    P = np.atleast_2d(np.asarray(P, dtype=float))
    off = np.abs(domain.value(P)) > _KKT_REQUIRED * domain.scale
    if np.any(off):
        raise StencilLeak(f"{int(off.sum())} point(s) off the boundary")
    d = np.zeros(P.shape[0])
    return _delta_jet(_focal_frame(domain, P, d, order), d)


def _delta_jet(frame, d) -> WirtingerJet:
    """delta's jet at signed distance d from the feet of a _focal_frame, of
    order 3 where the frame carries rho's third derivative and else 2, in
    closed form from rho's AD jet at the foot p.  With g = grad rho(p),
    n = g/|g|, P = I - n n^T and W = P Hess rho P / |g|: grad delta = n and
    Hess delta = W (I + delta W)^-1 (Gilbarg-Trudinger Lemma 14.17); the
    third derivative differentiates that along dp/dz = (I + delta W)^-1 P."""
    H, T, gn, n, P, W, M, _ = frame
    B, D = n.shape
    Minv = None if M is None else np.linalg.inv(M)
    G = W if M is None else W @ Minv
    G = 0.5 * (G + np.swapaxes(G, 1, 2))   # symmetric to the last bit
    t = None
    if T is not None:
        # derivative along z_c, stacked on axis 1 (the tensor is symmetric):
        # dp = S e_c, d delta = n_c, dn = G e_c and
        # d Hess delta = M^-1 dW M^-1 - n_c G^2
        S = P if M is None else Minv @ P
        dH = (S @ T.reshape(B, D, D * D)).reshape(B, D, D, D)
        dgn = (n[:, None, :] @ H @ S)[:, 0, :]
        dP = -(G[:, :, :, None] * n[:, None, None, :]
               + n[:, None, :, None] * G[:, :, None, :])
        X = dP @ (H @ P)[:, None]
        dW = (X + np.swapaxes(X, 2, 3) + P[:, None] @ dH @ P[:, None]
              - W[:, None] * dgn[:, :, None, None]) / gn[:, None, None, None]
        if M is not None:
            dW = Minv[:, None] @ dW @ Minv[:, None]
        t = dW - n[:, :, None, None] * (G @ G)[:, None]
    return WirtingerJet(d, n, G, t)


def normal_n(jet: WirtingerJet):
    """The (1,0) normal field N from a delta-jet: coefficients
    conj(d delta/dz_j) / sqrt(sum |d delta/dz_j|^2); unit coefficient vector.
    A delta-jet's gradient is the unit normal, so |d delta| is 1/2."""
    w = jet.wgrad
    s = np.sqrt(np.einsum("kj,kj->k", w, np.conj(w)).real)
    return np.conj(w) / s[:, None]
