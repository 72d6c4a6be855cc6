"""Signed distance, foot-point projection, and the normal field."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dfindex import distance, zoo
from dfindex.distance import (boundary_jet, foot_points, march_inward,
                              normal_n)
from dfindex.errors import AmbiguousFoot, NoConvergence, StencilLeak
from dfindex.pipelines import ORACLE_DEPTH
from references import (THIRD_STEP_FACTOR, _stencil, ball_delta_jet,
                        boundary_batch, delta_jet, hess, numeric_jet,
                        project_to_boundary, signed_distance)


def test_ball_radial_projection_outside(ball):
    bp = project_to_boundary(ball.domain, np.array([2.0, 0, 0, 0]))
    np.testing.assert_allclose(bp.position, [1, 0, 0, 0], atol=1e-12)
    d = signed_distance(ball.domain, np.array([[2.0, 0, 0, 0]]))
    assert abs(d[0] - 1.0) < 1e-12


def test_ball_radial_projection_inside(ball):
    for th in (0.3, 2.1, 4.4):
        z = np.array([0.5 * np.cos(th), 0.5 * np.sin(th), 0, 0])
        bp = project_to_boundary(ball.domain, z)
        np.testing.assert_allclose(bp.position,
                                   [np.cos(th), np.sin(th), 0, 0], atol=1e-10)
        d = signed_distance(ball.domain, z)
        assert abs(d[0] + 0.5) < 1e-12


def _bidisc_boundary_param(bidisc, X):
    # (x1, y1, phi) -> boundary point of the fattened bidisc
    r = bidisc.domain.meta["r"]
    M = bidisc.domain.meta["M"]
    s = X[:, 0] ** 2 + X[:, 1] ** 2 - r * r
    hinge = M * np.where(s > 0, s, 0.0) ** 4
    rad = np.sqrt(np.maximum(1.0 - hinge, 0.0))
    return np.stack([X[:, 0], X[:, 1],
                     rad * np.cos(X[:, 2]), rad * np.sin(X[:, 2])], axis=1)


def test_bidisc_foot_matches_dense_search(bidisc):
    # independent oracle: dense parametric grid search with local zooming
    Z, _ = bidisc.interior_mesh(8, seed=1, depth=ORACLE_DEPTH)
    feet, _ = foot_points(bidisc.domain, Z)
    R_mesh = 1.05
    coarse = np.stack(np.meshgrid(np.linspace(-R_mesh, R_mesh, 41),
                                  np.linspace(-R_mesh, R_mesh, 41),
                                  np.linspace(0, 2 * np.pi, 41),
                                  indexing="ij"), axis=-1).reshape(-1, 3)
    Pc = _bidisc_boundary_param(bidisc, coarse)
    for k in range(Z.shape[0]):
        dc = np.linalg.norm(Pc - Z[k], axis=1)
        seeds = coarse[np.argsort(dc)[:24]]
        brute = np.inf
        best = None
        for seed_center in seeds:
            center = seed_center.copy()
            span = np.array([0.08, 0.08, 0.25])
            for level in range(14):
                g = np.stack(np.meshgrid(*[np.linspace(c - s, c + s, 11)
                                           for c, s in zip(center, span)],
                                         indexing="ij"),
                             axis=-1).reshape(-1, 3)
                P = _bidisc_boundary_param(bidisc, g)
                d = np.linalg.norm(P - Z[k], axis=1)
                j = int(np.argmin(d))
                center = g[j]
                span = span * 0.4
            if d[j] < brute:
                brute = d[j]
                best = P[j]
        newton = np.linalg.norm(feet[k] - Z[k])
        assert abs(newton - brute) < 1e-6
        assert np.linalg.norm(feet[k] - best) < 1e-5


def test_projection_idempotent(zoo_entries):
    for entry in zoo_entries:
        P = entry.boundary_mesh(200, seed=2)
        feet, _ = foot_points(entry.domain, P)
        feet2, _ = foot_points(entry.domain, feet)
        assert np.max(np.linalg.norm(feet2 - feet, axis=1)) < 1e-10


def test_ambiguous_foot_at_center(ball):
    with pytest.raises(AmbiguousFoot):
        project_to_boundary(ball.domain, np.zeros(4))


def test_interior_mesh_drops_points_past_a_focal_point(worm):
    # the mesh keeps a point only short of a focal point of its foot by a
    # margin (one candidate of this mesh is dropped for it), so every kept
    # point has a delta-jet
    mesh, _ = worm.interior_mesh(300, 0, depth=ORACLE_DEPTH)
    assert len(mesh) > 250
    delta_jet(worm.domain, mesh, order=2)


# a worm point with a stationary foot 0.366 away, where a single Newton seed
# converges, and a boundary point 0.087 away (NEAR_FOOT)
NON_NEAREST_Z = np.array([1.1219770751814555, 0.9533157821189099,
                          0.13872159430291453, -0.3106343997250747])
NEAR_FOOT = np.array([1.1476709515325525, 0.9445739538723105,
                      0.17252771475502177, -0.38633525932407126])


def test_foot_points_returns_a_nearest_foot(worm):
    # the seeds find a foot 0.0547 from z, with residual 1.1e-16
    z = NON_NEAREST_Z
    assert abs(worm.domain.value(NEAR_FOOT[None])[0]) < 1e-12
    feet, res = foot_points(worm.domain, z[None])
    assert res[0] < 1e-12
    assert np.linalg.norm(feet[0] - z) <= np.linalg.norm(NEAR_FOOT - z)


def _worm_boundary_distance(worm, Q, samples=20001):
    """Distance from points Q to the worm's boundary part over a dense grid
    of u = log|z2|^2: at fixed u that part is the product of the circle
    |z1 + e^(iu)| = rad(u) and the circle |z2| = e^(u/2), whose distances
    are closed-form, so the grid's distance bounds Q's from above."""
    meta = worm.domain.meta
    u = np.linspace(-meta["u_star"], meta["u_star"], samples)
    rad = np.sqrt(np.maximum(
        1.0 - meta["M"] * np.maximum(np.abs(u) - meta["a"], 0.0) ** 4, 0.0))
    z1 = Q[:, 0] + 1j * Q[:, 1]
    z2 = np.hypot(Q[:, 2], Q[:, 3])
    out = np.empty(len(Q))
    for k in range(len(Q)):
        d1 = np.abs(z1[k] + np.exp(1j * u)) - rad
        d2 = np.exp(u / 2) - z2[k]
        out[k] = np.sqrt(np.min(d1 * d1 + d2 * d2))
    return out


@pytest.mark.parametrize("count,seed", [(200, 7), (800, 1), (800, 8),
                                        (800, 12)])
def test_worm_oracle_mesh_depths_are_nearest_distances(worm, count, seed):
    # every kept point's constructed depth |Q - P| is at most its distance
    # to a dense boundary sample (largest excess -1.3e-15 measured).  A
    # mesh that keeps a point when one Newton seed and a restart agree on
    # its foot fails this on each of these meshes, at 4 to 11 points and by
    # up to 0.040
    mesh, delta = worm.interior_mesh(count, seed, depth=ORACLE_DEPTH)
    depth = -delta.value
    assert np.all(depth >= ORACLE_DEPTH[0] - 1e-9)
    excess = depth - _worm_boundary_distance(worm, mesh)
    assert excess.max() <= 1e-9


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 9")
def test_wide_worm_oracle_mesh_depths_are_nearest_distances():
    # at beta = 2 pi the mesh keeps 644 of 800 points, and the one at
    # |z2| = 0.1017 has a boundary point 0.0335 nearer than its depth: the
    # first seed's gradient flow lands far off the boundary there, and every
    # seed then converges to the far foot
    worm = zoo.make_worm(2 * np.pi)
    mesh, delta = worm.interior_mesh(800, 12, depth=ORACLE_DEPTH)
    depth = -delta.value
    excess = depth - _worm_boundary_distance(worm, mesh)
    assert excess.max() <= 1e-9


@pytest.mark.parametrize("name", ["ball", "bidisc", "worm", "quartic"])
def test_interior_mesh_feet_are_the_projections(name, request):
    # the mesh's delta-jet is built at the feet that foot_points gives, so
    # it is delta_jet's bit for bit, and the oracle takes it without
    # projecting again
    entry = request.getfixturevalue(name)
    mesh, delta = entry.interior_mesh(100, 3, depth=ORACLE_DEPTH)
    want = delta_jet(entry.domain, mesh, order=3)
    for attr in ("value", "rgrad", "rhess", "rthird"):
        np.testing.assert_array_equal(getattr(delta, attr),
                                      getattr(want, attr))


def _collar_points(entry, count, seed):
    """Boundary mesh points moved along the normal by up to half the collar
    width to either side."""
    dom = entry.domain
    P = entry.boundary_mesh(count, seed)
    g = dom.jet(P, order=1).rgrad
    n = g / np.linalg.norm(g, axis=1, keepdims=True)
    t = np.random.default_rng(seed).uniform(-0.5, 0.5, count)
    return P + (t * dom.collar_width)[:, None] * n


@pytest.mark.parametrize("name", ["worm", "quartic"])
@pytest.mark.parametrize("ambiguity_check", [False, True])
def test_foot_points_batch_invariant(name, ambiguity_check, request,
                                     monkeypatch):
    # a point's foot must not depend on the rest of its batch: the mesh's
    # delta-jet is built at the feet its verification projected, and all
    # seeds of a chunk are polished in one stacked call.  Without the ambiguity check
    # the route (_nearest_feet) also returns each point's gap between its
    # nearest feet; with it, foot_points raises where that gap is too large
    dom = request.getfixturevalue(name).domain
    Z = _collar_points(request.getfixturevalue(name), 150, seed=9)

    def project(Z):
        if ambiguity_check:
            return foot_points(dom, Z)
        return distance._nearest_feet(dom, Z)

    out = project(Z)
    perm = np.random.default_rng(10).permutation(len(Z))
    for a, b in zip(project(Z[perm]), out):
        np.testing.assert_array_equal(a, b[perm])
    for size in (1, 7, 64):
        monkeypatch.setattr(distance, "_CHUNK", size)
        for a, b in zip(project(Z), out):
            np.testing.assert_array_equal(a, b)


def test_kkt_polish_does_not_share_a_singular_seeds_jitter(bidisc):
    # at z2 = 0, |z1| < r the bidisc's rho has no gradient, so the KKT
    # matrix of a seed there is singular; its jitter must not reach the
    # ordinary seeds polished beside it
    dom = bidisc.domain
    Z = np.random.default_rng(5).uniform(-0.9, 0.9, size=(6, 4))
    p, lam, _ = distance._predict_gradient_flow(dom, Z, 2)
    singular = np.array([[0.1, 0.0, 0.0, 0.0]])
    alone = distance._kkt_polish(dom, Z, p.copy(), lam.copy())
    beside = distance._kkt_polish(dom, np.concatenate([Z, singular]),
                                  np.concatenate([p, singular]),
                                  np.append(lam, 0.3))
    for a, b in zip(alone, beside):
        np.testing.assert_array_equal(a, b[:len(Z)])


def test_stencil_leak_outside_collar(ball):
    # |delta| = 0.5 against the ball's collar width 0.22
    with pytest.raises(StencilLeak, match="collar"):
        delta_jet(ball.domain, np.array([[1.5, 0, 0, 0]]), order=2)


@pytest.mark.parametrize("name", ["ball", "bidisc", "worm", "quartic"])
def test_boundary_jet_matches_delta_jet_at_feet(name, request):
    # delta = 0, grad delta = n and Hess delta = W at the feet themselves,
    # against delta_jet, which projects the feet once more (measured worst
    # 4.4e-16 of the largest entry, and 0 on the ball and the bidisc)
    entry = request.getfixturevalue(name)
    feet, _ = foot_points(entry.domain, entry.boundary_mesh(500, 3))
    got = boundary_jet(entry.domain, feet, order=3)
    want = delta_jet(entry.domain, feet, order=3)
    np.testing.assert_array_equal(got.value, 0.0)
    for a, b in ((got.rgrad, want.rgrad), (got.rhess, want.rhess),
                 (got.rthird, want.rthird)):
        assert np.max(np.abs(a - b)) <= 1e-13 * np.max(np.abs(b))


def test_boundary_jet_rejects_points_off_the_boundary(ball):
    # rho = 1e-6, far above the 1e-12 x scale residual of a projected foot
    P = np.array([[np.sqrt(1.0 + 1e-6), 0, 0, 0]])
    assert abs(ball.domain.value(P)[0] - 1e-6) < 1e-12
    with pytest.raises(StencilLeak, match="off the boundary"):
        boundary_jet(ball.domain, P, order=2)


@pytest.mark.parametrize("name", ["ball", "bidisc", "worm", "quartic"])
def test_boundary_jet_equals_the_general_path(name, request):
    # at d = 0 boundary_jet skips the focal solve, since M = I + d W is I;
    # the smallest positive d takes the general path with M = I but for
    # subnormal entries d W, so the two agree to those subnormals
    entry = request.getfixturevalue(name)
    P = entry.boundary_mesh(300, seed=5)
    got = boundary_jet(entry.domain, P, order=3)
    d = np.full(len(P), 5e-324)
    want = distance._delta_jet(distance._focal_frame(entry.domain, P, d, 3), d)
    for a, b in ((got.rgrad, want.rgrad), (got.rhess, want.rhess),
                 (got.rthird, want.rthird)):
        np.testing.assert_allclose(a, b, rtol=0, atol=1e-300)


def test_stencil_leak_at_and_past_focal_point(ball, monkeypatch):
    wide = dataclasses.replace(ball.domain, collar_frac=1.0)
    # the centre is the focal point of every foot (I + delta W = n n^T) and
    # on the cut locus, where the projection finds two nearest feet
    with pytest.raises(StencilLeak, match="cut locus"):
        delta_jet(wide, np.zeros((1, 4)), order=1)
    # a stationary but not nearest foot puts z past the focal point:
    # delta = -1.2, so I + delta W has eigenvalue -0.2 on T_p
    monkeypatch.setattr(distance, "foot_points", lambda domain, Z, **kw: (
        np.array([[1.0, 0, 0, 0]]), np.zeros(1)))
    with pytest.raises(StencilLeak, match="focal"):
        delta_jet(wide, np.array([[-0.2, 0, 0, 0]]), order=3)


def test_stencil_leak_when_projection_fails(ball, monkeypatch):
    def fail(domain, Z, **kw):
        raise NoConvergence("no foot")

    monkeypatch.setattr(distance, "foot_points", fail)
    with pytest.raises(StencilLeak, match="projection failed"):
        delta_jet(ball.domain, np.array([[1.0, 0, 0, 0]]), order=2)


# ---------------------------------------------------------------------------
# delta-jets against the ball's closed form
# ---------------------------------------------------------------------------

def test_ball_delta_jets_match_closed_form(ball):
    rng = np.random.default_rng(3)
    v = rng.normal(size=(300, 4))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    P = v * rng.uniform(0.9, 1.1, 300)[:, None]
    jet = delta_jet(ball.domain, P, order=3)
    ref = ball_delta_jet(P, 1.0, order=3)
    rel2 = np.abs(jet.rhess - ref.rhess) / np.maximum(np.abs(ref.rhess), 0.1)
    rel1 = np.abs(jet.rgrad - ref.rgrad) / np.maximum(np.abs(ref.rgrad), 0.1)
    assert rel1.max() < 1e-12
    assert rel2.max() < 1e-12
    rel3 = np.abs(jet.rthird - ref.rthird) / np.maximum(np.abs(ref.rthird), 1.0)
    assert rel3.max() < 1e-12


@settings(max_examples=25, deadline=None)
@given(radius=st.floats(0.05, 20.0), seed=st.integers(0, 2 ** 16))
def test_ball_delta_jet_radius_scaling(radius, seed):
    # delta_r(r x) = r delta_1(x): grad invariant, Hess / r, third / r^2
    rng = np.random.default_rng(seed)
    v = rng.normal(size=(20, 4))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    X = v * rng.uniform(0.92, 1.08, 20)[:, None]
    unit = delta_jet(zoo.make_ball(1.0).domain, X, order=3)
    jet = delta_jet(zoo.make_ball(radius).domain, radius * X, order=3)
    np.testing.assert_allclose(jet.value, radius * unit.value,
                               rtol=1e-12, atol=1e-12 * radius)
    np.testing.assert_allclose(jet.rgrad, unit.rgrad, rtol=0, atol=1e-12)
    np.testing.assert_allclose(radius * jet.rhess, unit.rhess, rtol=0,
                               atol=1e-12)
    np.testing.assert_allclose(radius ** 2 * jet.rthird, unit.rthird, rtol=0,
                               atol=1e-11)


# ---------------------------------------------------------------------------
# delta-jets against finite differences over Newton projections
# ---------------------------------------------------------------------------

# step of the reference differences, in units of domain.scale: it keeps the
# h^4 Richardson remainder below 1e-6 relative at the zoo's worst boundary
# curvature, while the machine-floor projection noise stays two decades
# under truncation
FD_DELTA_STEP = 1.5e-4


def fd_delta_jet(domain, Z, order):
    """Reference delta-jets: centred differences, with one Richardson
    level, of the signed distance, every stencil node projected."""
    return numeric_jet(lambda Q: signed_distance(domain, Q), Z, order,
                       h=FD_DELTA_STEP * domain.scale)


def crease_sides(entry, F):
    """Sign of each jhinge_pow argument at feet F (..., D): one column per
    crease of the entry's defining function."""
    if entry.id == "bidisc":
        r = entry.domain.meta["r"]
        return np.sign(F[..., 0] ** 2 + F[..., 1] ** 2 - r * r)[..., None]
    if entry.id == "worm":
        u = np.log(F[..., 2] ** 2 + F[..., 3] ** 2)
        a = entry.domain.meta["a"]
        return np.stack([np.sign(u - a), np.sign(-u - a)], axis=-1)
    return np.zeros(F.shape[:-1] + (0,))


def straddles_crease(entry, Z):
    """True where the reference's order-3 stencil has feet on both sides of
    a crease, so its differences mix the two one-sided jets."""
    h = FD_DELTA_STEP * entry.domain.scale
    O, _ = _stencil(Z.shape[1], 3)
    steps = (h, h / 2, h * THIRD_STEP_FACTOR, h * THIRD_STEP_FACTOR / 2)
    nodes = Z[:, None, :] + np.concatenate([s * O for s in steps])[None]
    feet, _ = foot_points(entry.domain, nodes.reshape(-1, Z.shape[1]))
    sides = crease_sides(entry, feet.reshape(nodes.shape))
    return np.any(sides.min(axis=1) != sides.max(axis=1), axis=-1)


@pytest.mark.parametrize("name", ["bidisc", "worm", "quartic"])
def test_delta_jets_match_finite_differences(name, request):
    entry = request.getfixturevalue(name)
    dom = entry.domain
    P = entry.boundary_mesh(60, seed=12)
    # P + u n: points on both sides of the boundary
    rng = np.random.default_rng(13)
    Q, _ = march_inward(dom, P, -rng.uniform(-0.25, 0.25, 60)
                        * dom.collar_width)
    for Z in (P, Q):
        keep = ~straddles_crease(entry, Z)
        assert keep.sum() >= 0.9 * len(Z)
        Z = Z[keep]
        jet = delta_jet(dom, Z, order=3)
        ref = fd_delta_jet(dom, Z, order=3)
        for got, want, floor, budget in (
                (jet.rgrad, ref.rgrad, 0.1, 1e-6),
                (jet.rhess, ref.rhess, 0.1, 1e-6),
                (jet.rthird, ref.rthird, 1.0, 1e-4)):
            rel = np.abs(got - want) / np.maximum(np.abs(want), floor)
            assert rel.max() < budget


def test_ball_restricted_levi_is_half(ball):
    bp = project_to_boundary(ball.domain, np.array([1.0, 0, 0, 0]))
    tangent = np.array([0.0, 1.0 + 0j])
    val = hess(bp.jet, tangent, tangent)[0]
    assert abs(val - 0.5) < 1e-12


def test_eikonal(zoo_entries):
    for entry in zoo_entries:
        P = entry.boundary_mesh(100, seed=4)
        rng = np.random.default_rng(5)
        Q, marched = march_inward(entry.domain, P, rng.uniform(0.2, 0.8, 100)
                                  * (0.25 * entry.domain.collar_width))
        jet = delta_jet(entry.domain, Q, order=1)
        assert np.max(np.abs(np.linalg.norm(jet.rgrad, axis=1) - 1.0)) < 1e-12
        # |d delta| = 1/2 on every delta-jet, which normal_n divides by
        for wgrad in (marched.wgrad,
                      boundary_jet(entry.domain, P, order=1).wgrad):
            assert np.max(np.abs(np.linalg.norm(wgrad, axis=1) - 0.5)) \
                < 1e-12


def test_normal_properties_on_every_zoo_boundary(zoo_entries):
    # N delta = 1/2, N + conj N = grad delta, unit coefficient vector
    for entry in zoo_entries:
        P = entry.boundary_mesh(1000, seed=6)
        batch = boundary_batch(entry.domain, P, order=1)
        w = batch.jet.wgrad
        nd = np.einsum("kj,kj->k", batch.N, w)
        assert np.max(np.abs(nd - 0.5)) < 1e-12
        v = np.empty_like(batch.grad_delta)
        v[:, 0::2] = batch.N.real
        v[:, 1::2] = batch.N.imag
        assert np.max(np.linalg.norm(v - batch.grad_delta, axis=1)) < 1e-12
        norms = np.einsum("kj,kj->k", batch.N, np.conj(batch.N)).real
        assert np.max(np.abs(norms - 1.0)) < 1e-12


def test_quadric_normal_derivative_is_half(ball, quartic):
    # N delta = 1/2 at quadric-style boundaries
    for entry in (ball, quartic):
        P = entry.boundary_mesh(200, seed=7)
        batch = boundary_batch(entry.domain, P, order=1)
        nd = np.einsum("kj,kj->k", batch.N, batch.jet.wgrad)
        assert np.max(np.abs(nd - 0.5)) < 1e-12


def test_worm_normal_matches_defining_function_normal(worm):
    # on the boundary the normalized rho-gradient gives the same N
    P = worm.boundary_mesh(300, seed=8)
    batch = boundary_batch(worm.domain, P, order=1)
    jr = worm.domain.jet(batch.positions, order=1)
    w = jr.wgrad
    s = np.sqrt(np.einsum("kj,kj->k", w, np.conj(w)).real)
    N_rho = np.conj(w) / s[:, None]
    assert np.max(np.abs(N_rho - batch.N)) < 1e-12


def test_normal_n_single_jet(ball):
    jet = delta_jet(ball.domain, np.array([[1.0, 0, 0, 0]]), order=1)
    N = normal_n(jet)
    np.testing.assert_allclose(N[0], [1.0, 0.0], atol=1e-8)
