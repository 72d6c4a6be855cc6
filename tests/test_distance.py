"""Signed distance, foot-point projection, and the normal field."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dfindex import distance, zoo
from dfindex.distance import (boundary_batch, cut_locus_mask, delta_jet,
                              foot_points, normal_n, project_to_boundary,
                              signed_distance)
from dfindex.errors import AmbiguousFoot, NoConvergence, StencilLeak
from dfindex.pipelines import ORACLE_DEPTH
from references import (THIRD_STEP_FACTOR, _stencil, ball_delta_jet, hess,
                        numeric_jet)


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
    Z = bidisc.interior_mesh(8, seed=1)
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


def test_cut_locus_mask(ball):
    pts = np.array([[0.0, 0, 0, 0], [0.5, 0, 0, 0]])
    mask = cut_locus_mask(ball.domain, pts)
    assert mask[0] and not mask[1]


def test_interior_mesh_drops_points_past_a_focal_point(worm):
    # both restarts agree on one point of this mesh whose foot is past a
    # focal point (I + delta W not positive definite); the mask drops it,
    # so every kept point has a delta-jet
    mesh = worm.interior_mesh(300, 0, depth=ORACLE_DEPTH)
    assert len(mesh) > 250
    delta_jet(worm.domain, mesh, order=2)


# a node of the order-2 difference stencil around worm.interior_mesh(200, 7,
# depth=ORACLE_DEPTH)[117], 0.011 from that mesh point
NON_NEAREST_Z = np.array([1.1219770751814555, 0.9533157821189099,
                          0.13872159430291453, -0.3106343997250747])


@pytest.fixture(scope="module")
def non_nearest_feet(worm):
    """(z, the foot foot_points returns for z, the foot of the nearby mesh
    point)."""
    mesh = worm.interior_mesh(200, 7, depth=ORACLE_DEPTH)
    near, _ = foot_points(worm.domain, mesh[117:118], ambiguity_check=False)
    feet, res = foot_points(worm.domain, NON_NEAREST_Z[None],
                            ambiguity_check=False)
    assert res[0] < 1e-12
    return NON_NEAREST_Z, feet[0], near[0]


def test_non_nearest_foot_is_flagged_by_the_cut_locus_mask(worm,
                                                           non_nearest_feet):
    z, foot, near = non_nearest_feet
    assert np.linalg.norm(foot - z) > 0.3
    assert np.linalg.norm(near - z) < 0.1
    assert cut_locus_mask(worm.domain, z[None])[0]


@pytest.mark.xfail(strict=True, reason="foot_points can return a stationary "
                   "foot that is not a nearest one (see its docstring)")
def test_foot_points_returns_a_nearest_foot(non_nearest_feet):
    # a boundary point 0.087 from z exists, yet the returned foot, with
    # residual 2.6e-15, lies 0.366 from z
    z, foot, near = non_nearest_feet
    assert np.linalg.norm(foot - z) <= np.linalg.norm(near - z)


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
    # the oracle projects its stencil nodes in one batch and reuses the feet,
    # so a point's foot must not depend on the rest of its batch
    dom = request.getfixturevalue(name).domain
    Z = _collar_points(request.getfixturevalue(name), 150, seed=9)
    feet, res = foot_points(dom, Z, ambiguity_check=ambiguity_check)
    perm = np.random.default_rng(10).permutation(len(Z))
    feet_p, res_p = foot_points(dom, Z[perm], ambiguity_check=ambiguity_check)
    np.testing.assert_array_equal(feet_p, feet[perm])
    np.testing.assert_array_equal(res_p, res[perm])
    chunks = distance._chunks
    for size in (1, 7, 64):
        monkeypatch.setattr(distance, "_chunks",
                            lambda B, size=size: chunks(B, size))
        feet_c, res_c = foot_points(dom, Z, ambiguity_check=ambiguity_check)
        np.testing.assert_array_equal(feet_c, feet)
        np.testing.assert_array_equal(res_c, res)


def test_stencil_leak_outside_collar(ball):
    # |delta| = 0.5 against the ball's collar width 0.22
    with pytest.raises(StencilLeak, match="collar"):
        delta_jet(ball.domain, np.array([[1.5, 0, 0, 0]]), order=2)


def test_stencil_leak_at_and_past_focal_point(ball, monkeypatch):
    wide = dataclasses.replace(ball.domain, collar_frac=1.0)
    # the centre is the focal point of every foot: I + delta W = n n^T
    with pytest.raises(StencilLeak, match="focal"):
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
    nhat = dom.jet(P, order=1).rgrad
    nhat /= np.linalg.norm(nhat, axis=1, keepdims=True)
    rng = np.random.default_rng(13)
    Q = P + rng.uniform(-0.25, 0.25, 60)[:, None] * dom.collar_width * nhat
    Q = Q[~cut_locus_mask(dom, Q)]
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
        jets = entry.domain.jet(P, order=1)
        nhat = jets.rgrad / np.linalg.norm(jets.rgrad, axis=1, keepdims=True)
        Q = P - rng.uniform(0.2, 0.8, 100)[:, None] * \
            (0.25 * entry.domain.collar_width) * nhat
        Q = Q[~cut_locus_mask(entry.domain, Q)]
        jet = delta_jet(entry.domain, Q, order=1)
        assert np.max(np.abs(np.linalg.norm(jet.rgrad, axis=1) - 1.0)) < 1e-12


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
