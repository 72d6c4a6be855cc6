"""Restricted Levi forms, degenerate-set detection, criterion terms."""

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from dfindex import zoo
from dfindex.distance import foot_points
from dfindex.errors import NotDegenerate, NotPseudoconvex, OrderTooLow
from dfindex.jets import DomainSpec, jhinge_pow
from dfindex.levi import detect_sigma, levi_spectrum
from dfindex.util import complex_pack, complex_unpack, median
from references import (ball_delta_jet, boundary_batch, boundary_point,
                        levi_decompose, levi_min_via_rho, mixed_term,
                        null_cross_residual, project_to_boundary, third_term,
                        third_term_field)


def test_ball_levi_decomposition(ball):
    bp = project_to_boundary(ball.domain, np.array([1.0, 0, 0, 0]))
    ld = levi_decompose(bp)
    assert ld.levi.shape == (1, 1)
    assert abs(ld.levi[0, 0] - 0.5) < 1e-12
    assert abs(ld.lambda_min - 0.5) < 1e-12
    # frame orthonormal and orthogonal to N
    assert abs(np.vdot(ld.frame[0], ld.frame[0]) - 1.0) < 1e-10
    assert abs(np.vdot(ld.frame[0], bp.N)) < 1e-10


@settings(max_examples=25, deadline=None)
@given(radius=st.floats(0.05, 20.0), seed=st.integers(0, 2 ** 16))
def test_ball_radius_two_scaling(radius, seed):
    # the restricted Levi eigenvalue of the radius-r ball is 1/(2r) at every
    # boundary point
    v = np.random.default_rng(seed).normal(size=4)
    bp = project_to_boundary(zoo.make_ball(radius).domain,
                             radius * v / np.linalg.norm(v))
    ld = levi_decompose(bp)
    assert abs(ld.lambda_min * 2 * radius - 1.0) < 1e-12


def test_bidisc_null_direction(bidisc):
    for th in (0.0, 1.2):
        z = np.array([0.0, 0.0, np.cos(th), np.sin(th)])
        bp = project_to_boundary(bidisc.domain, z)
        ld = levi_decompose(bp)
        assert abs(ld.lambda_min) < 1e-8
        L = ld.null_direction
        assert abs(abs(L[0]) - 1.0) < 1e-6 and abs(L[1]) < 1e-6


@settings(max_examples=25, deadline=None)
@given(entries=st.lists(st.floats(-1.0, 1.0), min_size=8, max_size=8))
def test_unitary_rotation_equivariance(ball, entries):
    A = np.reshape(entries[:4], (2, 2)) + 1j * np.reshape(entries[4:], (2, 2))
    assume(abs(np.linalg.det(A)) > 1e-2)
    Q, _ = np.linalg.qr(A)
    z = complex_pack(np.array([[1.0, 0, 0, 0]]))[0]
    zr = Q @ z
    P = np.array([zr[0].real, zr[0].imag, zr[1].real, zr[1].imag])
    bp0 = project_to_boundary(ball.domain, np.array([1.0, 0, 0, 0]))
    bp1 = project_to_boundary(ball.domain, P)
    w0 = levi_decompose(bp0).eigenvalues
    w1 = levi_decompose(bp1).eigenvalues
    np.testing.assert_allclose(w0, w1, atol=1e-10)


@settings(max_examples=25, deadline=None)
@given(entries=st.lists(st.floats(-1.0, 1.0), min_size=8, max_size=8),
       s=st.floats(0.2, 0.95), al=st.floats(0.0, 2 * np.pi),
       ph=st.floats(0.0, 2 * np.pi))
def test_quartic_levi_spectrum_unitary_invariance(quartic, entries, s, al,
                                                  ph):
    A = np.reshape(entries[:4], (2, 2)) + 1j * np.reshape(entries[4:], (2, 2))
    assume(abs(np.linalg.det(A)) > 1e-2)
    U, _ = np.linalg.qr(A)
    # U^-1 = U^H as a real-linear map of R^4, applied to the Jet variables
    R = complex_unpack((U.conj().T @ complex_pack(np.eye(4)).T).T).T

    def rho(c):
        return quartic.domain.rho([sum(c[b] * float(R[a, b])
                                       for b in range(4)) for a in range(4)])

    rotated = DomainSpec(n=2, rho=rho, box_lo=quartic.domain.box_lo,
                         box_hi=quartic.domain.box_hi, name="quartic U")
    z = np.array([s * np.exp(1j * al), (1 - s ** 4) ** 0.5 * np.exp(1j * ph)])
    p = complex_unpack(z[None])[0]
    Up = complex_unpack((U @ z)[None])[0]
    w0 = levi_decompose(project_to_boundary(quartic.domain, p)).eigenvalues
    w1 = levi_decompose(project_to_boundary(rotated, Up)).eigenvalues
    assert w0[0] > 1e-2
    np.testing.assert_allclose(w1, w0, rtol=0, atol=1e-10)


# ---------------------------------------------------------------------------
# detection
# ---------------------------------------------------------------------------

def test_ball_sigma_empty(ball):
    sig = detect_sigma(ball.domain, ball.boundary_mesh(800, seed=1),
                       threshold=1e-6)
    assert sig.size == 0


def test_bidisc_sigma_hausdorff(bidisc):
    mesh = bidisc.boundary_mesh(4000, seed=2)
    sig = detect_sigma(bidisc.domain, mesh)
    assert sig.size > 100
    # detected points lie on the described set
    assert bidisc.sigma_distance(sig.points).max() < 1e-4
    # the described set is covered at the detected-subset pitch
    r = bidisc.domain.meta["r"]
    rng = np.random.default_rng(3)
    w = np.sqrt(rng.uniform(0, 1, 400)) * r * np.exp(
        1j * rng.uniform(0, 2 * np.pi, 400))
    z2 = np.exp(1j * rng.uniform(0, 2 * np.pi, 400))
    probe = np.stack([w.real, w.imag, z2.real, z2.imag], axis=1)
    d = np.linalg.norm(probe[:, None, :] - sig.points[None], axis=2)
    cover = d.min(axis=1).max()
    pitch = np.median(np.sort(d, axis=1)[:, 0])
    assert cover < max(4 * pitch, 0.5)


def test_worm_sigma_hausdorff(worm):
    mesh = worm.boundary_mesh(4000, seed=4)
    sig = detect_sigma(worm.domain, mesh)
    assert sig.size > 100
    assert worm.sigma_distance(sig.points).max() < 1e-4
    a = worm.domain.meta["a"]
    rng = np.random.default_rng(5)
    u = rng.uniform(-0.99 * a, 0.99 * a, 400)
    ph = rng.uniform(0, 2 * np.pi, 400)
    z2 = np.exp(u / 2 + 1j * ph)
    probe = np.stack([np.zeros_like(u), np.zeros_like(u),
                      z2.real, z2.imag], axis=1)
    d = np.linalg.norm(probe[:, None, :] - sig.points[None], axis=2)
    cover = d.min(axis=1).max()
    pitch = np.median(np.sort(d, axis=1)[:, 0])
    assert cover < max(4 * pitch, 0.6)


def test_quartic_sigma_on_curve(quartic):
    sig = detect_sigma(quartic.domain, quartic.boundary_mesh(2000, seed=6))
    assert sig.size > 50
    assert quartic.sigma_distance(sig.points).max() < 1e-4


def test_threshold_monotonicity(worm):
    mesh = worm.boundary_mesh(1500, seed=7)
    small = detect_sigma(worm.domain, mesh, threshold=1e-8)
    large = detect_sigma(worm.domain, mesh, threshold=1e-4)
    assert small.size <= large.size
    small_set = {tuple(p) for p in np.round(small.points, 12)}
    large_set = {tuple(p) for p in np.round(large.points, 12)}
    assert small_set <= large_set


def test_numerical_pseudoconvexity(zoo_entries):
    # exact-route Levi eigenvalues stay above -1e-8 on every zoo mesh
    for entry in zoo_entries:
        P = entry.boundary_mesh(2000, seed=8)
        lam = levi_min_via_rho(entry.domain, P)
        assert lam.min() > -1e-8


def test_not_pseudoconvex_alarm():
    # concave graph: rho = x2 - |z1|^2 has Levi form -1 on its complex
    # tangent at the origin
    def rho(c):
        x1, y1, x2, y2 = c
        return x2 - x1 * x1 - y1 * y1

    dom = DomainSpec(n=2, rho=rho, box_lo=-2 * np.ones(4),
                     box_hi=2 * np.ones(4), name="concave_graph")
    rng = np.random.default_rng(0)
    z1 = 0.2 * (rng.normal(size=30) + 1j * rng.normal(size=30))
    mesh = np.stack([z1.real, z1.imag, np.abs(z1) ** 2,
                     rng.uniform(-0.2, 0.2, 30)], axis=1)
    with pytest.raises(NotPseudoconvex):
        detect_sigma(dom, mesh, threshold=1e-6)


def test_delta_levi_matches_rho_route(zoo_entries):
    # dual-route check: restricted Levi eigenvalues from distance jets agree
    # with the defining-function identity
    for entry in zoo_entries:
        P = entry.boundary_mesh(300, seed=9)
        batch = boundary_batch(entry.domain, P, order=2)
        w, _, _ = levi_spectrum(batch.jet)
        lam = levi_min_via_rho(entry.domain, batch.positions)
        assert np.max(np.abs(w[:, 0] - lam)) < 1e-12


def test_levi_scale_ignores_rounding_noise(worm):
    # 150 of the mesh's eigenvalues, on Sigma, are rounding noise below
    # 1e-12 (the rest are above 4e-7), and re-projecting the feet flips the
    # signs of some: the median of all positive values is 0.07341 at the
    # feet and 0.07163 at the re-projected feet; the noise-floor median
    # counts neither
    mesh = worm.boundary_mesh(600, 0)
    feet, _ = foot_points(worm.domain, mesh)
    w = levi_spectrum(boundary_batch(worm.domain, mesh, order=2).jet)[0]
    scales = [detect_sigma(worm.domain, P).levi_scale for P in (mesh, feet)]
    assert scales[0] == scales[1] == np.median(w[w > 1e-12])


# ---------------------------------------------------------------------------
# criterion terms
# ---------------------------------------------------------------------------

def test_mixed_term_ball_vanishes_on_tangents(ball):
    rng = np.random.default_rng(10)
    P = ball.boundary_mesh(50, seed=11)
    batch = boundary_batch(ball.domain, P, order=2)
    for i in range(0, 50, 10):
        bp = boundary_point(batch, i)
        ld = levi_decompose(bp)
        val = mixed_term(bp, ld.frame[0])
        assert abs(val) < 1e-7


def test_mixed_term_bidisc_sigma_vanishes(bidisc):
    bp = project_to_boundary(bidisc.domain, np.array([0.2, 0.1, 1.0, 0.0]))
    val = mixed_term(bp, np.array([1.0 + 0j, 0.0]))
    assert abs(val) < 1e-7


def test_mixed_term_worm_matches_oracle(worm):
    # symbolic route: Hess_delta(N, .) = Hess_rho(nu, .)/(2 |grad rho|)
    for ph in (0.3, 2.0, 4.1):
        z = np.array([0.0, 0.0, np.cos(ph), np.sin(ph)])
        bp = project_to_boundary(worm.domain, z, order=2)
        z2 = complex_pack(z[None])[0][1]
        e2 = np.array([0.0, 1.0 + 0j])
        val = mixed_term(bp, e2)
        expected = -1j / (2 * np.conj(z2))
        assert abs(val - expected) < 1e-6
        assert abs(val) > 0.1


def test_third_term_ball_closed_form(ball):
    bp = project_to_boundary(ball.domain, np.array([1.0, 0, 0, 0]), order=3)
    from dfindex.jets import third_contraction
    ref = zoo_third(bp)
    val = third_term(bp, np.array([0.0, 1.0 + 0j]))
    assert abs(val - ref) < 1e-4


def zoo_third(bp):
    # closed-form third contraction for |z| - 1 at the given point
    ref_jet = ball_delta_jet(bp.position[None], 1.0, order=3)
    from dfindex.jets import third_contraction
    return complex(third_contraction(ref_jet, np.array([0, 1 + 0j]),
                                     bp.N, np.array([0, 1 + 0j]))[0])


def test_third_term_scaling(ball, ball2):
    # distance-derivative homogeneity: doubling the domain scales the
    # third-order term by 1/4
    bp1 = project_to_boundary(ball.domain, np.array([1.0, 0, 0, 0]), order=3)
    bp2 = project_to_boundary(ball2.domain, np.array([2.0, 0, 0, 0]), order=3)
    e2 = np.array([0.0, 1.0 + 0j])
    v1 = third_term(bp1, e2)
    v2 = third_term(bp2, e2)
    assert abs(v2 - v1 / 4.0) < 1e-4 * max(1.0, abs(v1))


def test_third_term_worm_matches_derived_value(worm):
    # derived closed form on the degenerate annulus: pure contraction equals
    # -1/(2 r^2) and the covariant value vanishes
    for ph in (0.7, 3.3):
        z = np.array([0.0, 0.0, np.cos(ph), np.sin(ph)])
        bp = project_to_boundary(worm.domain, z, order=3)
        e2 = np.array([0.0, 1.0 + 0j])
        r2 = abs(complex_pack(z[None])[0][1]) ** 2
        assert abs(third_term(bp, e2) - (-1.0 / (2 * r2))) < 1e-4
        assert abs(third_term_field(bp, e2)) < 1e-4


def test_third_term_requires_order_three(ball):
    bp = project_to_boundary(ball.domain, np.array([1.0, 0, 0, 0]), order=2)
    with pytest.raises(OrderTooLow):
        third_term(bp, np.array([0.0, 1.0 + 0j]))


# ---------------------------------------------------------------------------
# degenerate cross terms
# ---------------------------------------------------------------------------

def test_null_cross_residual_vacuous_in_c2(bidisc, worm):
    for entry, z in ((bidisc, np.array([0.1, 0.0, 1.0, 0.0])),
                     (worm, np.array([0.0, 0.0, 1.0, 0.0]))):
        bp = project_to_boundary(entry.domain, z, order=2)
        ld = levi_decompose(bp)
        res = null_cross_residual(bp, ld.null_direction,
                                  np.zeros((0, 2), dtype=complex),
                                  threshold=1e-6)
        assert res < 1e-6


def test_null_cross_residual_not_degenerate(ball):
    bp = project_to_boundary(ball.domain, np.array([1.0, 0, 0, 0]), order=2)
    ld = levi_decompose(bp)
    with pytest.raises(NotDegenerate):
        null_cross_residual(bp, ld.null_direction,
                            np.zeros((0, 2), dtype=complex), threshold=1e-6)


def _product_domain_c3():
    # rho = |z3|^2 - 1 + chi(|z1|^2 + |z2|^2 - r^2): a trivial foliation in
    # C^3 with two null directions, exercising the cross-term identity in a
    # genuinely higher-dimensional case
    r2 = 0.5

    def rho(c):
        x1, y1, x2, y2, x3, y3 = c
        s = x1 * x1 + y1 * y1 + x2 * x2 + y2 * y2 - r2
        return x3 * x3 + y3 * y3 - 1.0 + jhinge_pow(s, 4, 1.0)

    return DomainSpec(n=3, rho=rho, box_lo=-2.1 * np.ones(6),
                      box_hi=2.1 * np.ones(6), name="polydisc3")


def test_null_cross_residual_c3():
    dom = _product_domain_c3()
    z = np.array([0.2, 0.1, -0.1, 0.15, 1.0, 0.0])
    bp = project_to_boundary(dom, z, order=2)
    ld = levi_decompose(bp)
    assert ld.eigenvalues[0] < 1e-8 and ld.eigenvalues[1] < 1e-8
    L = ld.directions(1)[0]
    frame = ld.directions(2)[1:]
    res = null_cross_residual(bp, L, frame, threshold=1e-6)
    assert res < 1e-6


@settings(max_examples=200, deadline=None)
@given(x=st.lists(st.floats(-1e300, 1e300, allow_nan=False), min_size=1,
                  max_size=40))
def test_median_is_numpy_median_bit_for_bit(x):
    # odd and even sizes; detect_sigma and mesh_pitch use it so that a run
    # never reaches np.median's numpy.ma import
    x = np.array(x)
    got, want = median(x), np.median(x)
    assert got == want and np.signbit(got) == np.signbit(want)
