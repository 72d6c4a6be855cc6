"""Line integrals, periods, exactness verdicts, potential reconstruction,
and the collar extension."""

import dataclasses
import itertools

import numpy as np
import pytest

from dfindex.cohomology import (FADE, PathInSigma, ThetaSource,
                                build_potential, classify, collar_psi,
                                exactness_tolerance, _PolyModel,
                                integrate_theta, period)
from dfindex.errors import (ChartGap, CollarTooWide, ObstructedClass,
                            PathDisagreement)
from dfindex.sigma import SigmaChart
from references import FuncSource, HFieldSource, reversed_path, rotated_path


def disc_chart(domain_entry, half=0.8):
    # synthetic parameter disc riding on the bidisc leaf embedding
    chart = domain_entry.notes["main_leaf"]
    return SigmaChart(domain=chart.domain, kind="complex", m=1,
                      lo=np.array([-half, -half]), hi=np.array([half, half]),
                      embed=chart.embed, tangent=chart.tangent,
                      name="synthetic_disc")


def test_integral_reversal(worm):
    src = ThetaSource(worm.charts["patch"])
    path = PathInSigma(np.array([[0.9, -0.2], [1.3, 0.1], [1.7, 0.3]]))
    a = integrate_theta(src, path)
    b = integrate_theta(src, reversed_path(path))
    assert abs(a + b) < 1e-10


def test_bidisc_leaf_integral_vanishes(bidisc):
    src = ThetaSource(bidisc.notes["main_leaf"])
    path = PathInSigma(np.array([[-0.3, -0.3], [0.2, 0.1], [0.35, -0.2]]))
    assert abs(integrate_theta(src, path)) < 1e-6


def test_worm_radial_path_matches_antiderivative(worm):
    # on the log-polar chart theta = -(1/2) d(phi); segment integrals equal
    # the antiderivative difference
    src = ThetaSource(worm.charts["log_polar"])
    path = PathInSigma(np.array([[-0.2, 0.7], [0.25, 2.9]]))
    val = integrate_theta(src, path)
    assert abs(val - (-0.5) * (2.9 - 0.7)) < 1e-6


def test_worm_core_period(worm):
    src = ThetaSource(worm.charts["log_polar"])
    loop = PathInSigma(worm.loops["core"][1], closed=True)
    per = period(src, loop)
    assert abs(per - (-np.pi)) < 0.01 * np.pi
    assert abs(per) > 1.0


def test_contractible_loop_period_small(worm):
    src = ThetaSource(worm.charts["log_polar"])
    loop = PathInSigma(worm.loops["contractible"][1], closed=True)
    assert abs(period(src, loop)) < 1e-6


def test_period_basepoint_rotation_invariance(worm):
    src = ThetaSource(worm.charts["log_polar"])
    loop = PathInSigma(worm.loops["core"][1], closed=True)
    p0 = period(src, loop)
    for k in (3, 11):
        pk = period(src, rotated_path(loop, k, wrap_axis=1,
                                      period=2 * np.pi))
        assert abs(pk - p0) < 1e-10


def test_open_path_period_rejected(worm):
    src = ThetaSource(worm.charts["log_polar"])
    path = PathInSigma(np.array([[0.0, 0.0], [0.0, 1.0]]), closed=False)
    with pytest.raises(ValueError):
        period(src, path)


def test_path_outside_chart(worm):
    src = ThetaSource(worm.charts["patch"])
    path = PathInSigma(np.array([[0.0, 0.0], [5.0, 5.0]]))
    with pytest.raises(ChartGap):
        integrate_theta(src, path)


def test_classify():
    v = classify({}, 1e-6)
    assert v.exact and v.classification == "Exact"
    v = classify({"core": -3.14}, 1e-4)
    assert not v.exact and v.classification == "Obstructed"
    v = classify({"a": 1e-9}, 1e-6)
    assert v.exact


def test_exactness_tolerance_floor():
    assert exactness_tolerance(0.0, 10.0) == 1e-6
    assert exactness_tolerance(0.5, 6.4) == pytest.approx(3.2e-4)


# ---------------------------------------------------------------------------
# potential reconstruction
# ---------------------------------------------------------------------------

def test_bidisc_potential_vanishes(bidisc):
    src = [ThetaSource(c) for c in bidisc.charts.values()]
    verdict, _ = (classify({"leaf": 0.0}, 1e-6), None)
    phi = build_potential(src, np.zeros(2), verdict, res=7, check_targets=10)
    assert max(np.max(np.abs(l.values)) for l in phi.leaves) < 1e-6
    assert phi.gradient_residual < 1e-4
    assert phi.path_disagreement < 1e-6


def test_synthetic_exact_form_recovery(bidisc):
    # h = dbar(Re z^2) = conj(z); the reconstruction returns the generating
    # potential up to its basepoint value
    chart = disc_chart(bidisc)
    src = HFieldSource(chart, lambda U: (U[:, 0] - 1j * U[:, 1])[:, None])
    verdict = classify({}, 1e-6)
    phi = build_potential(src, np.zeros(2), verdict, res=17,
                          check_targets=20)
    leaf = phi.leaves[0]
    target = leaf.params[:, 0] ** 2 - leaf.params[:, 1] ** 2
    k0 = int(np.argmin(np.linalg.norm(leaf.params, axis=1)))
    np.testing.assert_allclose(leaf.values, target - target[k0], atol=1e-6)


def test_obstructed_class_raises(worm):
    src = ThetaSource(worm.charts["log_polar"])
    loop = PathInSigma(worm.loops["core"][1], closed=True)
    verdict = classify({"core": period(src, loop)}, 1e-4)
    with pytest.raises(ObstructedClass):
        build_potential(src, np.zeros(2), verdict)


def test_path_disagreement_on_non_closed_form(bidisc):
    # inject a deliberately non-closed form: theta = y dx
    chart = disc_chart(bidisc)
    src = FuncSource(chart, lambda U: np.stack(
        [U[:, 1], np.zeros(U.shape[0])], axis=1))
    verdict = classify({}, 1e-6)
    with pytest.raises(PathDisagreement):
        build_potential(src, np.zeros(2), verdict, res=9, check_targets=20)


def test_round_trip_residual_second_order(bidisc):
    # reconstruct from a synthetic smooth non-polynomial h-field and check
    # the finite-difference dbar of the grid values converges to it
    chart = disc_chart(bidisc, half=0.6)

    def hf(U):
        z = U[:, 0] + 1j * U[:, 1]
        # dbar of phi0 = exp(x) cos(y) (pluriharmonic-free test field)
        fx = np.exp(U[:, 0]) * np.cos(U[:, 1])
        fy = -np.exp(U[:, 0]) * np.sin(U[:, 1])
        return (0.5 * (fx + 1j * fy))[:, None]

    src = HFieldSource(chart, hf)
    verdict = classify({}, 1e-6)
    res = []
    for n in (9, 17, 33):
        phi = build_potential(src, np.zeros(2), verdict, res=n,
                              check_targets=5)
        res.append(phi.leaves[0].gradient_residual)
    orders = np.log2(np.array(res[:-1]) / np.array(res[1:]))
    assert np.min(orders) > 1.7


# ---------------------------------------------------------------------------
# collar extension
# ---------------------------------------------------------------------------

def test_collar_psi_matches_on_sigma(bidisc):
    chart = disc_chart(bidisc, half=0.4)
    src = HFieldSource(chart, lambda U: (U[:, 0] - 1j * U[:, 1])[:, None])
    verdict = classify({}, 1e-6)
    phi = build_potential(src, np.zeros(2), verdict, res=9, check_targets=5)

    def to_chart(P):
        U = np.stack([P[:, 0], P[:, 1]], axis=1)
        return U, None, np.zeros(P.shape[0])

    psi = collar_psi(bidisc.domain, phi, to_chart)
    U = phi.leaves[0].params[::7]
    P = chart.embed_batch(U)
    vals = psi.at_feet(P)
    expect = -2.0 * phi.leaves[0].model(U)
    np.testing.assert_allclose(vals, expect, atol=1e-9)


def test_collar_psi_edge_blend(bidisc):
    # at the fade edge the extension is zero with two vanishing transversal
    # derivatives (C3 profile)
    chart = disc_chart(bidisc, half=0.4)
    src = HFieldSource(chart, lambda U: 0.5 * np.ones((U.shape[0], 1),
                                                      dtype=complex))
    verdict = classify({}, 1e-6)
    phi = build_potential(src, np.zeros(2), verdict, res=9, check_targets=5)

    edge_at = 0.35
    # the edge coordinate puts the fade FADE on |z1| in [0.3, 0.9] x edge_at
    lo, hi = 0.3 * edge_at, 0.9 * edge_at

    def to_chart(P):
        U = np.stack([P[:, 0], P[:, 1]], axis=1)
        r = np.hypot(P[:, 0], P[:, 1])
        edge = FADE[0] + (FADE[1] - FADE[0]) * (r - lo) / (hi - lo)
        return U, None, edge

    psi = collar_psi(bidisc.domain, phi, to_chart)
    x_edge = hi

    def at(x):
        # boundary points: each is its own foot
        return float(psi.at_feet(np.array([[x, 0.0, 1.0, 0.0]]))[0])

    # exactly zero at and beyond the fade edge
    assert at(x_edge) == 0.0
    assert at(edge_at * 0.95) == 0.0
    # quartic contact: first and second differences vanish at the edge with
    # the C3 profile's contact orders (f' ~ eps^3, f'' ~ eps^2)
    d1 = {}
    d2 = {}
    for eps in (4e-3, 2e-3, 1e-3):
        d1[eps] = (at(x_edge) - at(x_edge - 2 * eps)) / (2 * eps)
        d2[eps] = (at(x_edge) - 2 * at(x_edge - eps)
                   + at(x_edge - 2 * eps)) / eps ** 2
    assert abs(d1[1e-3]) < abs(d1[4e-3]) / 30
    assert abs(d2[1e-3]) < abs(d2[4e-3]) / 8
    assert abs(d1[1e-3]) < 1e-3
    assert abs(d2[1e-3]) < 1.0


def test_collar_too_wide(ball, bidisc):
    chart = disc_chart(bidisc, half=0.4)
    src = HFieldSource(chart, lambda U: np.zeros((U.shape[0], 1),
                                                 dtype=complex))
    verdict = classify({}, 1e-6)
    phi = build_potential(src, np.zeros(2), verdict, res=5, check_targets=3)

    def to_chart(P):
        return np.stack([P[:, 0], P[:, 1]], axis=1), None, \
            np.zeros(P.shape[0])

    with pytest.raises(CollarTooWide):
        collar_psi(bidisc.domain, phi, to_chart, width=2.0)



# ---------------------------------------------------------------------------
# batched potential evaluation
# ---------------------------------------------------------------------------

def _design_reference(model, U):
    """Monomial columns with one np.prod call per term."""
    X = 2.0 * (U - model.lo) / (model.hi - model.lo) - 1.0
    terms = [e for e in itertools.product(range(model.degree + 1),
                                          repeat=X.shape[1])
             if sum(e) <= model.degree]
    return np.stack([np.prod([X[:, a] ** e for a, e in enumerate(term)],
                             axis=0) for term in terms], axis=1)


@pytest.mark.parametrize("p", [1, 2, 3])
def test_design_matches_prod_reference(p):
    rng = np.random.default_rng(30 + p)
    lo, hi = -0.6 * np.ones(p), 0.8 * np.ones(p)
    model = _PolyModel(lo, hi, degree=8)
    U = rng.uniform(lo, hi, size=(200, p))
    A = model._design(U)
    np.testing.assert_array_equal(A, _design_reference(model, U))
    assert A.flags["C_CONTIGUOUS"]
    # the cached exponent index serves later batches of any size
    np.testing.assert_array_equal(model._design(U[:3]),
                                  _design_reference(model, U[:3]))


def _eval_per_point(field, U, t):
    """The scalar leaf-blending rule, one point and one leaf at a time."""
    lt = field.labels
    out = np.zeros(U.shape[0])
    for i in range(U.shape[0]):
        tt = np.mod(float(t[i]), 2 * np.pi)
        k = int(np.searchsorted(lt, tt) % len(lt))
        k0 = (k - 1) % len(lt)
        span = np.mod(lt[k] - lt[k0], 2 * np.pi)
        w = np.mod(tt - lt[k0], 2 * np.pi) / span if span > 0 else 0.0
        for leaf, wt in ((field.leaves[k0], 1.0 - w), (field.leaves[k], w)):
            out[i] += wt * float(leaf.model(U[i:i + 1])[0])
    return out


def _label_samples(labels, count, seed):
    """Leaf labels exactly, the 2 pi seam from both sides, values below 0
    and above 2 pi, then uniform labels; with random chart parameters."""
    two_pi = 2 * np.pi
    special = np.concatenate([
        labels, labels - two_pi, labels + two_pi,
        [np.nextafter(two_pi, 0.0), two_pi - 1e-12, two_pi, 0.0, -0.0,
         np.nextafter(0.0, -1.0), -0.3, -two_pi - 0.1, two_pi + 0.4,
         2 * two_pi + 1.0]])
    rng = np.random.default_rng(seed)
    t = np.concatenate([special, rng.uniform(-1.0, 8.0, count)])
    U = rng.uniform(-0.4, 0.4, size=(t.size, 2))
    return U, t


def test_batched_eval_matches_per_point_loop(bidisc_leaf_field):
    field = bidisc_leaf_field
    assert len(field.leaves) == 8 and field.labels is not None
    U, t = _label_samples(field.labels, 300, seed=31)
    ref = _eval_per_point(field, U, t)
    got = field.eval(U, t)
    scale = np.max(np.abs(ref))
    assert scale > 1.0       # the leaves carry distinct, nonzero potentials
    np.testing.assert_allclose(got, ref, rtol=0, atol=1e-13 * scale)
    # at a label the point takes that leaf alone
    k = 3
    at_label = field.eval(U[:5], np.full(5, field.labels[k]))
    np.testing.assert_allclose(at_label, field.leaves[k].model(U[:5]),
                               rtol=0, atol=1e-13 * scale)


def test_batched_eval_zero_span(bidisc_leaf_field):
    # a last label at 2 pi coincides with the first one mod 2 pi: the
    # bracket across the seam has zero span and the scalar rule gives the
    # lower leaf full weight
    labels = bidisc_leaf_field.labels.copy()
    labels[-1] = 2 * np.pi
    field = dataclasses.replace(bidisc_leaf_field, labels=labels)
    U, t = _label_samples(labels, 100, seed=32)
    ref = _eval_per_point(field, U, t)
    scale = np.max(np.abs(ref))
    np.testing.assert_allclose(field.eval(U, t), ref, rtol=0,
                               atol=1e-13 * scale)
    seam = np.array([0.0, 2 * np.pi, -2 * np.pi])
    np.testing.assert_allclose(field.eval(U[:3], seam),
                               field.leaves[-1].model(U[:3]), rtol=0,
                               atol=1e-13 * scale)


def test_eval_without_labels_uses_first_leaf(bidisc_leaf_field):
    field = bidisc_leaf_field
    U, t = _label_samples(field.labels, 20, seed=33)
    first = field.leaves[0].model(U)
    np.testing.assert_array_equal(field.eval(U), first)
    unlabeled = dataclasses.replace(field, labels=None)
    np.testing.assert_array_equal(unlabeled.eval(U, t), first)
