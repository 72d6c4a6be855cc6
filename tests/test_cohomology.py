"""Line integrals, periods, exactness verdicts, potential reconstruction,
and the collar extension."""

import dataclasses
import itertools

import numpy as np
import pytest

from conftest import psi_at_feet
from dfindex import cohomology, zoo
from dfindex.certify import Psi
from dfindex.cohomology import (FADE, PathInSigma, ThetaSource,
                                build_potential, classify, collar_terms,
                                exactness_tolerance, integrate_theta,
                                period)
from dfindex.distance import foot_points
from dfindex.errors import (ChartGap, ChartMismatch, CollarTooWide,
                            NoConvergence, ObstructedClass, PathDisagreement)
from dfindex.pipelines import ORACLE_DEPTH, Run, potential_for
from dfindex.sigma import SigmaChart
from dfindex.util import bump_c3, smoothstep_c3
from references import (FuncSource, HFieldSource, eval_per_leaf,
                        integrate_theta_single, leaf_sources, reversed_path,
                        rotated_path, tree_potential)


def disc_chart(domain_entry, half=0.8):
    # synthetic parameter disc riding on the bidisc leaf embedding
    chart = domain_entry.notes["main_leaf"]
    return SigmaChart(domain=chart.domain, kind="complex",
                      lo=np.array([-half, -half]), hi=np.array([half, half]),
                      embed=chart.embed, tangent=chart.tangent,
                      name="synthetic_disc")


def test_integral_reversal(worm):
    src = ThetaSource(worm.charts["patch"])
    path = PathInSigma(np.array([[0.9, -0.2], [1.3, 0.1], [1.7, 0.3]]))
    a, b = integrate_theta(src, [path, reversed_path(path)])
    assert abs(a + b) < 1e-10


def test_bidisc_leaf_integral_vanishes(bidisc):
    src = ThetaSource(bidisc.notes["main_leaf"])
    path = PathInSigma(np.array([[-0.3, -0.3], [0.2, 0.1], [0.35, -0.2]]))
    assert abs(integrate_theta(src, [path])[0]) < 1e-6


def test_worm_radial_path_matches_antiderivative(worm):
    # on the log-polar chart theta = -(1/2) d(phi); segment integrals equal
    # the antiderivative difference
    src = ThetaSource(worm.charts["log_polar"])
    path = PathInSigma(np.array([[-0.2, 0.7], [0.25, 2.9]]))
    [val] = integrate_theta(src, [path])
    assert abs(val - (-0.5) * (2.9 - 0.7)) < 1e-6


def test_worm_core_period(worm):
    src = ThetaSource(worm.charts["log_polar"])
    loop = PathInSigma(worm.loops["core"][1], closed=True)
    [per] = period(src, [loop])
    assert abs(per - (-np.pi)) < 0.01 * np.pi
    assert abs(per) > 1.0


def test_contractible_loop_period_small(worm):
    src = ThetaSource(worm.charts["log_polar"])
    loop = PathInSigma(worm.loops["contractible"][1], closed=True)
    assert abs(period(src, [loop])[0]) < 1e-6


def test_period_basepoint_rotation_invariance(worm):
    src = ThetaSource(worm.charts["log_polar"])
    loop = PathInSigma(worm.loops["core"][1], closed=True)
    p0, *rotated = period(src, [loop] + [
        rotated_path(loop, k, wrap_axis=1, period=2 * np.pi)
        for k in (3, 11)])
    for pk in rotated:
        assert abs(pk - p0) < 1e-10


def test_unconverged_period_raises(worm):
    # a noise form: every halving of the Simpson step draws new values at
    # its new nodes, so successive estimates never agree to PERIOD_TOL
    rng = np.random.default_rng(0)
    src = FuncSource(worm.charts["log_polar"],
                     lambda U: rng.normal(size=U.shape))
    loop = PathInSigma(worm.loops["contractible"][1], closed=True)
    with pytest.raises(NoConvergence):
        period(src, [loop])


def test_open_path_period_rejected(worm):
    src = ThetaSource(worm.charts["log_polar"])
    path = PathInSigma(np.array([[0.0, 0.0], [0.0, 1.0]]), closed=False)
    with pytest.raises(ValueError):
        period(src, [path])


def test_path_outside_chart(worm):
    src = ThetaSource(worm.charts["patch"])
    path = PathInSigma(np.array([[0.0, 0.0], [5.0, 5.0]]))
    with pytest.raises(ChartGap):
        integrate_theta(src, [path])


def _loop(entry, name):
    chart_name, params = entry.loops[name]
    return ThetaSource(entry.charts[chart_name]), PathInSigma(params,
                                                              closed=True)


@pytest.mark.parametrize("beta", [np.pi, 1.5 * np.pi])
def test_nested_periods_match_single_path_reference(beta):
    # both loops integrated together, on nested levels, give the bits of
    # each loop integrated alone with every level evaluated afresh
    worm = zoo.make_worm(beta)
    src, core = _loop(worm, "core")
    _, square = _loop(worm, "contractible")
    assert period(src, [core, square]) == [
        integrate_theta_single(src, core), integrate_theta_single(src, square)]


def test_bidisc_period_matches_single_path_reference(bidisc):
    src, loop = _loop(bidisc, "leaf_boundary")
    assert period(src, [loop]) == [integrate_theta_single(src, loop)]


def test_open_path_integral_matches_single_path_reference(worm):
    src = ThetaSource(worm.charts["patch"])
    path = PathInSigma(np.array([[0.9, -0.2], [1.3, 0.1], [1.7, 0.3]]))
    assert integrate_theta(src, [path]) == [integrate_theta_single(src, path)]


def test_classify():
    assert classify({}, 1e-6) == {"generators": [], "periods": [],
                                  "tolerance": 1e-6,
                                  "classification": "Exact"}
    assert classify({"core": -3.14}, 1e-4) == {
        "generators": ["core"], "periods": [-3.14], "tolerance": 1e-4,
        "classification": "Obstructed"}
    assert classify({"a": 1e-9}, 1e-6)["classification"] == "Exact"


def test_exactness_tolerance_floor():
    assert exactness_tolerance(0.0, 10.0) == 1e-6
    assert exactness_tolerance(0.5, 6.4) == pytest.approx(3.2e-4)


# ---------------------------------------------------------------------------
# potential reconstruction
# ---------------------------------------------------------------------------

def test_bidisc_potential_vanishes(bidisc):
    src = [ThetaSource(c) for c in bidisc.charts.values()]
    verdict, _ = (classify({"leaf": 0.0}, 1e-6), None)
    phi = build_potential(src, np.zeros(2), verdict, res=7)
    assert np.max(np.abs(phi.values)) < 1e-6
    assert np.max(phi.gradient_residuals) < 1e-4
    assert phi.path_disagreement < 1e-6


def test_synthetic_exact_form_recovery(bidisc):
    # h = dbar(Re z^2) = conj(z); the reconstruction returns the generating
    # potential up to its basepoint value
    chart = disc_chart(bidisc)
    src = HFieldSource(chart, lambda U: U[:, 0] - 1j * U[:, 1])
    verdict = classify({}, 1e-6)
    phi = build_potential(src, np.zeros(2), verdict, res=17)
    target = phi.params[:, 0] ** 2 - phi.params[:, 1] ** 2
    k0 = int(np.argmin(np.linalg.norm(phi.params, axis=1)))
    np.testing.assert_allclose(phi.values[0], target - target[k0], atol=1e-6)


def test_obstructed_class_raises(worm):
    src = ThetaSource(worm.charts["log_polar"])
    loop = PathInSigma(worm.loops["core"][1], closed=True)
    verdict = classify({"core": period(src, [loop])[0]}, 1e-4)
    with pytest.raises(ObstructedClass):
        build_potential(src, np.zeros(2), verdict, res=17)


def test_path_disagreement_on_non_closed_form(bidisc):
    # inject a deliberately non-closed form: theta = y dx
    chart = disc_chart(bidisc)
    src = FuncSource(chart, lambda U: np.stack(
        [U[:, 1], np.zeros(U.shape[0])], axis=1))
    verdict = classify({}, 1e-6)
    with pytest.raises(PathDisagreement):
        build_potential(src, np.zeros(2), verdict, res=9)


def test_corner_cell_curl_raises(bidisc):
    # theta = b(x) s(y) dx vanishes outside the res-9 lattice's top corner
    # cell [0.6, 0.8]^2, far from the basepoint at the centre, and is not
    # closed inside it: only the cell's own cycle circulates
    chart = disc_chart(bidisc)

    def fn(U):
        f = bump_c3((U[:, 0] - 0.7) / 0.1) * smoothstep_c3(
            (U[:, 1] - 0.6) / 0.2)
        return np.stack([f, np.zeros(U.shape[0])], axis=1)

    src = FuncSource(chart, fn)
    U, _ = chart.grid(9)
    outside = ~np.all(U > 0.6 - 1e-12, axis=1)
    assert np.all(fn(U[outside]) == 0.0)
    with pytest.raises(PathDisagreement):
        build_potential(src, np.zeros(2), classify({}, 1e-6), res=9)


def _exp_field(U):
    # dbar of phi0 = exp(x) cos(y) (pluriharmonic-free test field)
    fx = np.exp(U[:, 0]) * np.cos(U[:, 1])
    fy = -np.exp(U[:, 0]) * np.sin(U[:, 1])
    return 0.5 * (fx + 1j * fy)


def _assert_matches_tree_route(phi, sources, res):
    """Node values, coefficients and gradient residuals equal, bit for bit,
    those of each leaf's own lattice and fit; returns the leaves' models."""
    assert len(phi.charts) == len(sources)
    models = []
    for j, src in enumerate(sources):
        vals, model, grad_res = tree_potential(src, np.zeros(2), res)
        np.testing.assert_array_equal(phi.values[j], vals)
        np.testing.assert_array_equal(phi.coef[:, j], model.coef)
        np.testing.assert_array_equal(phi.terms, model.terms)
        assert phi.gradient_residuals[j] == grad_res
        models.append(model)
    return models


@pytest.mark.parametrize("res", [9, 17, 33])
def test_lattice_potential_matches_tree_route(bidisc, res):
    # adding the cycle check leaves the node values, the fit and the
    # gradient residual as the tree edges alone set them
    src = HFieldSource(disc_chart(bidisc, half=0.6), _exp_field)
    phi = build_potential(src, np.zeros(2), classify({}, 1e-6), res=res)
    _assert_matches_tree_route(phi, [src], res)


def test_leaf_potentials_match_tree_route(bidisc, bidisc_leaf_field):
    _assert_matches_tree_route(bidisc_leaf_field, leaf_sources(bidisc), 9)
    charts = [c for c in bidisc.charts.values() if c.kind == "complex"]
    phi = potential_for(bidisc, classify({}, 1e-6), 9)
    _assert_matches_tree_route(phi, [ThetaSource(c) for c in charts], 9)


def test_potential_evaluates_theta_once_per_leaf(bidisc, monkeypatch):
    calls = {"components": 0, "integrate_theta": 0}
    components = ThetaSource.components
    integrate = cohomology.integrate_theta

    def counting_components(self, U):
        calls["components"] += 1
        return components(self, U)

    def counting_integrate(*args, **kwargs):
        calls["integrate_theta"] += 1
        return integrate(*args, **kwargs)

    monkeypatch.setattr(ThetaSource, "components", counting_components)
    monkeypatch.setattr(cohomology, "integrate_theta", counting_integrate)
    phi = potential_for(bidisc, classify({}, 1e-6), 9)
    assert len(phi.charts) == 8
    assert calls == {"components": 8, "integrate_theta": 0}


def test_verdict_evaluates_theta_once_per_level(worm, monkeypatch):
    # core (128 segments) and contractible (4) converge at 8 nodes per
    # segment: 5 x 132 rows at 4 nodes, the 4 x 132 new ones at 8, and
    # |theta| at the loops' 129 + 5 vertices, 1322 rows in all
    calls = []
    components = ThetaSource.components

    def counting_components(self, U):
        calls.append(len(U))
        return components(self, U)

    monkeypatch.setattr(ThetaSource, "components", counting_components)
    assert Run(worm).verdict["classification"] == "Obstructed"
    assert calls == [660, 528, 134]


def test_round_trip_residual_second_order(bidisc):
    # reconstruct from a synthetic smooth non-polynomial h-field and check
    # the finite-difference dbar of the grid values converges to it
    chart = disc_chart(bidisc, half=0.6)
    src = HFieldSource(chart, _exp_field)
    verdict = classify({}, 1e-6)
    res = []
    for n in (9, 17, 33):
        phi = build_potential(src, np.zeros(2), verdict, res=n)
        res.append(phi.gradient_residuals[0])
    orders = np.log2(np.array(res[:-1]) / np.array(res[1:]))
    assert np.min(orders) > 1.7


# ---------------------------------------------------------------------------
# collar extension
# ---------------------------------------------------------------------------

def test_collar_psi_matches_on_sigma(bidisc):
    chart = disc_chart(bidisc, half=0.4)
    src = HFieldSource(chart, lambda U: U[:, 0] - 1j * U[:, 1])
    verdict = classify({}, 1e-6)
    phi = build_potential(src, np.zeros(2), verdict, res=9)

    def to_chart(P):
        U = np.stack([P[:, 0], P[:, 1]], axis=1)
        return U, None, np.zeros(P.shape[0])

    psi = Psi(collar_terms(bidisc.domain, phi, to_chart), (1.0,))
    U = phi.params[::7]
    P = chart.embed_batch(U)
    vals = psi_at_feet(psi, P)
    expect = -2.0 * tree_potential(src, np.zeros(2), 9)[1](U)
    np.testing.assert_allclose(vals, expect, atol=1e-9)


def test_collar_psi_edge_blend(bidisc):
    # at the fade edge the extension is zero with two vanishing transversal
    # derivatives (C3 profile)
    chart = disc_chart(bidisc, half=0.4)
    src = HFieldSource(chart, lambda U: 0.5 * np.ones(U.shape[0],
                                                      dtype=complex))
    verdict = classify({}, 1e-6)
    phi = build_potential(src, np.zeros(2), verdict, res=9)

    edge_at = 0.35
    # the edge coordinate puts the fade FADE on |z1| in [0.3, 0.9] x edge_at
    lo, hi = 0.3 * edge_at, 0.9 * edge_at

    def to_chart(P):
        U = np.stack([P[:, 0], P[:, 1]], axis=1)
        r = np.hypot(P[:, 0], P[:, 1])
        edge = FADE[0] + (FADE[1] - FADE[0]) * (r - lo) / (hi - lo)
        return U, None, edge

    psi = Psi(collar_terms(bidisc.domain, phi, to_chart), (1.0,))
    x_edge = hi

    def at(x):
        # boundary points: each is its own foot
        return float(psi_at_feet(psi, np.array([[x, 0.0, 1.0, 0.0]]))[0])

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


@pytest.mark.parametrize("width", [0.9, 2.0])
def test_collar_too_wide(bidisc, width):
    # 2.0 is past half the domain scale; at 0.9 the fibres P - 0.9 n have
    # boundary points nearer than P
    chart = disc_chart(bidisc, half=0.4)
    src = HFieldSource(chart, lambda U: np.zeros(U.shape[0],
                                                 dtype=complex))
    verdict = classify({}, 1e-6)
    phi = build_potential(src, np.zeros(2), verdict, res=5)

    def to_chart(P):
        return np.stack([P[:, 0], P[:, 1]], axis=1), None, \
            np.zeros(P.shape[0])

    with pytest.raises(CollarTooWide):
        collar_terms(bidisc.domain, phi, to_chart, width=width)


def test_collar_probe_reaches_every_leaf(bidisc):
    # the bidisc's potential with one node moved off Sigma, to |z1| = 1.2 r
    # at the centre of its sixth leaf, where P is not the foot of
    # P - width n: the probe must reach it, though it lies outside the
    # first row of the first leaf
    phi = potential_for(bidisc, classify({}, 1e-6), 9)
    collar_terms(bidisc.domain, phi, bidisc.sigma_coords)
    chart = phi.charts[5]
    centre = phi.params[np.ravel_multi_index(
        [(n - 1) // 2 for n in phi.shape], phi.shape)]
    off = (1.2 * bidisc.domain.meta["r"], 0.0)

    def embed(U):
        at_centre = np.all(U == centre, axis=1)[:, None]
        return chart.embed(np.where(at_centre, off, U))

    charts = list(phi.charts)
    charts[5] = dataclasses.replace(chart, embed=embed)
    with pytest.raises(CollarTooWide, match="1 of 72 collar fibres"):
        collar_terms(bidisc.domain, dataclasses.replace(phi, charts=charts),
                     bidisc.sigma_coords)



# ---------------------------------------------------------------------------
# batched potential evaluation
# ---------------------------------------------------------------------------

def _design_reference(lo, hi, terms, U):
    """Monomial columns with one np.prod call per term."""
    X = 2.0 * (U - lo) / (hi - lo) - 1.0
    return np.stack([np.prod([X[:, a] ** e for a, e in enumerate(term)],
                             axis=0) for term in terms], axis=1)


@pytest.mark.parametrize("p", [1, 2, 3])
def test_design_matches_prod_reference(p):
    rng = np.random.default_rng(30 + p)
    lo, hi = -0.6 * np.ones(p), 0.8 * np.ones(p)
    terms = np.array([e for e in itertools.product(range(9), repeat=p)
                      if sum(e) <= 8])
    U = rng.uniform(lo, hi, size=(200, p))
    A = cohomology._design(U, lo, hi, terms)
    np.testing.assert_array_equal(A, _design_reference(lo, hi, terms, U))
    assert A.flags["C_CONTIGUOUS"]
    # one exponent table serves batches of any size
    np.testing.assert_array_equal(cohomology._design(U[:3], lo, hi, terms),
                                  _design_reference(lo, hi, terms, U[:3]))


def _eval_per_point(field, models, U, t):
    """The scalar leaf-blending rule, one point and one leaf model at a
    time: the C3 step of the label fraction weighs the upper leaf."""
    lt = field.labels
    out = np.zeros(U.shape[0])
    for i in range(U.shape[0]):
        tt = np.mod(float(t[i]), 2 * np.pi)
        k = int(np.searchsorted(lt, tt) % len(lt))
        k0 = (k - 1) % len(lt)
        span = np.mod(lt[k] - lt[k0], 2 * np.pi)
        w = np.mod(tt - lt[k0], 2 * np.pi) / span if span > 0 else 0.0
        w = float(smoothstep_c3(w))
        for model, wt in ((models[k0], 1.0 - w), (models[k], w)):
            out[i] += wt * float(model(U[i:i + 1])[0])
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


def test_batched_eval_matches_per_point_loop(bidisc_leaf_field,
                                            bidisc_leaf_models):
    field, models = bidisc_leaf_field, bidisc_leaf_models
    assert len(field.charts) == 8 and field.labels is not None
    U, t = _label_samples(field.labels, 300, seed=31)
    ref = _eval_per_point(field, models, U, t)
    got = field.eval(U, t)
    scale = np.max(np.abs(ref))
    assert scale > 1.0       # the leaves carry distinct, nonzero potentials
    np.testing.assert_allclose(got, ref, rtol=0, atol=1e-13 * scale)
    # at a label the point takes that leaf alone
    k = 3
    at_label = field.eval(U[:5], np.full(5, field.labels[k]))
    np.testing.assert_allclose(at_label, models[k](U[:5]),
                               rtol=0, atol=1e-13 * scale)


def test_batched_eval_zero_span(bidisc_leaf_field, bidisc_leaf_models):
    # a last label at 2 pi coincides with the first one mod 2 pi: the
    # bracket across the seam has zero span and the scalar rule gives the
    # lower leaf full weight
    labels = bidisc_leaf_field.labels.copy()
    labels[-1] = 2 * np.pi
    field = dataclasses.replace(bidisc_leaf_field, labels=labels)
    U, t = _label_samples(labels, 100, seed=32)
    ref = _eval_per_point(field, bidisc_leaf_models, U, t)
    scale = np.max(np.abs(ref))
    np.testing.assert_allclose(field.eval(U, t), ref, rtol=0,
                               atol=1e-13 * scale)
    seam = np.array([0.0, 2 * np.pi, -2 * np.pi])
    np.testing.assert_allclose(field.eval(U[:3], seam),
                               bidisc_leaf_models[-1](U[:3]), rtol=0,
                               atol=1e-13 * scale)


def test_collar_psi_smooth_across_leaf_labels(bidisc, bidisc_leaf_field):
    # psi along Re z2 through a mesh point whose feet cross the label pi/4.
    # Blending the leaves linearly in the label put a kink there: the
    # second difference peaked at 4.9e4 against a median of 8.2.  The C3
    # blend measures 0.24 at most.
    psi = Psi(collar_terms(bidisc.domain, bidisc_leaf_field,
                           bidisc.sigma_coords), (1.0,))
    step = 5e-5
    mesh, _ = bidisc.interior_mesh(40, seed=9, depth=ORACLE_DEPTH)
    line = (mesh[38][None]
            + np.outer(np.arange(-200, 201) * step, [0.0, 0.0, 1.0, 0.0]))
    feet, _ = foot_points(bidisc.domain, line)
    _, t, _ = bidisc.sigma_coords(feet)
    assert t.min() < np.pi / 4 < t.max()
    v = psi_at_feet(psi, feet)
    second = np.abs(v[2:] - 2 * v[1:-1] + v[:-2]) / step ** 2
    assert np.max(second) < 2.5


def test_eval_without_labels_uses_first_leaf(bidisc_leaf_field,
                                            bidisc_leaf_models):
    field = bidisc_leaf_field
    U, t = _label_samples(field.labels, 20, seed=33)
    first = bidisc_leaf_models[0](U)
    np.testing.assert_array_equal(field.eval(U, None), first)
    unlabeled = dataclasses.replace(field, labels=None)
    np.testing.assert_array_equal(unlabeled.eval(U, t), first)


# ---------------------------------------------------------------------------
# one lattice and one monomial basis for every leaf
# ---------------------------------------------------------------------------

def test_shared_basis_matches_per_leaf_reference(bidisc, bidisc_leaf_field):
    # the shared lattice, design and normal matrix give each leaf the bits
    # of its own fit, and eval's one monomial table the bits of the two
    # bracketing leaves' own tables
    field = bidisc_leaf_field
    models = _assert_matches_tree_route(field, leaf_sources(bidisc), 9)
    U, t = _label_samples(field.labels, 300, seed=34)
    for labels in (t, None):
        np.testing.assert_array_equal(
            field.eval(U, labels), eval_per_leaf(models, field.labels,
                                                 U, labels))
    np.testing.assert_array_equal(
        field.eval(field.params, np.full(len(field.params), field.labels[2])),
        eval_per_leaf(models, field.labels, field.params,
                      np.full(len(field.params), field.labels[2])))


@pytest.mark.parametrize("res", [7, 9, 17])
@pytest.mark.parametrize("name", ["log_polar", "patch"])
def test_single_chart_basis_matches_per_leaf_reference(worm, name, res):
    src = ThetaSource(worm.charts[name])
    phi = build_potential(src, np.zeros(2), classify({}, 1e-6), res=res)
    [model] = _assert_matches_tree_route(phi, [src], res)
    rng = np.random.default_rng(res)
    U = rng.uniform(src.chart.lo, src.chart.hi, size=(50, 2))
    for V in (U, phi.params):
        np.testing.assert_array_equal(phi.eval(V, None),
                                      eval_per_leaf([model], None, V, None))


def test_potential_charts_share_one_box(bidisc):
    field = lambda U: U[:, 0] - 1j * U[:, 1]
    sources = [HFieldSource(disc_chart(bidisc, half), field)
               for half in (0.6, 0.8)]
    with pytest.raises(ChartMismatch, match="one parameter box"):
        build_potential(sources, np.zeros(2), classify({}, 1e-6), res=9)
