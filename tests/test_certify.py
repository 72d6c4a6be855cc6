"""Boundary inequality, interior oracle, index estimation, cutoff bound,
residual sequence, and the real-curve certificate."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import Shifted, oracle_terms
from dfindex.certify import (DEFAULT_ETA_GRID, CriterionEvaluator, PatchSpec,
                             ZeroPsi, caccioppoli_check, coordinate_descent,
                             curve_psi_from_report, interior_psh_oracle,
                             oracle_stencils, real_curve_certify, rho_terms)
from dfindex import certify, cohomology, distance, sigma
from dfindex.cohomology import ChartPsi, collar_psi
from dfindex.distance import delta_jet, signed_distance
from dfindex.errors import HypothesisFail, MeshOutside, NotACurve, StencilLeak
from dfindex.pipelines import (FAMILY_BOX, ORACLE_DEPTH, Run, certify_domain,
                               default_psi_for, estimate_domain, sigma_scan)
from references import numeric_jet, residual_sequence


@pytest.fixture(scope="module")
def worm_sigma(worm):
    return sigma_scan(worm, 1500, seed=0)


@pytest.fixture(scope="module")
def bidisc_sigma(bidisc):
    return sigma_scan(bidisc, 1500, seed=0)


@pytest.fixture(scope="module")
def bidisc_psi(bidisc):
    psi, provenance, verdict = default_psi_for(bidisc)
    assert "potential" in provenance
    return psi


# ---------------------------------------------------------------------------
# boundary criterion
# ---------------------------------------------------------------------------

def test_ball_criterion_vacuous(ball):
    sig = sigma_scan(ball, 500, seed=1)
    rep = CriterionEvaluator(ball.domain, sig).report(ZeroPsi(), 0.99)
    assert rep.certified and rep.vacuous


def test_bidisc_criterion_certifies(bidisc, bidisc_sigma, bidisc_psi):
    rep = CriterionEvaluator(bidisc.domain, bidisc_sigma).report(bidisc_psi,
                                                                 0.99)
    assert rep.certified
    assert rep.max_lhs <= 1e-4


def test_worm_criterion_rejects_zero_psi(worm, worm_sigma):
    rep = CriterionEvaluator(worm.domain, worm_sigma).report(ZeroPsi(), 0.9)
    assert not rep.certified
    assert rep.max_lhs > 1.0
    # the blow-up coefficient (1/(1-eta)-1) = 9 against |h|^2 = 1/(4 r^2)
    r_min = np.exp(-worm.domain.meta["a"] / 2)
    assert abs(rep.max_lhs - 9.0 / (4 * r_min ** 2)) < 0.5


def test_third_term_batched_matches_per_direction_loop(worm, worm_sigma):
    ev = CriterionEvaluator(worm.domain, worm_sigma)
    jet = distance.delta_jet(worm.domain, worm_sigma.points, order=3)
    sub = jet.subset(ev.sample_index)
    N = distance.normal_n(jet)[ev.sample_index]
    pure = np.array([complex(sub.at(i).third_directional(
        (L, np.zeros_like(L)), (N[i], np.zeros_like(L)),
        (np.zeros_like(L), np.conj(L)))[0]) for i, L in enumerate(ev.Ls)])
    cols = np.einsum("kij,kj->ki", sub.mixed, np.conj(ev.Ls))
    transport = 2.0 * np.einsum("ki,ki->k", cols, np.conj(cols)).real
    loop = pure.real + transport
    assert len(loop) > 0
    assert np.max(np.abs(ev.third_field - loop)
                  / np.maximum(np.abs(loop), 1.0)) < 1e-14
    third_imag = float(np.max(np.abs(pure.imag)))
    assert abs(ev.third_imag - third_imag) <= 1e-14
    rep = ev.report(ZeroPsi(), 0.5).to_json()
    assert rep["thirdImag"] == ev.third_imag


@pytest.fixture(scope="module")
def worm_run(worm):
    """A run whose Sigma scan is worm_sigma's."""
    return Run(worm, 1500, seed=0)


@pytest.fixture(scope="module")
def worm_evaluator(worm_run):
    return worm_run.evaluator


@pytest.fixture(scope="module")
def worm_family_psi(worm):
    """A nonzero psi on the worm's Sigma coordinates, as the family search
    builds them."""
    return ChartPsi(worm.sigma_coords, lambda U, t: 0.4 * U[:, 0]
                    - 0.3 * np.cos(U[:, 1]) + 0.2 * U[:, 0] * np.sin(U[:, 1]))


@settings(max_examples=30, deadline=None)
@given(c=st.floats(-1e3, 1e3), eta=st.floats(0.05, 0.99),
       family=st.booleans())
def test_criterion_invariant_under_psi_shift(worm_evaluator, worm_family_psi,
                                             c, eta, family):
    # psi -> psi + c moves only the rounding of the stencil values: second
    # differences of values of size |c| + |psi| carry an error of order
    # (|c| + |psi|) eps / h^2, h = FD_STEP * scale
    ev = worm_evaluator
    psi = worm_family_psi if family else ZeroPsi()
    size = abs(c) + float(np.abs(psi.at_feet(ev.stencil.feet)).max())
    if family:
        assert size - abs(c) > 0.1
    tol = 2.0 * size * np.finfo(float).eps / ev.stencil.h ** 2
    base = ev.lhs(psi, eta)
    assert np.max(np.abs(ev.lhs(Shifted(psi, c), eta) - base)) <= tol


@settings(max_examples=30, deadline=None)
@given(coef=st.lists(st.floats(-FAMILY_BOX, FAMILY_BOX), min_size=8,
                     max_size=8),
       eta=st.floats(0.05, 0.99))
def test_family_columns_score_as_the_criterion(worm_run, coef, eta):
    # the family search's objective on the columns (G, Q) against the
    # criterion on the psi they stand for, sample by sample; the two routes
    # round stencil values of size at most sum_i |c_i| max|b_i|, and second
    # differences carry that rounding as size eps / h^2, as in
    # test_criterion_invariant_under_psi_shift
    ev = worm_run.evaluator
    G, Q = worm_run.family_columns
    assert G.shape == Q.shape == (len(ev.Ls), len(coef))
    c = np.array(coef)
    sizes = [np.abs(worm_run.family_member(e).at_feet(ev.stencil.feet)).max()
             for e in np.eye(len(c))]
    tol = 2.0 * float(np.abs(c) @ sizes) * np.finfo(float).eps \
        / ev.stencil.h ** 2
    dirs = ev.lhs_dirs(G @ c, Q @ c, eta)
    per_sample = np.full(ev.K, -np.inf)
    np.maximum.at(per_sample, ev.sample_index, dirs)
    ref = ev.lhs(worm_run.family_member(c), eta)
    assert np.max(np.abs(per_sample - ref)) <= tol
    assert abs(dirs.max() - ref.max()) <= tol


def test_criterion_monotonicity_in_eta(worm, worm_sigma):
    ev = CriterionEvaluator(worm.domain, worm_sigma)
    psi = ZeroPsi()
    lhs1 = ev.lhs(psi, 0.5)
    lhs2 = ev.lhs(psi, 0.9)
    assert np.all(lhs1 <= lhs2 + 1e-12)


def test_criterion_monotone_certified_downward(bidisc, bidisc_sigma,
                                               bidisc_psi):
    ev = CriterionEvaluator(bidisc.domain, bidisc_sigma)
    reps = [ev.report(bidisc_psi, eta) for eta in (0.5, 0.9, 0.99)]
    assert all(r.certified for r in reps)
    assert reps[0].max_lhs <= reps[1].max_lhs <= reps[2].max_lhs + 1e-12


# ---------------------------------------------------------------------------
# interior oracle
# ---------------------------------------------------------------------------

def oracle(domain, mesh, psi, eta, slack_rel=1e-6):
    return interior_psh_oracle(*oracle_terms(domain, mesh, psi), eta,
                               slack_rel=slack_rel)


def test_ball_oracle_with_algebraic_override(ball):
    mesh = ball.interior_mesh(10000, seed=2)
    jet = ball.domain.jet(mesh, order=2)
    rep = interior_psh_oracle(jet.value, jet.wgrad, jet.mixed, 0.99,
                              slack_rel=1e-10)
    assert rep.certified
    assert rep.min_eig >= -1e-10


def test_ball_oracle_distance_route(ball):
    # the ball's default depths reach 0.5, past its 0.22 collar, where the
    # signed distance has no jet; ORACLE_DEPTH ends inside every collar
    with pytest.raises(StencilLeak):
        oracle_terms(ball.domain, ball.interior_mesh(800, seed=3), ZeroPsi())
    mesh = ball.interior_mesh(800, seed=3, depth=ORACLE_DEPTH)
    assert oracle(ball.domain, mesh, ZeroPsi(), 0.99).certified


def test_worm_oracle_negative_at_high_eta(worm):
    mesh = worm.interior_mesh(600, seed=4)
    rep = oracle(worm.domain, mesh, ZeroPsi(), 0.99)
    assert not rep.certified
    assert rep.min_eig < 0


def test_small_eta_certifies_on_mild_domains(ball, bidisc, quartic):
    # near the boundary the gradient-squared term dominates for small eta;
    # verified numerically per domain (the worm's concave rim needs a
    # convexifying potential and stays out)
    for entry in (ball, bidisc, quartic):
        mesh = entry.interior_mesh(500, seed=5, depth=(0.04, 0.1))
        assert oracle(entry.domain, mesh, ZeroPsi(), 0.05).certified, entry.id


@pytest.mark.parametrize("name", ["ball", "quartic", "worm"])
def test_oracle_reads_delta_jet_with_zero_psi(name, request):
    # with psi = 0, rho = delta: the oracle's arrays are delta_jet's, bit
    # for bit, also on the worm mesh, where some stencil nodes around the
    # mesh get feet that are not nearest
    entry = request.getfixturevalue(name)
    mesh = entry.interior_mesh(200, seed=7, depth=ORACLE_DEPTH)
    jet = delta_jet(entry.domain, mesh, order=2)
    value, wgrad, mixed = oracle_terms(entry.domain, mesh, ZeroPsi())
    np.testing.assert_array_equal(value, jet.value)
    np.testing.assert_array_equal(wgrad, jet.wgrad)
    np.testing.assert_array_equal(mixed, jet.mixed)


def _psi_at(domain, psi, P):
    """psi at ambient points, through their own projection."""
    feet, _ = distance.foot_points(domain, P, ambiguity_check=False)
    return psi.at_feet(feet)


def _two_projection_jet(domain, psi, mesh):
    """The oracle composite with delta and psi projecting separately, one
    numeric_jet step at a time."""
    def values(P):
        return signed_distance(domain, P) * np.exp(_psi_at(domain, psi, P))

    return numeric_jet(values, mesh, order=2, h=1e-3 * domain.scale)


@pytest.fixture(scope="module")
def oracle_psis(bidisc, bidisc_leaf_field, quartic):
    """(entry, psi) for each foot-constant evaluator kind the oracle sees."""
    collar = collar_psi(bidisc.domain, bidisc_leaf_field, bidisc.sigma_coords)
    rep = real_curve_certify(quartic.domain, quartic.charts["curve"], 0.99)
    # a support wider than the default reaches the interior mesh, so psi
    # varies over the stencils
    curve = curve_psi_from_report(quartic.domain, quartic.charts["curve"],
                                  rep, quartic.sigma_distance, width=0.6)
    return {"collar": (bidisc, collar), "curve": (quartic, curve)}


# per-point bounds on |oracle - reference| over the point's largest
# reference entry, for the Wirtinger gradient and the mixed Hessian, at
# about three times the values measured on the meshes below: collar 1.7e-5
# and 6.8e-6, where e^psi spans eight decades; curve 2.2e-10 and 1.6e-9.
# The reference's own truncation dominates: against numeric_jet at a
# quarter of its step, the oracle's worst collar entry moves from 33 to
# 0.66.  Dropping the cross terms d delta (x) dbar psi + d psi (x) dbar
# delta raises the mixed measure to 1.0 and 1.1e-2; skipping psi's
# Richardson level raises the gradient measure to 4.9e-3 and 7.9e-7.
ORACLE_REF_TOL = {"collar": (5e-5, 2e-5), "curve": (1e-9, 5e-9)}


@pytest.mark.parametrize("kind", ["collar", "curve"])
def test_oracle_composite_matches_two_projections(oracle_psis, kind):
    entry, psi = oracle_psis[kind]
    mesh = entry.interior_mesh(40, seed=7)
    value, wgrad, mixed = oracle_terms(entry.domain, mesh, psi)
    ref = _two_projection_jet(entry.domain, psi, mesh)
    # value: the same feet and the same arithmetic
    np.testing.assert_array_equal(value, ref.value)
    for got, want, tol in zip((wgrad, mixed), (ref.wgrad, ref.mixed),
                              ORACLE_REF_TOL[kind]):
        err = np.abs(got - want).reshape(len(mesh), -1).max(axis=1)
        size = np.abs(want).reshape(len(mesh), -1).max(axis=1)
        assert np.all(err <= tol * size)
    # psi is not constant on the stencils, so the check has teeth
    assert np.ptp(_psi_at(entry.domain, psi, mesh)) > 1e-3


def test_oracle_projects_each_stencil_node_once(oracle_psis, monkeypatch):
    entry, psi = oracle_psis["collar"]
    mesh = entry.interior_mesh(30, seed=8)
    rows = []
    original = distance.foot_points

    def counting(domain, Z, *args, **kwargs):
        rows.append(np.atleast_2d(Z).shape[0])
        return original(domain, Z, *args, **kwargs)

    for module in (distance, certify, cohomology):
        monkeypatch.setattr(module, "foot_points", counting)
    delta = delta_jet(entry.domain, mesh, order=2)
    stencils = oracle_stencils(entry.domain, mesh)
    # the mesh once for delta_jet, then psi's 17 nodes in C^2 at each of
    # two Richardson steps
    assert sum(rows) == 35 * mesh.shape[0]
    for eta in (0.5, 0.99):
        interior_psh_oracle(*rho_terms(delta, stencils, psi), eta,
                            slack_rel=1e-6)
    assert sum(rows) == 35 * mesh.shape[0]


def test_mesh_outside_raises(ball):
    jet = ball.domain.jet(np.array([[1.5, 0, 0, 0]]), order=2)
    with pytest.raises(MeshOutside):
        interior_psh_oracle(jet.value, jet.wgrad, jet.mixed, 0.5)


# ---------------------------------------------------------------------------
# estimation
# ---------------------------------------------------------------------------

def test_estimate_ball(ball):
    cert = estimate_domain(ball, eta_grid=(0.5, 0.99), mesh_count=500,
                           oracle_count=400)
    assert cert.bound >= 0.99


def test_estimate_bidisc(bidisc):
    cert = estimate_domain(bidisc, eta_grid=(0.5, 0.99), mesh_count=1000,
                           oracle_count=400)
    assert cert.bound >= 0.99
    assert cert.records[-1]["psi"] == "collar potential"


def test_estimate_worm_obstructed(worm):
    cert = estimate_domain(worm, eta_grid=(0.9, 0.99), mesh_count=1000,
                           oracle_count=300)
    assert cert.bound < 0.99
    assert "obstruction" in cert.diagnostics
    assert abs(cert.diagnostics["obstruction"]["periods"][0]
               + np.pi) < 0.05


def test_estimate_builds_one_evaluator(worm, monkeypatch):
    builds = []
    init = certify.CriterionEvaluator.__init__

    def counting(self, *args, **kwargs):
        builds.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(certify.CriterionEvaluator, "__init__", counting)
    cert = estimate_domain(worm, eta_grid=DEFAULT_ETA_GRID, mesh_count=400,
                           oracle_count=20)
    # the family search ran at every eta, on the run's one evaluator
    assert len(cert.diagnostics["psiProvenance"]) == len(DEFAULT_ETA_GRID)
    assert len(builds) == 1


def test_estimate_evaluates_psi_on_the_stencil_18_times(worm, monkeypatch):
    calls = []
    differences = certify.PsiStencil.differences

    def counting(self, psi):
        calls.append(1)
        return differences(self, psi)

    monkeypatch.setattr(certify.PsiStencil, "differences", counting)
    cert = estimate_domain(worm, eta_grid=DEFAULT_ETA_GRID, mesh_count=400,
                           oracle_count=20)
    assert len(cert.diagnostics["psiProvenance"]) == len(DEFAULT_ETA_GRID)
    # one column per basis function, then the zero and the family psi are
    # scored at each eta; the search itself never evaluates psi
    assert len(calls) == 8 + 2 * len(DEFAULT_ETA_GRID) == 18


def test_estimate_builds_interior_mesh_once(quartic, monkeypatch):
    calls = []
    build = quartic.interior_mesh

    def counting(*args, **kwargs):
        calls.append(1)
        return build(*args, **kwargs)

    monkeypatch.setattr(quartic, "interior_mesh", counting)
    cert = estimate_domain(quartic, mesh_count=200, oracle_count=100)
    assert [r["certified"] for r in cert.records] == [True] * 5
    assert len(calls) == 1


def test_estimate_projects_oracle_stencil_once(quartic, monkeypatch):
    meshes = []
    build = quartic.interior_mesh

    def keeping(*args, **kwargs):
        meshes.append(build(*args, **kwargs))
        return meshes[-1]

    calls = []
    original = distance.foot_points

    def counting(domain, Z, *args, **kwargs):
        calls.append(np.atleast_2d(Z))
        return original(domain, Z, *args, **kwargs)

    monkeypatch.setattr(quartic, "interior_mesh", keeping)
    for module in (distance, certify, cohomology, sigma):
        monkeypatch.setattr(module, "foot_points", counting)
    cert = estimate_domain(quartic, eta_grid=DEFAULT_ETA_GRID, mesh_count=200,
                           oracle_count=100)
    assert [r["certified"] for r in cert.records] == [True] * 5
    mesh = meshes[0]
    B = len(mesh)
    assert B > 50
    # the oracle ran at every eta on 35 rows per mesh point, projected
    # once: the mesh (delta_jet) and psi's stencil at each of two steps
    # (17 nodes in C^2, the mesh first); the curve certificate's own
    # projections do not start with the mesh
    oracle_rows = sorted(len(Z) for Z in calls
                         if len(Z) >= B and np.array_equal(Z[:B], mesh))
    assert oracle_rows == [B, 17 * B, 17 * B]


def test_certify_pipeline_exit_semantics(ball, worm):
    rb = certify_domain(ball, 0.99, mesh_count=400, oracle_count=300)
    assert rb["certified"]
    rw = certify_domain(worm, 0.99, mesh_count=800, oracle_count=300)
    assert not rw["certified"]
    assert rw["obstruction"]["classification"] == "Obstructed"


def test_coordinate_descent_quadratic():
    target = np.array([0.3, -0.2, 0.7])
    obj = lambda x: float(np.sum((x - target) ** 2))
    x, val = coordinate_descent(obj, np.zeros(3), -np.ones(3), np.ones(3))
    assert val < 1e-6
    np.testing.assert_allclose(x, target, atol=1e-3)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1: a golden-section "
                   "step keeps a stale coordinate in xc or xd")
def test_coordinate_descent_returns_the_value_of_its_point():
    rng = np.random.default_rng(7)
    for _ in range(20):
        A = rng.normal(size=(2, 2))
        H = A @ A.T + 0.1 * np.eye(2)
        target = rng.uniform(-1.5, 1.5, 2)

        def obj(x):
            return float((x - target) @ H @ (x - target))

        x, val = coordinate_descent(obj, np.zeros(2), -np.ones(2),
                                    np.ones(2))
        assert obj(x) == val


# ---------------------------------------------------------------------------
# cutoff L2 bound
# ---------------------------------------------------------------------------

def test_caccioppoli_constant_function():
    rep = caccioppoli_check(PatchSpec(radius=1.0),
                            lambda xs: 0.0 * xs[0] + (-1.0), n=4)
    assert rep.left < 1e-12
    assert rep.ok


@pytest.mark.parametrize("n", [1, 4, 16])
def test_caccioppoli_gaussian_family(n):
    rep = caccioppoli_check(
        PatchSpec(radius=1.0 / np.sqrt(n)),
        lambda xs: -(xs[0] * xs[0] + xs[1] * xs[1]), n=n)
    assert rep.ok
    assert rep.left <= 0.99 * rep.bound
    # closed form of the left side: pi R^4 / 32 with R = 1/sqrt(n)
    assert abs(rep.left - np.pi / (32 * n ** 2)) < 1e-4 / n ** 2
    assert rep.hypothesis_max <= 1e-10


def test_caccioppoli_hypothesis_fail():
    with pytest.raises(HypothesisFail):
        caccioppoli_check(PatchSpec(radius=1.0),
                          lambda xs: xs[0] * xs[0] + xs[1] * xs[1], n=4)


# ---------------------------------------------------------------------------
# residual sequence
# ---------------------------------------------------------------------------

def test_residual_sequence_bidisc(bidisc, bidisc_psi):
    chart = bidisc.notes["main_leaf"]
    etas = [0.5, 0.9, 0.99]
    vals = residual_sequence(bidisc.domain, chart, 0.6, etas,
                             lambda eta: bidisc_psi, res=9)
    assert all(v < 1e-4 for v in vals)
    # constant-shift family: identical residuals (documented non-uniqueness)
    shifts = iter([1.0, 2.0, 3.0])
    vals2 = residual_sequence(bidisc.domain, chart, 0.6, etas,
                              lambda eta: Shifted(bidisc_psi, next(shifts)),
                              res=9)
    np.testing.assert_allclose(vals, vals2, atol=1e-10)


def test_residual_sequence_worm_bounded_below(worm):
    chart = worm.charts["patch"]
    vals = residual_sequence(worm.domain, chart, 0.6, [0.5, 0.9, 0.99],
                             lambda eta: ZeroPsi(), res=9)
    # the period obstruction keeps the L1 residual bounded away from zero
    assert min(vals) > 1e-3


# ---------------------------------------------------------------------------
# real-curve certificate
# ---------------------------------------------------------------------------

def test_curve_certificate_quartic(quartic):
    reports = {}
    for eta in (0.5, 0.99):
        rep = real_curve_certify(quartic.domain, quartic.charts["curve"],
                                 eta)
        assert rep.certified
        assert rep.max_lhs <= -rep.C_eta + rep.slack
        assert rep.case == "transversal"
        reports[eta] = rep
    assert abs(reports[0.5].b) <= abs(reports[0.99].b) + 1e-9


def test_curve_certificate_ball_not_a_curve(ball):
    with pytest.raises(NotACurve):
        real_curve_certify(ball.domain, None, 0.5)


def test_curve_psi_cross_validation(quartic):
    rep = real_curve_certify(quartic.domain, quartic.charts["curve"], 0.99)
    psi = curve_psi_from_report(quartic.domain, quartic.charts["curve"],
                                rep, quartic.sigma_distance)
    mesh = quartic.interior_mesh(400, seed=6)
    assert oracle(quartic.domain, mesh, psi, 0.99).certified


def test_curve_quartic_transversal_quantities(quartic):
    # derived: g(nabla_nu nu, dt) = 0 along the circle, a(t) = 1
    rep = real_curve_certify(quartic.domain, quartic.charts["curve"], 0.5)
    assert np.max(np.abs(rep.g_t)) < 1e-6
    np.testing.assert_allclose(rep.a_values, np.ones_like(rep.a_values),
                               atol=1e-6)
