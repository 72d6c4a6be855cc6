"""Boundary inequality, interior oracle, index estimation, cutoff bound,
residual sequence, and the real-curve certificate."""

import numpy as np
import pytest

from dfindex.certify import (CriterionEvaluator, PatchSpec, ZeroPsi,
                             boundary_criterion, caccioppoli_check,
                             coordinate_descent, curve_psi_from_report,
                             delta_exp_psi_jet_fn, interior_psh_oracle,
                             oracle_jet_fn_from_rho, real_curve_certify,
                             residual_sequence)
from dfindex import certify, cohomology, distance
from dfindex.cohomology import CollarMap, extend_to_collar
from dfindex.distance import signed_distance
from dfindex.errors import HypothesisFail, MeshOutside, NotACurve
from dfindex.jets import numeric_jet
from dfindex.levi import detect_sigma
from dfindex.pipelines import (certify_domain, default_psi_for,
                               estimate_domain, sigma_scan)


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
    rep = boundary_criterion(ball.domain, sig, ZeroPsi(ball.domain), 0.99)
    assert rep.certified and rep.vacuous


def test_bidisc_criterion_certifies(bidisc, bidisc_sigma, bidisc_psi):
    rep = boundary_criterion(bidisc.domain, bidisc_sigma, bidisc_psi, 0.99)
    assert rep.certified
    assert rep.max_lhs <= 1e-4


def test_worm_criterion_rejects_zero_psi(worm, worm_sigma):
    rep = boundary_criterion(worm.domain, worm_sigma, ZeroPsi(worm.domain),
                             0.9)
    assert not rep.certified
    assert rep.max_lhs > 1.0
    # the blow-up coefficient (1/(1-eta)-1) = 9 against |h|^2 = 1/(4 r^2)
    r_min = np.exp(-worm.domain.meta["a"] / 2)
    assert abs(rep.max_lhs - 9.0 / (4 * r_min ** 2)) < 0.5


def test_criterion_monotonicity_in_eta(worm, worm_sigma):
    ev = CriterionEvaluator(worm.domain, worm_sigma)
    psi = ZeroPsi(worm.domain)
    lhs1 = ev.lhs(psi, 0.5)
    lhs2 = ev.lhs(psi, 0.9)
    assert np.all(lhs1 <= lhs2 + 1e-12)


def test_criterion_monotone_certified_downward(bidisc, bidisc_sigma,
                                               bidisc_psi):
    reps = [boundary_criterion(bidisc.domain, bidisc_sigma, bidisc_psi, eta)
            for eta in (0.5, 0.9, 0.99)]
    assert all(r.certified for r in reps)
    assert reps[0].max_lhs <= reps[1].max_lhs <= reps[2].max_lhs + 1e-12


# ---------------------------------------------------------------------------
# interior oracle
# ---------------------------------------------------------------------------

def test_ball_oracle_with_algebraic_override(ball):
    mesh = ball.interior_mesh(10000, seed=2)
    rep = interior_psh_oracle(oracle_jet_fn_from_rho(ball.domain), 0.99,
                              mesh, slack_rel=1e-10)
    assert rep.certified
    assert rep.min_eig >= -1e-10


def test_ball_oracle_distance_route(ball):
    mesh = ball.interior_mesh(800, seed=3)
    fn = delta_exp_psi_jet_fn(ball.domain, ZeroPsi(ball.domain))
    rep = interior_psh_oracle(fn, 0.99, mesh, slack_rel=1e-6)
    assert rep.certified


def test_worm_oracle_negative_at_high_eta(worm):
    mesh = worm.interior_mesh(600, seed=4)
    fn = delta_exp_psi_jet_fn(worm.domain, ZeroPsi(worm.domain))
    rep = interior_psh_oracle(fn, 0.99, mesh, slack_rel=1e-6)
    assert not rep.certified
    assert rep.min_eig < 0


def test_small_eta_certifies_on_mild_domains(ball, bidisc, quartic):
    # near the boundary the gradient-squared term dominates for small eta;
    # verified numerically per domain (the worm's concave rim needs a
    # convexifying potential and stays out)
    for entry in (ball, bidisc, quartic):
        mesh = entry.interior_mesh(500, seed=5, depth=(0.04, 0.1))
        fn = delta_exp_psi_jet_fn(entry.domain, ZeroPsi(entry.domain))
        rep = interior_psh_oracle(fn, 0.05, mesh, slack_rel=1e-6)
        assert rep.certified, entry.id


def _two_projection_jet_fn(domain, psi):
    """The oracle composite with delta and psi projecting separately."""
    h = 1e-3 * domain.scale

    def values(P):
        return signed_distance(domain, P) * np.exp(psi(P))

    return lambda mesh: numeric_jet(values, mesh, order=2, h=h)


@pytest.fixture(scope="module")
def oracle_psis(bidisc, bidisc_leaf_field, quartic, worm):
    """(entry, psi) for each foot-constant evaluator kind the oracle sees."""
    collar = extend_to_collar(bidisc.domain, bidisc_leaf_field,
                              CollarMap(to_chart=bidisc.sigma_coords))
    rep = real_curve_certify(quartic.domain, quartic.charts["curve"], 0.99)
    # a support wider than the default reaches the interior mesh, so psi
    # varies over the stencils
    curve = curve_psi_from_report(quartic.domain, quartic.charts["curve"],
                                  rep, quartic.sigma_distance, width=0.6)
    return {"collar": (bidisc, collar), "curve": (quartic, curve),
            "zero": (worm, ZeroPsi(worm.domain))}


@pytest.mark.parametrize("kind", ["collar", "curve", "zero"])
def test_oracle_composite_matches_two_projections(oracle_psis, kind):
    entry, psi = oracle_psis[kind]
    mesh = entry.interior_mesh(40, seed=7)
    got = delta_exp_psi_jet_fn(entry.domain, psi)(mesh)
    ref = _two_projection_jet_fn(entry.domain, psi)(mesh)
    # both routes project the same nodes with the same call
    np.testing.assert_array_equal(got.value, ref.value)
    np.testing.assert_array_equal(got.wgrad, ref.wgrad)
    np.testing.assert_array_equal(got.mixed, ref.mixed)
    if kind != "zero":
        # psi is not constant on the stencils, so the check has teeth
        assert np.ptp(psi(mesh)) > 1e-3


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
    interior_psh_oracle(delta_exp_psi_jet_fn(entry.domain, psi), 0.99, mesh,
                        slack_rel=1e-6)
    # order-2 stencil in R^4: 33 nodes at two Richardson steps
    assert sum(rows) == 66 * mesh.shape[0]
    rows.clear()
    interior_psh_oracle(_two_projection_jet_fn(entry.domain, psi), 0.99,
                        mesh, slack_rel=1e-6)
    assert sum(rows) == 132 * mesh.shape[0]


def test_mesh_outside_raises(ball):
    mesh = np.array([[1.5, 0, 0, 0]])
    with pytest.raises(MeshOutside):
        interior_psh_oracle(oracle_jet_fn_from_rho(ball.domain), 0.5, mesh)


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


# ---------------------------------------------------------------------------
# cutoff L2 bound
# ---------------------------------------------------------------------------

def test_caccioppoli_constant_function():
    rep = caccioppoli_check(PatchSpec(kind="disc", radius=1.0),
                            lambda xs: 0.0 * xs[0] + (-1.0), n=4)
    assert rep.left < 1e-12
    assert rep.ok


@pytest.mark.parametrize("n", [1, 4, 16])
def test_caccioppoli_gaussian_family(n):
    rep = caccioppoli_check(
        PatchSpec(kind="disc", radius=1.0 / np.sqrt(n)),
        lambda xs: -(xs[0] * xs[0] + xs[1] * xs[1]), n=n)
    assert rep.ok
    assert rep.left <= 0.99 * rep.bound
    # closed form of the left side: pi R^4 / 32 with R = 1/sqrt(n)
    assert abs(rep.left - np.pi / (32 * n ** 2)) < 1e-4 / n ** 2
    assert rep.hypothesis_max <= 1e-10


def test_caccioppoli_hypothesis_fail():
    with pytest.raises(HypothesisFail):
        caccioppoli_check(PatchSpec(kind="disc", radius=1.0),
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

    class Shifted:
        def __init__(self, base, c):
            self.base = base
            self.c = c

        def __call__(self, P):
            return self.base(P) + self.c

    vals2 = residual_sequence(bidisc.domain, chart, 0.6, etas,
                              lambda eta: Shifted(bidisc_psi, next(shifts)),
                              res=9)
    np.testing.assert_allclose(vals, vals2, atol=1e-10)


def test_residual_sequence_worm_bounded_below(worm):
    chart = worm.charts["patch"]
    vals = residual_sequence(worm.domain, chart, 0.6, [0.5, 0.9, 0.99],
                             lambda eta: ZeroPsi(worm.domain), res=9)
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
    orep = interior_psh_oracle(delta_exp_psi_jet_fn(quartic.domain, psi),
                               0.99, mesh, slack_rel=1e-6)
    assert orep.certified


def test_curve_quartic_transversal_quantities(quartic):
    # derived: g(nabla_nu nu, dt) = 0 along the circle, a(t) = 1
    rep = real_curve_certify(quartic.domain, quartic.charts["curve"], 0.5)
    assert np.max(np.abs(rep.g_t)) < 1e-6
    np.testing.assert_allclose(rep.a_values, np.ones_like(rep.a_values),
                               atol=1e-6)
