"""Boundary inequality, interior oracle, index estimation, cutoff bound,
residual sequence, and the real-curve certificate."""

import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import ZERO_PSI, oracle_terms, psi_at_feet, shifted
from dfindex.certify import (CriterionEvaluator, CurveTerms, Psi,
                             coordinate_descent, interior_psh_oracle,
                             oracle_stencils, real_curve_certify)
from dfindex import certify, cohomology, distance, pipelines, zoo
from dfindex.cohomology import ChartTerms, collar_terms
from dfindex.errors import MeshOutside, NotACurve, StencilLeak
from dfindex.levi import detect_sigma
from dfindex.pipelines import FAMILY_BOX, ORACLE_DEPTH, Run
from dfindex.sigma import theta_components
from dfindex.util import complex_pack, complex_unpack
from references import (HypothesisFail, ball_interior_points,
                        caccioppoli_check, coordinate_descent_unmemoized,
                        delta_jet, lhs_unscaled, numeric_jet,
                        residual_sequence, signed_distance,
                        third_directional)

# the CLI's default eta_grid
ETA_GRID = (0.5, 0.75, 0.9, 0.95, 0.99)
# the depth band, in units of the radius, of the ball's coarse interior mesh
BALL_DEPTH = (0.05, 0.5)


@pytest.fixture(scope="module")
def worm_sigma(worm):
    return Run(worm, mesh_count=1500).sigma


@pytest.fixture(scope="module")
def bidisc_sigma(bidisc):
    return Run(bidisc, mesh_count=1500).sigma


@pytest.fixture(scope="module")
def bidisc_psi(bidisc):
    provenance, psi, _ = next(Run(bidisc).candidates(0.99, []))
    assert "potential" in provenance
    return psi


# ---------------------------------------------------------------------------
# boundary criterion
# ---------------------------------------------------------------------------

def test_ball_criterion_vacuous(ball):
    sig = Run(ball, mesh_count=500, seed=1).sigma
    rep = CriterionEvaluator(ball.domain, sig).report(ZERO_PSI, 0.99, None,
                                                      "")
    assert rep["certified"] and rep["vacuous"]


def _scaled(entry, s):
    """The entry's domain scaled by s: rho(z / s) on the box times s."""
    dom = entry.domain
    return dataclasses.replace(
        dom, rho=lambda c: dom.rho([x * (1.0 / s) for x in c]),
        box_lo=s * dom.box_lo, box_hi=s * dom.box_hi)


def test_criterion_slack_scales_as_its_left_hand_side(worm):
    # under z -> s z the left-hand side has degree -2 and levi_scale degree
    # -1, so the automatic slack 1e-4 levi_scale^2 keeps its margin to
    # maxLHS (maxLHS s^2 = 1.19952541776 with psi = 0 at eta 0.5 and 200
    # samples at every s)
    mesh = worm.boundary_mesh(800, 3)
    scaled = []
    for s in (0.5, 1.0, 2.0, 10.0):
        dom = _scaled(worm, s)
        sig = detect_sigma(dom, s * mesh, None)
        rep = CriterionEvaluator(dom, sig).report(ZERO_PSI, 0.5, None, "")
        assert rep["samples"] == 200
        scaled.append((rep["slack"] * s * s, rep["maxLHS"] * s * s))
    for got in scaled[1:]:
        for g, w in zip(got, scaled[0]):
            assert abs(g - w) <= 1e-12 * abs(w)
    assert scaled[0][1] == pytest.approx(1.19952541776, rel=1e-10)


def test_bidisc_criterion_certifies(bidisc, bidisc_sigma, bidisc_psi):
    rep = CriterionEvaluator(bidisc.domain, bidisc_sigma).report(bidisc_psi,
                                                                 0.99, None,
                                                                 "")
    assert rep["certified"]
    assert rep["maxLHS"] <= 1e-4


def test_worm_criterion_rejects_zero_psi(worm, worm_sigma):
    rep = CriterionEvaluator(worm.domain, worm_sigma).report(ZERO_PSI, 0.9,
                                                             None, "")
    assert not rep["certified"]
    assert rep["maxLHS"] > 1.0
    # the blow-up coefficient (1/(1-eta)-1) = 9 against |h|^2 = 1/(4 r^2)
    r_min = np.exp(-worm.domain.meta["a"] / 2)
    assert abs(rep["maxLHS"] - 9.0 / (4 * r_min ** 2)) < 0.5


def test_third_term_batched_matches_per_direction_loop(worm, worm_sigma):
    ev = CriterionEvaluator(worm.domain, worm_sigma)
    jet = delta_jet(worm.domain, worm_sigma.points, order=3)
    N = distance.normal_n(jet)
    pure = np.array([complex(third_directional(
        jet.subset([i]), (L, np.zeros_like(L)), (N[i], np.zeros_like(L)),
        (np.zeros_like(L), np.conj(L)))[0]) for i, L in enumerate(ev.L)])
    cols = np.einsum("kij,kj->ki", jet.mixed, np.conj(ev.L))
    transport = 2.0 * np.einsum("ki,ki->k", cols, np.conj(cols)).real
    loop = pure.real + transport
    assert len(loop) > 0
    assert np.max(np.abs(ev.third_field - loop)
                  / np.maximum(np.abs(loop), 1.0)) < 1e-14
    third_imag = float(np.max(np.abs(pure.imag)))
    assert abs(ev.third_imag - third_imag) <= 1e-14
    rep = ev.report(ZERO_PSI, 0.5, None, "")
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
    """A nonzero psi on the worm's Sigma coordinates: one term that
    combines family basis functions."""
    return Psi(ChartTerms(worm.sigma_coords, lambda U, t: (
        0.4 * U[:, 0] - 0.3 * np.cos(U[:, 1])
        + 0.2 * U[:, 0] * np.sin(U[:, 1]))[:, None]), (1.0,))


@settings(max_examples=30, deadline=None)
@given(c=st.floats(-1e3, 1e3), eta=st.floats(0.05, 0.99),
       family=st.booleans())
def test_criterion_invariant_under_psi_shift(worm_evaluator, worm_family_psi,
                                             c, eta, family):
    # psi -> psi + c moves only the rounding of the stencil values: second
    # differences of values of size |c| + |psi| carry an error of order
    # (|c| + |psi|) eps / h^2, h = FD_STEP * scale
    ev = worm_evaluator
    psi = worm_family_psi if family else ZERO_PSI
    size = abs(c) + float(np.abs(psi_at_feet(psi, ev.stencil.feet)).max())
    if family:
        assert size - abs(c) > 0.1
    tol = 2.0 * size * np.finfo(float).eps / ev.stencil.h ** 2
    base = ev.lhs(psi, eta)
    assert np.max(np.abs(ev.lhs(shifted(psi, c), eta) - base)) <= tol


def _summed_family_psi(run, coef):
    """psi_c as the one term sum_i c_i b_i over the family basis, skipping
    zero coefficients: the summed surface the family's columns stand for."""
    basis = run.family_terms.surface

    def surface(U, t):
        vals = np.zeros(U.shape[0])
        for c, b in zip(coef, basis(U, t).T):
            if c != 0.0:
                vals += c * b
        return vals[:, None]

    return Psi(ChartTerms(run.entry.sigma_coords, surface), (1.0,))


def test_family_columns_stack_single_basis_columns(worm_run):
    # the family's 8 terms differenced in one pass give each basis
    # function's columns bit for bit
    ev = worm_run.evaluator
    basis = worm_run.family_terms.surface
    single = [ev.columns(ChartTerms(worm_run.entry.sigma_coords,
                                    lambda U, t, i=i: basis(U, t)[:, i:i + 1]))
              for i in range(8)]
    G, Q = ev.columns(worm_run.family_terms)
    np.testing.assert_array_equal(G, np.concatenate([g for g, _ in single],
                                                    axis=1))
    np.testing.assert_array_equal(Q, np.concatenate([q for _, q in single],
                                                    axis=1))


@settings(max_examples=30, deadline=None)
@given(coef=st.lists(st.floats(-FAMILY_BOX, FAMILY_BOX), min_size=8,
                     max_size=8),
       eta=st.floats(0.05, 0.99))
@example(coef=[0.0] * 7 + [6.83e-8], eta=0.125)
def test_family_columns_score_as_the_criterion(worm_run, coef, eta):
    # the family search's objective on the columns (G, Q) against the
    # criterion on the psi they stand for, sample by sample; the two routes
    # round stencil values of size at most sum_i |c_i| max|b_i|, and second
    # differences carry that rounding as size eps / h^2, as in
    # test_criterion_invariant_under_psi_shift.  lhs_dirs adds psi's terms
    # to third_field whatever c is, so the sums round at eps max|LHS| too
    # (error 1.7e-18 at the example, where the first term is 2.8e-19)
    ev = worm_run.evaluator
    G, Q = ev.columns(worm_run.family_terms)
    assert G.shape == Q.shape == (ev.K, len(coef))
    c = np.array(coef)
    sizes = np.abs(worm_run.family_terms.terms_at_feet(ev.stencil.feet)).max(
        axis=0)
    per_sample = ev.lhs_dirs(G @ c, Q @ c, eta)
    ref = ev.lhs(_summed_family_psi(worm_run, c), eta)
    eps = np.finfo(float).eps
    tol = 2.0 * float(np.abs(c) @ sizes) * eps / ev.stencil.h ** 2 \
        + eps * float(np.abs(ref).max())
    assert np.max(np.abs(per_sample - ref)) <= tol
    assert abs(per_sample.max() - ref.max()) <= tol


def test_scaled_columns_give_the_unscaled_lhs_bits(worm_run):
    # the columns carry the inequality's factors 1/2 and 1/4, which are
    # powers of two, so every left-hand side keeps its bits
    ev = worm_run.evaluator
    terms = worm_run.family_terms
    G, Q = ev.columns(terms)
    rng = np.random.default_rng(5)
    for eta in ETA_GRID:
        c = rng.uniform(-FAMILY_BOX, FAMILY_BOX, G.shape[1])
        ref = lhs_unscaled(ev, terms, c, eta)
        assert np.array_equal(ev.lhs_dirs(G @ c, Q @ c, eta), ref)
        assert np.array_equal(ev.lhs(Psi(terms, c), eta), ref)


@settings(max_examples=20, deadline=None)
@given(alpha=st.floats(0.0, 2 * np.pi), eta=st.floats(0.05, 0.99))
def test_criterion_ignores_the_phase_of_the_direction(worm, worm_sigma,
                                                      worm_evaluator, alpha,
                                                      eta):
    # h_L's modulus, |H conj L|^2 and the (L, N, conj L) contraction do not
    # change under L -> e^{i alpha} L, so neither does the criterion
    base = worm_evaluator.lhs(ZERO_PSI, eta)
    turned = dataclasses.replace(
        worm_sigma, null_directions=np.exp(1j * alpha)
        * worm_sigma.null_directions)
    lhs = CriterionEvaluator(worm.domain, turned).lhs(ZERO_PSI, eta)
    assert len(base) > 0
    assert np.all(np.abs(lhs - base) <= 1e-12 * np.abs(base))


def test_criterion_monotonicity_in_eta(worm, worm_sigma):
    ev = CriterionEvaluator(worm.domain, worm_sigma)
    psi = ZERO_PSI
    lhs1 = ev.lhs(psi, 0.5)
    lhs2 = ev.lhs(psi, 0.9)
    assert np.all(lhs1 <= lhs2 + 1e-12)


def test_criterion_monotone_certified_downward(bidisc, bidisc_sigma,
                                               bidisc_psi):
    ev = CriterionEvaluator(bidisc.domain, bidisc_sigma)
    reps = [ev.report(bidisc_psi, eta, None, "") for eta in (0.5, 0.9, 0.99)]
    assert all(r["certified"] for r in reps)
    assert reps[0]["maxLHS"] <= reps[1]["maxLHS"] <= reps[2]["maxLHS"] + 1e-12


# ---------------------------------------------------------------------------
# interior oracle
# ---------------------------------------------------------------------------

def oracle(domain, mesh, psi, eta, slack_rel=1e-6):
    return interior_psh_oracle(*oracle_terms(domain, mesh, psi), eta,
                               slack_rel=slack_rel)


def test_ball_oracle_with_algebraic_override(ball):
    mesh = ball_interior_points(ball, 10000, seed=2, depth=BALL_DEPTH)
    jet = ball.domain.jet(mesh, order=2)
    rep = interior_psh_oracle(jet.value, jet.wgrad, jet.mixed, 0.99,
                              slack_rel=1e-10)
    assert rep["certified"]
    assert rep["minEig"] >= -1e-10


def test_ball_oracle_distance_route(ball):
    # BALL_DEPTH reaches 0.5, past the ball's 0.22 collar, where the signed
    # distance has no jet, so the mesh raises; ORACLE_DEPTH ends inside
    # every collar
    with pytest.raises(StencilLeak, match="collar"):
        ball.interior_mesh(800, seed=3, depth=BALL_DEPTH)
    mesh = ball.interior_mesh(800, seed=3, depth=ORACLE_DEPTH)
    assert oracle(ball.domain, mesh, ZERO_PSI, 0.99)["certified"]


def test_worm_oracle_negative_at_high_eta(worm):
    mesh = worm.interior_mesh(600, seed=4, depth=ORACLE_DEPTH)
    rep = oracle(worm.domain, mesh, ZERO_PSI, 0.99)
    assert not rep["certified"]
    assert rep["minEig"] < 0


def test_small_eta_certifies_on_mild_domains(ball, bidisc, quartic):
    # near the boundary the gradient-squared term dominates for small eta;
    # verified numerically per domain (the worm's concave rim needs a
    # convexifying potential and stays out)
    for entry in (ball, bidisc, quartic):
        mesh = entry.interior_mesh(500, seed=5, depth=(0.04, 0.1))
        assert oracle(entry.domain, mesh, ZERO_PSI, 0.05)["certified"], \
            entry.id


@pytest.mark.parametrize("name", ["ball", "quartic", "worm"])
def test_oracle_reads_delta_jet_with_zero_psi(name, request):
    # with psi = 0, rho = delta: the oracle's arrays are the order-2 blocks
    # of the mesh's delta-jet, bit for bit, which is delta_jet's
    # (test_interior_mesh_feet_are_the_projections)
    entry = request.getfixturevalue(name)
    mesh = entry.interior_mesh(200, seed=7, depth=ORACLE_DEPTH)
    jet = mesh[1]
    value, wgrad, mixed = oracle_terms(entry.domain, mesh, ZERO_PSI)
    np.testing.assert_array_equal(value, jet.value)
    np.testing.assert_array_equal(wgrad, jet.wgrad)
    np.testing.assert_array_equal(mixed, jet.mixed)


def _psi_at(domain, psi, P):
    """psi at ambient points, through their own projection."""
    feet, _ = distance.foot_points(domain, P)
    return psi_at_feet(psi, feet)


def _two_projection_jet(domain, psi, mesh):
    """The oracle composite with delta and psi projecting separately, one
    numeric_jet step at a time."""
    def values(P):
        return signed_distance(domain, P) * np.exp(_psi_at(domain, psi, P))

    return numeric_jet(values, mesh, order=2, h=1e-3 * domain.scale)


@pytest.fixture(scope="module")
def oracle_psis(bidisc, bidisc_leaf_field, quartic, quartic_curve):
    """(entry, psi) for each foot-constant evaluator kind the oracle sees."""
    collar = Psi(collar_terms(bidisc.domain, bidisc_leaf_field,
                              bidisc.sigma_coords), (1.0,))
    rep = real_curve_certify(quartic_curve, 0.99, None)
    # a support wider than the default reaches the interior mesh, so psi
    # varies over the stencils
    curve = Psi(CurveTerms(quartic.domain, quartic.charts["curve"],
                           quartic_curve, quartic.sigma_distance, width=0.6),
                (1.0, rep["b"]))
    return {"collar": (bidisc, collar), "curve": (quartic, curve)}


# per-point bounds on |oracle - reference| over the point's largest
# reference entry, for the Wirtinger gradient and the mixed Hessian, at
# about three times the values measured on the meshes below: collar 1.7e-5
# and 6.8e-6, where e^psi spans eight decades; curve 2.2e-10 and 1.8e-9.
# The reference's own truncation dominates: against numeric_jet at a
# quarter of its step, the oracle's worst collar entry moves from 33 to
# 0.66.  Dropping the cross terms d delta (x) dbar psi + d psi (x) dbar
# delta raises the mixed measure to 1.0 and 1.1e-2; skipping psi's
# Richardson level raises the gradient measure to 4.9e-3 and 7.9e-7.
ORACLE_REF_TOL = {"collar": (5e-5, 2e-5), "curve": (1e-9, 5e-9)}


@pytest.mark.parametrize("kind", ["collar", "curve"])
def test_oracle_composite_matches_two_projections(oracle_psis, kind):
    entry, psi = oracle_psis[kind]
    mesh = entry.interior_mesh(40, seed=7, depth=ORACLE_DEPTH)
    value, wgrad, mixed = oracle_terms(entry.domain, mesh, psi)
    mesh = mesh[0]
    ref = _two_projection_jet(entry.domain, psi, mesh)
    # value: psi at z - delta n, which is the projected foot up to
    # rounding, and the same arithmetic; 0 ulps apart on these meshes
    np.testing.assert_allclose(value, ref.value, rtol=4 * np.finfo(float).eps,
                               atol=0)
    for got, want, tol in zip((wgrad, mixed), (ref.wgrad, ref.mixed),
                              ORACLE_REF_TOL[kind]):
        err = np.abs(got - want).reshape(len(mesh), -1).max(axis=1)
        size = np.abs(want).reshape(len(mesh), -1).max(axis=1)
        assert np.all(err <= tol * size)
    # psi is not constant on the stencils, so the check has teeth
    assert np.ptp(_psi_at(entry.domain, psi, mesh)) > 1e-3


def test_criterion_and_oracle_ignore_batch_order(worm, worm_sigma,
                                                 worm_family_psi,
                                                 oracle_psis):
    # a Sigma sample's left-hand side and a mesh point's eigenvalue must not
    # depend on where the sample or the point sits in its batch
    perm = np.random.default_rng(12).permutation(worm_sigma.size)
    moved = dataclasses.replace(
        worm_sigma, points=worm_sigma.points[perm],
        lambda_min=worm_sigma.lambda_min[perm],
        null_directions=worm_sigma.null_directions[perm])
    evaluators = [CriterionEvaluator(worm.domain, sig)
                  for sig in (worm_sigma, moved)]
    for psi in (ZERO_PSI, worm_family_psi):
        for eta in (0.5, 0.9):
            want, got = (ev.report(psi, eta, None, "")["maxLHS"]
                         for ev in evaluators)
            assert got == want
    for entry, psi in oracle_psis.values():
        runs = [Run(entry, oracle_count=60, seed=6) for _ in range(2)]
        points, delta = runs[0].interior_mesh
        perm = np.random.default_rng(13).permutation(len(points))
        runs[1].interior_mesh = (points[perm], delta.subset(perm))
        for eta in (0.5, 0.99):
            want, got = (run.oracle(eta, psi) for run in runs)
            assert (got["minEig"], got["minScaled"]) == \
                (want["minEig"], want["minScaled"])


def _marched(entry):
    """(boundary points, depths, the interior mesh marched from them) of
    200 points at ORACLE_DEPTH."""
    P = entry.boundary_mesh(200, 3)
    d = np.random.default_rng(3).uniform(*ORACLE_DEPTH, len(P))
    return P, d, distance.march_inward(entry.domain, P, d)


def _unitary_image(entry, marched, U):
    """The interior mesh marched from the image of marched's boundary
    points under the 2 x 2 unitary U, at the same depths."""
    P, d, _ = marched
    return distance.march_inward(entry.domain,
                                 complex_unpack(complex_pack(P) @ U.T), d)


@pytest.fixture(scope="module")
def ball_oracle_mesh(ball):
    return _marched(ball)


@settings(max_examples=20, deadline=None)
@given(angles=st.tuples(*[st.floats(0.0, 2 * np.pi)] * 4),
       eta=st.sampled_from([0.5, 0.99]))
def test_ball_oracle_verdict_is_unitary_invariant(ball, ball_oracle_mesh,
                                                  angles, eta):
    # U(2) maps the ball onto itself and nearest feet onto nearest feet, and
    # keeps every eigenvalue and so the operator norm by which minScaled
    # divides: the mesh marched from the boundary points' image keeps all
    # 200 points (relative moves of 1.5e-15 in minEig and 8.3e-15 in
    # minScaled at most, measured over 150 random U at eta 0.5 and 0.99)
    t, a, b, phase = angles
    u, v = np.cos(t) * np.exp(1j * a), np.sin(t) * np.exp(1j * b)
    U = np.exp(1j * phase) * np.array([[u, -np.conj(v)], [v, np.conj(u)]])
    want, got = (interior_psh_oracle(
        *oracle_terms(ball.domain, mesh, ZERO_PSI), eta, 1e-6)
        for mesh in (ball_oracle_mesh[2],
                     _unitary_image(ball, ball_oracle_mesh, U)))
    assert got["certified"] == want["certified"]
    for key in ("minEig", "minScaled"):
        assert abs(got[key] - want[key]) <= 1e-12 * abs(want[key])


@pytest.fixture(scope="module")
def quartic_oracle_case(quartic, quartic_curve):
    """The quartic's interior mesh (_marched) and the curve psi's terms on
    it."""
    return (_marched(quartic),
            CurveTerms(quartic.domain, quartic.charts["curve"],
                       quartic_curve, quartic.sigma_distance))


@settings(max_examples=20, deadline=None)
@given(a=st.floats(0.0, 2 * np.pi), b=st.floats(0.0, 2 * np.pi))
def test_quartic_oracle_verdict_is_torus_invariant(quartic, quartic_curve,
                                                   quartic_oracle_case, a,
                                                   b):
    # (z1, z2) -> (e^{ia} z1, e^{ib} z2) maps the quartic and its circle
    # onto themselves; the curve psi's oracle eigenvalues are 0 but for
    # rounding on the mesh and the mesh marched from its boundary points'
    # image (|minEig| 4.6e-17 and |minScaled| 9.8e-17 at most, measured over
    # 150 random maps)
    marched, terms = quartic_oracle_case
    U = np.diag([np.exp(1j * a), np.exp(1j * b)])
    image = _unitary_image(quartic, marched, U)
    for eta in (0.5, 0.99):
        psi = Psi(terms, (1.0, real_curve_certify(quartic_curve, eta,
                                                  None)["b"]))
        want, got = (interior_psh_oracle(
            *oracle_terms(quartic.domain, m, psi), eta, 1e-6)
            for m in (marched[2], image))
        assert got["certified"] == want["certified"]
        for rep in (want, got):
            assert abs(rep["minEig"]) <= 1e-15
            assert abs(rep["minScaled"]) <= 1e-15


def _counting_projections(monkeypatch):
    """Rows of every projection from here on, in call order: foot_points
    and the mesh's march_inward both go through _nearest_feet."""
    rows = []
    original = distance._nearest_feet

    def counting(domain, Z):
        rows.append(np.atleast_2d(Z).shape[0])
        return original(domain, Z)

    monkeypatch.setattr(distance, "_nearest_feet", counting)
    return rows


def test_oracle_projects_each_mesh_point_once(oracle_psis, monkeypatch):
    entry, psi = oracle_psis["collar"]
    rows = _counting_projections(monkeypatch)
    mesh = entry.interior_mesh(30, seed=8, depth=ORACLE_DEPTH)
    # the mesh's candidates once, to verify their feet
    assert len(rows) == 1 and 30 >= rows[0] >= len(mesh[0])
    value, wgrad, mixed = oracle_terms(entry.domain, mesh, psi)
    # the oracle takes the delta-jet that the mesh carries, and psi's
    # stencil nodes take their feet from its Taylor model of the foot map
    for eta in (0.5, 0.99):
        interior_psh_oracle(value, wgrad, mixed, eta, slack_rel=1e-6)
    assert len(rows) == 1


def test_criterion_build_projects_nothing(worm, worm_sigma, monkeypatch):
    # the Sigma samples are feet, so their jets need no projection
    rows = _counting_projections(monkeypatch)
    ev = CriterionEvaluator(worm.domain, worm_sigma)
    ev.lhs(ZERO_PSI, 0.5)
    assert rows == []


def test_detect_sigma_projects_nothing(worm, monkeypatch):
    # the boundary mesh's points are their own feet
    mesh = worm.boundary_mesh(300, 4)
    rows = _counting_projections(monkeypatch)
    detect_sigma(worm.domain, mesh, None)
    assert rows == []


def test_theta_components_projects_nothing(worm, monkeypatch):
    chart = worm.charts["log_polar"]
    U, _ = chart.grid(9)
    rows = _counting_projections(monkeypatch)
    theta_components(chart, U)
    assert rows == []


def _projected_stencil_feet(domain, mesh, stencil, fields):
    """foot_points' feet of the stencil's nodes, in the stencil's order."""
    h = stencil.h
    nodes = [mesh]
    for u in (*np.eye(mesh.shape[1]), *fields):
        nodes += [mesh + h * u, mesh - h * u]
    feet, _ = distance.foot_points(domain, np.concatenate(nodes))
    return feet


@pytest.mark.parametrize("name", ["ball", "quartic", "worm"])
def test_taylor_feet_converge_at_order_three(name, request):
    # the stencils' feet sit on the foot map's second-order Taylor model,
    # so they miss the projected feet by O(h^3): halving h divides the
    # median gap by 8 (7.99-8.01 measured; 1.4e-8, 7.3e-9 and 6.2e-8 in
    # units of domain.scale at FD_STEP).
    entry = request.getfixturevalue(name)
    mesh, _ = entry.interior_mesh(200, seed=7, depth=ORACLE_DEPTH)
    delta = delta_jet(entry.domain, mesh, order=3)
    fields = certify.LEVI_FIELDS
    gaps = []
    for st in oracle_stencils(entry.domain, mesh, delta):
        feet = _projected_stencil_feet(entry.domain, mesh, st, fields)
        gap = np.linalg.norm(st.feet - feet, axis=1)[len(mesh):]
        gaps.append(np.median(gap) / entry.domain.scale)
    assert gaps[0] < 1e-6
    assert 7.5 < gaps[0] / gaps[1] < 8.5


def test_oracle_stencil_feet_stay_near_their_base_foot(worm):
    # the Taylor feet stay within 4.7 h of the base point's foot
    mesh, _ = worm.interior_mesh(200, seed=7, depth=ORACLE_DEPTH)
    delta = delta_jet(worm.domain, mesh, order=3)
    for st in oracle_stencils(worm.domain, mesh, delta):
        feet = st.feet.reshape(-1, len(mesh), mesh.shape[1])
        reach = np.linalg.norm(feet - feet[0], axis=2)
        assert reach.max() <= 8 * st.h


def test_mesh_outside_raises(ball):
    jet = ball.domain.jet(np.array([[1.5, 0, 0, 0]]), order=2)
    with pytest.raises(MeshOutside):
        interior_psh_oracle(jet.value, jet.wgrad, jet.mixed, 0.5, 1e-9)


# ---------------------------------------------------------------------------
# estimation
# ---------------------------------------------------------------------------

def test_estimate_ball(ball):
    cert = Run(ball, mesh_count=500,
               oracle_count=400).estimate((0.5, 0.99))
    assert cert["bound"] >= 0.99


def test_estimate_bidisc(bidisc):
    cert = Run(bidisc, mesh_count=1000,
               oracle_count=400).estimate((0.5, 0.99))
    assert cert["bound"] >= 0.99
    assert cert["records"][-1]["psi"] == "collar potential (-2 phi)"


# every zoo domain and the two further geometries of
# tools/compare_reports.py, by id, with the slack of each case
DECISION_CASES = {
    "ball": (lambda: zoo.make_ball(1.0), None),
    "bidisc": (lambda: zoo.make_fattened_bidisc(0.7), None),
    "worm": (lambda: zoo.make_worm(np.pi), None),
    "quartic_circle": (zoo.make_quartic_circle, None),
    "worm-beta-6.2832": (lambda: zoo.make_worm(6.2832), None),
    "bidisc-r-0.5": (lambda: zoo.make_fattened_bidisc(0.5), None),
    # at eta 0.5, psi = 0 passes the criterion (maxLHS 1.1995) and fails
    # the oracle, and the family psi fails the criterion (maxLHS 1.2228), so
    # the record is the family psi's, on which no oracle ran
    "worm-slack-1.21": (lambda: zoo.make_worm(np.pi), 1.21),
}


@pytest.mark.parametrize("case", sorted(DECISION_CASES))
def test_certify_reports_the_estimate_record(case):
    # certify at eta and estimate's record at eta report one decision, each
    # on a run of its own at --mesh 600 --interior 60 --seed 3
    make, slack = DECISION_CASES[case]
    entry = make()
    runs = [Run(entry, mesh_count=600, seed=3, oracle_count=60, slack=slack)
            for _ in range(2)]
    for rec in runs[0].estimate(ETA_GRID)["records"]:
        rep = runs[1].certify(rec["eta"])
        assert rep["certified"] == rec["certified"]
        if rec["certified"]:
            assert rep["psi"] == rec["psi"]
        assert rep["criterion"]["maxLHS"] == rec["maxLHS"]
        if rep["criterion"]["certified"]:
            assert rep["oracle"] == rec["oracle"]
        else:
            assert rec["oracle"] is None


def test_estimate_worm_obstructed(worm):
    cert = Run(worm, mesh_count=1000,
               oracle_count=300).estimate((0.9, 0.99))
    assert cert["bound"] < 0.99
    assert "obstruction" in cert["diagnostics"]
    assert abs(cert["diagnostics"]["obstruction"]["periods"][0]
               + np.pi) < 0.05


def test_estimate_builds_one_evaluator(worm, monkeypatch):
    builds = []
    init = certify.CriterionEvaluator.__init__

    def counting(self, *args, **kwargs):
        builds.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(certify.CriterionEvaluator, "__init__", counting)
    cert = Run(worm, mesh_count=400,
               oracle_count=20).estimate(ETA_GRID)
    # the family search ran at every eta, on the run's one evaluator
    assert len(cert["diagnostics"]["psiProvenance"]) == len(ETA_GRID)
    assert len(builds) == 1


def _counting_chart_terms(monkeypatch):
    """Rows of every ChartTerms.terms_at_feet call from here on."""
    calls = []
    terms = cohomology.ChartTerms.terms_at_feet

    def counting(self, F):
        calls.append(len(F))
        return terms(self, F)

    monkeypatch.setattr(cohomology.ChartTerms, "terms_at_feet", counting)
    return calls


def test_estimate_evaluates_family_terms_once(worm, monkeypatch):
    calls = _counting_chart_terms(monkeypatch)
    run = Run(worm, mesh_count=400, oracle_count=20)
    cert = run.estimate(ETA_GRID)
    assert len(cert["diagnostics"]["psiProvenance"]) == len(ETA_GRID)
    # the family's 8 basis functions, in one pass on the criterion stencil;
    # the search and the family psi of every eta combine those columns
    assert calls == [len(run.evaluator.stencil.feet)]
    assert run.evaluator.columns(run.family_terms)[0].shape[1] == 8


def test_estimate_evaluates_collar_terms_once_per_stencil(bidisc,
                                                          monkeypatch):
    calls = _counting_chart_terms(monkeypatch)
    run = Run(bidisc, 400, seed=3, oracle_count=40)
    cert = run.estimate(ETA_GRID)
    assert [r["psi"] for r in cert["records"]] == \
        ["collar potential (-2 phi)"] * 5
    # once on the criterion stencil and once on each oracle stencil, for
    # the criterion and the oracle at every eta
    assert calls == [len(run.evaluator.stencil.feet),
                     *(len(st.feet) for st in run.oracle_stencils)]


def test_estimate_evaluates_curve_psi_once_per_oracle_stencil(quartic,
                                                               monkeypatch):
    # the certificate's psi is s a(t) + b s^2 / 2 and only b depends on eta:
    # the run differences both terms on each of the oracle's two stencils
    # once, in one pass over the shared geometry, and every eta combines
    # those columns with (1, b)
    calls = []
    terms = certify.CurveTerms.terms_at_feet

    def counting(self, F):
        calls.append(len(F))
        return terms(self, F)

    monkeypatch.setattr(certify.CurveTerms, "terms_at_feet", counting)
    run = Run(quartic, mesh_count=200, oracle_count=100)
    cert = run.estimate(ETA_GRID)
    assert [r["certified"] for r in cert["records"]] == [True] * 5
    assert len(calls) == 2
    assert sum(calls) == sum(len(st.feet) for st in run.oracle_stencils)


def test_oracle_weighs_shared_curve_terms_with_each_psis_b(quartic):
    # every eta's curve psi shares the run's CurveTerms, differenced once;
    # each call still weighs them with its own b, as a psi over fresh terms
    # is weighed.  A support wider than the default reaches the mesh.
    run = Run(quartic, mesh_count=200, oracle_count=100)

    def terms():
        return CurveTerms(quartic.domain, quartic.charts["curve"],
                          run.curve_geometry, quartic.sigma_distance,
                          width=0.6)

    run.curve_terms = terms()
    eigs = []
    for b in (-3.0, -30.0):
        shared = run.oracle(0.5, Psi(run.curve_terms, (1.0, b)))["minEig"]
        assert shared == run.oracle(0.5, Psi(terms(), (1.0, b)))["minEig"]
        eigs.append(shared)
    assert eigs[0] != eigs[1]


def test_estimate_builds_interior_mesh_once(quartic, monkeypatch):
    calls = []
    build = quartic.interior_mesh

    def counting(*args, **kwargs):
        calls.append(1)
        return build(*args, **kwargs)

    monkeypatch.setattr(quartic, "interior_mesh", counting)
    cert = Run(quartic, mesh_count=200, oracle_count=100).estimate(ETA_GRID)
    assert [r["certified"] for r in cert["records"]] == [True] * 5
    assert len(calls) == 1


def _projections_in_and_out_of_mesh(monkeypatch):
    """(rows projected while the interior mesh is built, rows projected
    anywhere else, candidate rows of each mesh build) from here on."""
    inside, outside, candidates = [], [], []
    original = distance._nearest_feet
    build = zoo.march_inward
    building = []

    def counting(domain, Z):
        (inside if building else outside).append(len(Z))
        return original(domain, Z)

    def march_inward(domain, P, depth):
        building.append(1)
        try:
            return build(domain, P, depth)
        finally:
            building.pop()
            candidates.append(len(P))

    monkeypatch.setattr(distance, "_nearest_feet", counting)
    monkeypatch.setattr(zoo, "march_inward", march_inward)
    return inside, outside, candidates


def test_estimate_projects_oracle_mesh_once(quartic, monkeypatch):
    # the Sigma scan and the curve geometry project nothing, the oracle
    # takes the delta-jet its mesh carries, and building the mesh projects
    # each candidate point once
    inside, outside, candidates = _projections_in_and_out_of_mesh(
        monkeypatch)
    run = Run(quartic, mesh_count=200, oracle_count=100)
    cert = run.estimate(ETA_GRID)
    assert [r["certified"] for r in cert["records"]] == [True] * 5
    assert outside == []
    assert len(inside) == 1 and candidates == [100]
    assert 100 >= inside[0] >= len(run.interior_mesh[0]) > 50


def test_certify_projects_only_the_oracle_mesh(worm, monkeypatch):
    # the same on the worm's criterion branch: the Sigma scan, theta's
    # periods and the criterion project nothing
    inside, outside, candidates = _projections_in_and_out_of_mesh(
        monkeypatch)
    run = Run(worm, mesh_count=400, oracle_count=60)
    report = run.certify(0.5)
    assert report["sigmaSize"] > 0 and report["oracle"]["points"] > 40
    assert outside == []
    assert len(inside) == 1 and candidates == [60]
    assert 60 >= inside[0] >= report["oracle"]["points"]


def test_estimate_builds_curve_geometry_once(quartic, monkeypatch):
    calls = []
    build = certify.curve_geometry

    def counting(*args, **kwargs):
        calls.append(1)
        return build(*args, **kwargs)

    monkeypatch.setattr(pipelines, "curve_geometry", counting)
    cert = Run(quartic, mesh_count=200,
               oracle_count=100).estimate(ETA_GRID)
    assert [r["certified"] for r in cert["records"]] == [True] * 5
    assert len(calls) == 1


def test_certify_pipeline_exit_semantics(ball, worm):
    rb = Run(ball, mesh_count=400, oracle_count=300).certify(0.99)
    assert rb["certified"]
    rw = Run(worm, mesh_count=800, oracle_count=300).certify(0.99)
    assert not rw["certified"]
    assert rw["obstruction"]["classification"] == "Obstructed"


def test_coordinate_descent_quadratic():
    target = np.array([0.3, -0.2, 0.7])
    obj = lambda x: float(np.sum((x - target) ** 2))
    x, val = coordinate_descent(obj, np.zeros(3), -np.ones(3), np.ones(3))
    assert val < 1e-6
    np.testing.assert_allclose(x, target, atol=1e-3)


def _recorded_searches(monkeypatch):
    """Patch the family search to record, per call, its arguments and the
    objective calls it makes."""
    searches = []

    def recording(objective, *args, **kwargs):
        search = {"objective": objective, "args": args, "kwargs": kwargs,
                  "calls": 0}

        def counted(x):
            search["calls"] += 1
            return objective(x)

        searches.append(search)
        search["result"] = coordinate_descent(counted, *args, **kwargs)
        return search["result"]

    monkeypatch.setattr(pipelines, "coordinate_descent", recording)
    return searches


def test_family_search_scores_each_point_once(worm, monkeypatch):
    # worm-estimate's sizes at seed 3: the unmemoized search made 965
    # objective calls at these 650 distinct points
    searches = _recorded_searches(monkeypatch)
    Run(worm, mesh_count=800, seed=3).estimate(ETA_GRID)
    assert [s["calls"] for s in searches] == [97, 108, 109, 144, 192]


@pytest.mark.parametrize("seed", [0, 3, 11])
def test_memoized_search_matches_unmemoized(worm, monkeypatch, seed):
    searches = _recorded_searches(monkeypatch)
    Run(worm, mesh_count=800, seed=seed).estimate(ETA_GRID)
    assert len(searches) == len(ETA_GRID)
    for s in searches:
        x, val = s["result"]
        x_ref, val_ref = coordinate_descent_unmemoized(
            s["objective"], *s["args"], **s["kwargs"])
        assert x.tobytes() == x_ref.tobytes() and val == val_ref


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
    rep = caccioppoli_check(1.0, lambda xs: 0.0 * xs[0] + (-1.0), n=4)
    assert rep["left"] < 1e-12
    assert rep["ok"]


@pytest.mark.parametrize("n", [1, 4, 16])
def test_caccioppoli_gaussian_family(n):
    rep = caccioppoli_check(
        1.0 / np.sqrt(n), lambda xs: -(xs[0] * xs[0] + xs[1] * xs[1]), n=n)
    assert rep["ok"]
    assert rep["left"] <= 0.99 * rep["bound"]
    # closed form of the left side: pi R^4 / 32 with R = 1/sqrt(n)
    assert abs(rep["left"] - np.pi / (32 * n ** 2)) < 1e-4 / n ** 2
    assert rep["hypothesisMax"] <= 1e-10


def test_caccioppoli_hypothesis_fail():
    with pytest.raises(HypothesisFail):
        caccioppoli_check(1.0, lambda xs: xs[0] * xs[0] + xs[1] * xs[1],
                          n=4)


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
                              lambda eta: shifted(bidisc_psi, next(shifts)),
                              res=9)
    np.testing.assert_allclose(vals, vals2, atol=1e-10)


def test_residual_sequence_worm_bounded_below(worm):
    chart = worm.charts["patch"]
    vals = residual_sequence(worm.domain, chart, 0.6, [0.5, 0.9, 0.99],
                             lambda eta: ZERO_PSI, res=9)
    # the period obstruction keeps the L1 residual bounded away from zero
    assert min(vals) > 1e-3


# ---------------------------------------------------------------------------
# real-curve certificate
# ---------------------------------------------------------------------------

def test_curve_certificate_quartic(quartic_curve):
    reports = {}
    for eta in (0.5, 0.99):
        rep = real_curve_certify(quartic_curve, eta, None)
        assert rep["certified"]
        assert rep["maxLHS"] <= -rep["C_eta"] + rep["slack"]
        assert rep["case"] == "transversal"
        reports[eta] = rep
    assert abs(reports[0.5]["b"]) <= abs(reports[0.99]["b"]) + 1e-9


def test_curve_certificate_ball_not_a_curve(ball):
    with pytest.raises(NotACurve):
        certify.curve_geometry(ball.domain, None)


def test_curve_psi_cross_validation(quartic, quartic_curve):
    rep = real_curve_certify(quartic_curve, 0.99, None)
    psi = Psi(CurveTerms(quartic.domain, quartic.charts["curve"],
                         quartic_curve, quartic.sigma_distance),
              (1.0, rep["b"]))
    mesh = quartic.interior_mesh(400, seed=6, depth=ORACLE_DEPTH)
    assert oracle(quartic.domain, mesh, psi, 0.99)["certified"]


@pytest.mark.parametrize("slack", [0.0, 1e-8, 1.0])
def test_real_curve_certifies_by_construction(quartic_curve, slack):
    # b = -2 C_eta - 1 with C_eta above the bracket's largest sample M, so
    # maxLHS = M + b < 0 <= slack at every eta; a NaN bracket certifies
    # nothing
    coef = 1.0 / (1.0 - np.array(ETA_GRID)) - 1.0
    for eta, c in zip(ETA_GRID, coef):
        rep = real_curve_certify(quartic_curve, eta, slack)
        M = float((c * quartic_curve.g_t ** 2 + quartic_curve.Dt).max())
        assert rep["maxLHS"] == M + rep["b"] < 0
        assert rep["certified"]
    Dt = quartic_curve.Dt.copy()
    Dt[3] = np.nan
    rep = real_curve_certify(dataclasses.replace(quartic_curve, Dt=Dt),
                             0.5, slack)
    assert not rep["certified"]


def test_curve_quartic_transversal_quantities(quartic_curve):
    # derived: g(nabla_nu nu, dt) = 0 along the circle, a(t) = 1
    assert np.max(np.abs(quartic_curve.g_t)) < 1e-6
    np.testing.assert_allclose(quartic_curve.a_values,
                               np.ones_like(quartic_curve.a_values), atol=1e-6)
