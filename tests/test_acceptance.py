"""Acceptance suite: one test per shipping criterion, each printing a
PASS/FAIL line with its stated tolerance.

Criteria (summary):
  1  ball delta-jet baseline + normal-field properties on every zoo boundary
  2  strong-pseudoconvexity certification of the ball at eta = 0.99
  3  identity-suite residuals converge at order >= 1.9 (noise-floored)
  4  potential round trip and criterion certification on the bidisc
  5  obstruction detection on the worm (period, verdict, exit code)
  6  cutoff L2 bound family with >= 1% slack plus hypothesis screening
  7  residual sequence on the bidisc with shift-invariant family
  8  real-curve certificate on the quartic circle at eta in {0.5, 0.99};
     it holds by construction, so on the quartic only the oracle can fail
  9  boundary-certified triples pass the interior oracle beyond some d0
  10 byte-identical reports for identical config and seed
"""

import json

import numpy as np
import pytest

from conftest import ZERO_PSI, oracle_terms, shifted
from dfindex.certify import (CriterionEvaluator, CurveTerms, Psi,
                             interior_psh_oracle, real_curve_certify)
from dfindex.cli import main as cli_main
from dfindex.cohomology import (PathInSigma, ThetaSource, build_potential,
                                classify, period)
from dfindex.distance import boundary_jet
from dfindex.levi import detect_sigma
from dfindex.pipelines import Run, potential_for
from dfindex.sigma import dtheta_residual, h_field
from references import (BoundaryBatch, HFieldSource, HypothesisFail,
                        ball_delta_jet, ball_interior_points,
                        boundary_batch, boundary_point,
                        caccioppoli_check, chart_compat_residuals, delta_jet,
                        levi_decompose, measured_orders, null_cross_residual,
                        nu_identity_residuals, residual_sequence,
                        wirtinger_compat_residual)

MESH_N = 10000
NOISE_FLOOR = 1e-7


def report(criterion, detail):
    print(f"\nACCEPTANCE {criterion}: PASS  [{detail}]")


@pytest.fixture(scope="module")
def bidisc_package(bidisc):
    """Shared bidisc pipeline artifacts: sigma set, verdict, psi = -2 phi."""
    sigma = Run(bidisc, mesh_count=3000).sigma
    run = Run(bidisc)
    provenance, psi, _ = next(run.candidates(0.99, []))
    return {"sigma": sigma, "psi": psi, "verdict": run.verdict,
            "provenance": provenance}


def test_criterion_1_ball_baseline_and_normal_properties(zoo_entries, ball):
    rng = np.random.default_rng(100)
    v = rng.normal(size=(1000, 4))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    P = v * rng.uniform(0.92, 1.08, 1000)[:, None]
    jet = delta_jet(ball.domain, P, order=3)
    ref = ball_delta_jet(P, 1.0, order=3)
    rel_g = np.max(np.abs(jet.rgrad - ref.rgrad)
                   / np.maximum(np.abs(ref.rgrad), 0.1))
    rel_h = np.max(np.abs(jet.rhess - ref.rhess)
                   / np.maximum(np.abs(ref.rhess), 0.1))
    rel_t = np.max(np.abs(jet.rthird - ref.rthird)
                   / np.maximum(np.abs(ref.rthird), 1.0))
    assert rel_g < 1e-12 and rel_h < 1e-12 and rel_t < 1e-12

    worst = 0.0
    for entry in zoo_entries:
        P = entry.boundary_mesh(MESH_N, seed=101)
        batch = boundary_batch(entry.domain, P, order=1)
        nd = np.einsum("kj,kj->k", batch.N, batch.jet.wgrad)
        d1 = np.max(np.abs(nd - 0.5))
        v = np.empty_like(batch.grad_delta)
        v[:, 0::2] = batch.N.real
        v[:, 1::2] = batch.N.imag
        d2 = np.max(np.linalg.norm(v - batch.grad_delta, axis=1))
        d3 = np.max(np.abs(np.einsum("kj,kj->k", batch.N,
                                     np.conj(batch.N)).real - 1.0))
        assert d1 < 1e-6 and d2 < 1e-6 and d3 < 1e-6, entry.id
        worst = max(worst, d1, d2, d3)
    report(1, f"delta-jet rel err {max(rel_g, rel_h, rel_t):.2e} "
              f"(tol 1e-12); "
              f"normal-property defect {worst:.2e} at {MESH_N} boundary "
              f"points per domain (tol 1e-6)")


def test_criterion_2_ball_certification(ball):
    cert = Run(ball, mesh_count=2000, oracle_count=800).estimate(
        (0.5, 0.75, 0.9, 0.95, 0.99))
    assert cert["bound"] >= 0.99
    mesh = ball_interior_points(ball, MESH_N, seed=102, depth=(0.05, 0.5))
    jet = ball.domain.jet(mesh, order=2)
    orep = interior_psh_oracle(jet.value, jet.wgrad, jet.mixed, 0.99,
                               slack_rel=1e-10)
    assert orep["certified"]
    assert orep["minEig"] >= -1e-9
    report(2, f"certified bound {cert['bound']}; oracle min eigenvalue "
              f"{orep['minEig']:.2e} >= -1e-9 at {MESH_N} interior points")


def test_criterion_3_identity_suites(worm, bidisc):
    patch = worm.charts["patch"]
    u0 = np.array([[1.2, 0.05]])
    details = []

    # normal-Hessian compatibility pair (exact on Sigma, discretized at h^2)
    res = [float(chart_compat_residuals(patch, u0, h)[0][0])
           for h in (0.08, 0.04, 0.02)]
    orders = measured_orders(res, floor=NOISE_FLOOR)
    assert np.min(orders) >= 1.9
    details.append(f"compat order {np.min(orders):.2f}")

    # closedness of the 1-form
    res = [float(dtheta_residual(patch, u0, h)[0]) for h in (0.04, 0.02, 0.01)]
    orders = measured_orders(res, floor=NOISE_FLOOR)
    assert np.min(orders) >= 1.9
    details.append(f"closedness order {np.min(orders):.2f}")

    # gradient-field compatibility on sampled h-fields
    res = []
    for n in (17, 33, 65):
        ax0 = np.linspace(1.0, 1.4, n)
        ax1 = np.linspace(-0.2, 0.2, n)
        U = np.stack([m.ravel() for m in np.meshgrid(ax0, ax1,
                                                     indexing="ij")], axis=1)
        hh = h_field(patch, U).reshape(n, n, 1)
        res.append(wirtinger_compat_residual(hh, ax0[1] - ax0[0]))
    orders = measured_orders(res, floor=NOISE_FLOOR)
    assert np.min(orders) >= 1.9
    details.append(f"gradient-compat order {np.min(orders):.2f}")

    # transversal-field identities
    res = [float(np.max(np.stack(nu_identity_residuals(patch, u0, h))))
           for h in (0.08, 0.04, 0.02)]
    orders = measured_orders(res, floor=1e-6)
    assert np.min(orders) >= 1.9 or max(res) < 1e-6
    details.append(f"transversal residual max {max(res):.1e}")

    # the bidisc's identities sit at the noise floor (identically zero form)
    leaf = bidisc.notes["main_leaf"]
    r1, r2 = chart_compat_residuals(leaf, np.array([[0.05, -0.1]]), 0.04)
    assert max(float(r1[0]), float(r2[0])) < 1e-8
    nz = nu_identity_residuals(leaf, np.array([[0.1, -0.05]]), 0.04)
    assert max(float(np.max(v)) for v in nz) < 1e-6

    # degenerate cross-term residual at every detected Sigma point
    worst = 0.0
    for entry in (worm, bidisc):
        sig = detect_sigma(entry.domain, entry.boundary_mesh(1500, seed=103),
                           None)
        members = BoundaryBatch(entry.domain, sig.points,
                                boundary_jet(entry.domain, sig.points, 2))
        for i in range(0, sig.size, max(sig.size // 40, 1)):
            bp = boundary_point(members, i)
            ld = levi_decompose(bp)
            res = null_cross_residual(bp, ld.null_direction,
                                      np.zeros((0, 2), dtype=complex),
                                      threshold=max(10 * sig.threshold,
                                                    1e-6))
            worst = max(worst, res)
    assert worst < 1e-6
    details.append(f"cross-term residual {worst:.1e} (tol 1e-6)")
    report(3, "; ".join(details))


def test_criterion_4_potential_round_trip(bidisc, bidisc_package):
    sigma = bidisc_package["sigma"]
    psi = bidisc_package["psi"]
    verdict = bidisc_package["verdict"]
    assert verdict["classification"] == "Exact"

    # synthetic exact form on a disc chart: recovery of the generator
    chart0 = bidisc.notes["main_leaf"]
    src = HFieldSource(chart0, lambda U: U[:, 0] - 1j * U[:, 1])
    phi0 = build_potential(src, np.zeros(2), classify({}, 1e-6), res=17)
    target = phi0.params[:, 0] ** 2 - phi0.params[:, 1] ** 2
    k0 = int(np.argmin(np.linalg.norm(phi0.params, axis=1)))
    rec_err = float(np.max(np.abs(phi0.values[0] - (target - target[k0]))))
    assert rec_err < 1e-6
    assert phi0.path_disagreement < 1e-6

    # domain potential: every lattice cycle closes, and the certification
    phi = potential_for(bidisc, verdict, 9)
    assert phi.path_disagreement < 1e-6
    rep = CriterionEvaluator(bidisc.domain, sigma).report(psi, 0.99, None,
                                                          "")
    assert rep["certified"]
    assert rep["maxLHS"] <= 1e-4
    report(4, f"synthetic recovery err {rec_err:.1e} (tol 1e-6); "
              f"largest lattice-cycle residual {phi.path_disagreement:.1e} "
              f"(tol 1e-6); "
              f"criterion max LHS {rep['maxLHS']:.2e} (tol 1e-4)")


def test_criterion_5_obstruction_detection(worm, tmp_path):
    src = ThetaSource(worm.charts["log_polar"])
    loop = PathInSigma(worm.loops["core"][1], closed=True)
    [per] = period(src, [loop])
    frozen = worm.notes["core_period"]      # derived ahead of the build
    assert abs(per - frozen) <= 0.01 * abs(frozen)
    assert abs(per) > 1e-3
    assert Run(worm).verdict["classification"] == "Obstructed"
    code = cli_main(["certify", "--domain", "worm", "--eta", "0.99",
                     "--mesh", "900", "--interior", "250",
                     "--out", str(tmp_path)])
    assert code == 2
    rep = json.loads((tmp_path / "certify.json").read_text())
    assert rep["obstruction"]["classification"] == "Obstructed"
    report(5, f"core period {per:.6f} vs frozen {frozen:.6f} (1%); "
              f"certify exits 2 with the obstruction diagnostic")


def test_criterion_6_cutoff_bound_family():
    margins = []
    for n in (1, 4, 16):
        rep = caccioppoli_check(
            1.0 / np.sqrt(n), lambda xs: -(xs[0] * xs[0] + xs[1] * xs[1]),
            n=n)
        assert rep["ok"]
        assert rep["left"] <= 0.99 * rep["bound"]
        margins.append(rep["left"] / rep["bound"])
    with pytest.raises(HypothesisFail):
        caccioppoli_check(1.0, lambda xs: xs[0] * xs[0] + xs[1] * xs[1],
                          n=4)
    report(6, f"bound margins {['%.3f' % m for m in margins]} "
              f"(all <= 0.99); hypothesis screening trips on +|z|^2")


def test_criterion_7_residual_sequence(bidisc, bidisc_package):
    psi = bidisc_package["psi"]
    chart = bidisc.notes["main_leaf"]
    etas = [0.5, 0.75, 0.9, 0.95, 0.99]
    vals = residual_sequence(bidisc.domain, chart, 0.6, etas,
                             lambda eta: psi, res=9)
    assert all(v < 1e-4 for v in vals)

    vals2 = residual_sequence(bidisc.domain, chart, 0.6, etas,
                              lambda eta: shifted(psi, 1.0 / (1.0 - eta)),
                              res=9)
    np.testing.assert_allclose(vals, vals2, atol=1e-10)
    report(7, f"L1 residuals max {max(vals):.2e} (tol 1e-4); "
              f"diverging constant shifts leave them unchanged")


def test_criterion_8_real_curve_certificate(quartic_curve):
    # b = -2 C_eta - 1 makes maxLHS = M + b < 0 for every finite bracket
    # maximum M (test_real_curve_certifies_by_construction): this criterion
    # cannot fail on the quartic, and its eta decision rests on the oracle
    details = []
    for eta in (0.5, 0.99):
        rep = real_curve_certify(quartic_curve, eta, None)
        assert rep["certified"]
        assert rep["maxLHS"] <= -rep["C_eta"] + rep["slack"]
        details.append(f"eta={eta}: max LHS {rep['maxLHS']:.3f} <= "
                       f"-C={-rep['C_eta']:.2e}+slack")
    report(8, "; ".join(details))


def test_criterion_9_cross_validation(ball, bidisc, quartic, quartic_curve,
                                      bidisc_package):
    """Every boundary-certified (domain, eta, psi) is oracle-certified on
    meshes at distance >= d0; d0 is reported per domain."""
    bands = [(0.02, 0.05), (0.05, 0.1), (0.1, 0.15)]
    certified = []
    certified.append(("ball", 0.99, ZERO_PSI, ball))
    certified.append(("bidisc", 0.99, bidisc_package["psi"], bidisc))
    crep = real_curve_certify(quartic_curve, 0.99, None)
    assert crep["certified"]
    certified.append(("quartic", 0.99,
                      Psi(CurveTerms(quartic.domain,
                                     quartic.charts["curve"], quartic_curve,
                                     quartic.sigma_distance),
                          (1.0, crep["b"])),
                      quartic))
    d0s = {}
    for name, eta, psi, entry in certified:
        if name != "quartic":
            sig = Run(entry, mesh_count=1000, seed=104).sigma
            rep = CriterionEvaluator(entry.domain, sig).report(psi, eta,
                                                               None, "")
            assert rep["certified"], name
        band_ok = []
        for band in bands:
            mesh = entry.interior_mesh(400, seed=105, depth=band)
            orep = interior_psh_oracle(
                *oracle_terms(entry.domain, mesh, psi), eta, slack_rel=1e-6)
            band_ok.append(orep["certified"])
        # d0: all bands from some depth outward must certify
        k = next((i for i in range(len(bands))
                  if all(band_ok[i:])), None)
        assert k is not None, f"{name}: no certified band tail {band_ok}"
        d0s[name] = bands[k][0]
    report(9, "; ".join(f"{k}: oracle-certified for depth >= {v}"
                        for k, v in d0s.items()))


def test_criterion_10_determinism(tmp_path):
    out = tmp_path / "det"
    blobs = []
    for _ in range(2):
        code = cli_main(["sigma", "--domain", "quartic_circle",
                         "--mesh", "500", "--seed", "3", "--out", str(out)])
        assert code == 0
        blobs.append((out / "sigma.json").read_bytes())
    assert blobs[0] == blobs[1]
    report(10, "repeated identical runs emit byte-identical reports")
