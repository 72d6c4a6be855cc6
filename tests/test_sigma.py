"""Charts, the 1-form, and the compatibility-identity residuals."""

import json

import numpy as np
import pytest

from dfindex import sigma, zoo
from dfindex.cli import main
from dfindex.distance import normal_n
from dfindex.errors import ChartMismatch
from dfindex.levi import tangent_direction
from dfindex.sigma import (SigmaChart, dtheta_residual, h_field, nu_pairings,
                           real_one_form_at, theta_components)
from references import (HypothesisFail, chart_compat_residuals, delta_jet,
                        fd_tangents, holomorphy_defect, measured_orders,
                        nu_identity_residuals, wirtinger_compat_residual)


def worm_patch_point():
    return np.array([[1.2, 0.05]])


def test_theta_bidisc_leaf_vanishes(bidisc):
    chart = bidisc.charts[bidisc.notes["main_leaf"]]
    U, _ = chart.grid(5)
    comps = theta_components(chart, U)
    assert np.max(np.abs(comps)) < 1e-6


def test_theta_worm_log_polar_constant(worm):
    chart = worm.charts["log_polar"]
    U = np.stack([np.linspace(-0.3, 0.3, 5), np.linspace(0.5, 5.5, 5)], axis=1)
    comps = theta_components(chart, U)
    np.testing.assert_allclose(comps, np.broadcast_to([0.0, -0.5],
                                                      comps.shape), atol=1e-6)


def test_theta_worm_patch_matches_closed_form(worm):
    chart = worm.charts["patch"]
    U = np.stack([np.linspace(0.8, 1.7, 7), np.linspace(-0.3, 0.3, 7)], axis=1)
    comps = theta_components(chart, U)
    w = U[:, 0] + 1j * U[:, 1]
    h = -1j / (2 * np.conj(w))
    np.testing.assert_allclose(comps[:, 0], h.real, atol=1e-4)
    np.testing.assert_allclose(comps[:, 1], h.imag, atol=1e-4)


def test_theta_at_single_point(worm):
    vals = theta_components(worm.charts["log_polar"], np.array([0.0, 1.0]))
    assert vals.shape == (1, 2)
    vals = vals[0]
    assert abs(vals[1] + 0.5) < 1e-6


def test_theta_real_chart_mismatch(quartic):
    with pytest.raises(ChartMismatch):
        theta_components(quartic.charts["curve"], np.array([[0.0]]))


def test_chart_tangents_match_embedding(zoo_entries):
    # every chart's closed-form tangent is the derivative of its embedding
    for entry in zoo_entries:
        for chart in entry.charts.values():
            U, _ = chart.grid(5)
            W = chart.tangents(U)
            assert W.shape == (U.shape[0], 2)
            np.testing.assert_allclose(W, fd_tangents(chart, U), rtol=0,
                                       atol=1e-8 * max(1.0, np.abs(W).max()))


def test_theta_chart_covariance_under_rotation(worm):
    # reparametrize the patch chart by a unit-modulus rotation of the
    # coordinate; components must transform by the Jacobian rule
    chart = worm.charts["patch"]
    al = 0.37
    ca, sa = np.cos(al), np.sin(al)
    u0 = np.array([[1.2, 0.1]])

    def embed_rot(V):
        V = np.atleast_2d(V)
        W = np.stack([ca * V[:, 0] - sa * V[:, 1],
                      sa * V[:, 0] + ca * V[:, 1]], axis=1)
        return chart.embed_batch(W)

    def tangent_rot(V):
        return np.exp(1j * al) * chart.tangents(V)

    rot = SigmaChart(domain=chart.domain, kind="complex",
                     lo=np.array([-3, -3.0]), hi=np.array([3, 3.0]),
                     embed=embed_rot, tangent=tangent_rot, name="rotated")
    v0 = (np.cos(-al) * u0[0, 0] - np.sin(-al) * u0[0, 1],
          np.sin(-al) * u0[0, 0] + np.cos(-al) * u0[0, 1])
    c_orig = theta_components(chart, u0)[0]
    c_rot = theta_components(rot, np.array(v0))[0]
    # 1-form pullback under z -> e^{i al} z: components rotate
    h_orig = c_orig[0] + 1j * c_orig[1]
    h_rot = c_rot[0] + 1j * c_rot[1]
    assert abs(h_rot - h_orig * np.exp(-1j * al)) < 1e-6


# ---------------------------------------------------------------------------
# compatibility identities
# ---------------------------------------------------------------------------

def test_compat_residuals_bidisc_zero(bidisc):
    chart = bidisc.charts[bidisc.notes["main_leaf"]]
    r1, r2 = chart_compat_residuals(chart, np.array([0.05, -0.1]), 0.04)
    assert r1 < 1e-8 and r2 < 1e-8


def test_compat_residuals_worm_second_order(worm):
    chart = worm.charts["patch"]
    u0 = worm_patch_point()
    res = []
    for h in (0.16, 0.08, 0.04):
        r1, _ = chart_compat_residuals(chart, u0, h)
        res.append(float(r1[0]))
    ratios = np.array(res[:-1]) / np.array(res[1:])
    assert np.all(ratios > 3.5)


def test_compat_identity_two_trivial_m1(worm):
    chart = worm.charts["patch"]
    _, r2 = chart_compat_residuals(chart, worm_patch_point(), 0.05)
    assert r2[0] == 0.0


def test_dtheta_bidisc_small(bidisc):
    chart = bidisc.charts[bidisc.notes["main_leaf"]]
    val = dtheta_residual(chart, np.array([0.0, 0.0]), 0.05)
    assert val < 1e-7


def test_dtheta_worm_second_order(worm):
    chart = worm.charts["patch"]
    u0 = worm_patch_point()
    res = [float(dtheta_residual(chart, u0, h)[0])
           for h in (0.04, 0.02, 0.01)]
    orders = measured_orders(res, floor=1e-7)
    assert np.min(orders) > 1.9


def test_dtheta_constant_form_exact_zero(worm, monkeypatch):
    chart = worm.charts["patch"]
    monkeypatch.setattr(sigma, "theta_components",
                        lambda chart, V: np.broadcast_to(
                            np.array([0.3, -0.7]),
                            (np.atleast_2d(V).shape[0], 2)))
    val = dtheta_residual(chart, np.array([1.2, 0.0]), 0.1)
    assert val == 0.0


def test_wirtinger_compat_gradient_field():
    # h_j = dbar_j of |z1|^2 on a grid in C^2: exact compatibility
    ax = np.linspace(-1, 1, 9)
    g = np.meshgrid(ax, ax, ax, ax, indexing="ij")
    h = np.zeros(g[0].shape + (2,), dtype=complex)
    h[..., 0] = g[0] + 1j * g[1]          # dbar1 |z1|^2 = z1
    res = wirtinger_compat_residual(h, ax[1] - ax[0])
    assert res < 1e-10


def test_wirtinger_compat_incompatible_field():
    ax = np.linspace(-1, 1, 9)
    g = np.meshgrid(ax, ax, ax, ax, indexing="ij")
    h = np.zeros(g[0].shape + (2,), dtype=complex)
    h[..., 0] = g[2] - 1j * g[3]          # h1 = conj(z2), h2 = 0
    res = wirtinger_compat_residual(h, ax[1] - ax[0])
    assert res >= 0.5


def test_wirtinger_compat_worm_samples(worm):
    chart = worm.charts["patch"]
    res = []
    for n in (17, 33, 65):
        ax0 = np.linspace(1.0, 1.4, n)
        ax1 = np.linspace(-0.2, 0.2, n)
        U = np.stack([m.ravel() for m in np.meshgrid(ax0, ax1,
                                                     indexing="ij")], axis=1)
        h = h_field(chart, U).reshape(n, n, 1)
        res.append(wirtinger_compat_residual(h, ax0[1] - ax0[0]))
    orders = measured_orders(res, floor=5e-7)
    assert np.min(orders) > 1.9


# ---------------------------------------------------------------------------
# transversal-field identities
# ---------------------------------------------------------------------------

def test_nu_identities_bidisc(bidisc):
    chart = bidisc.charts[bidisc.notes["main_leaf"]]
    r1, r2, r3 = nu_identity_residuals(chart, np.array([0.1, -0.05]), 0.04)
    assert r1 < 1e-6 and r2 < 1e-6 and r3 < 1e-6


def test_nu_identities_worm(worm):
    chart = worm.charts["patch"]
    u0 = worm_patch_point()
    vals = [nu_identity_residuals(chart, u0, h) for h in (0.08, 0.04)]
    for r1, r2, r3 in vals:
        assert r1[0] < 1e-4 and r2[0] < 1e-4 and r3[0] < 1e-4
    # r3 is a dual-route agreement; convergence order measured with a floor
    r3s = [float(v[2][0]) for v in vals]
    orders = measured_orders(r3s, floor=1e-7)
    assert np.min(orders) > 1.9 or np.all(np.array(r3s) < 1e-7)


def test_nu_identities_quartic_first_two(quartic):
    chart = quartic.charts["curve"]
    r1, r2, r3 = nu_identity_residuals(chart, np.array([0.7]), 0.05,
                                       strict=False)
    assert r1 < 1e-4 and r2 < 1e-4


def test_nu_identities_quartic_strict_raises(quartic):
    with pytest.raises(HypothesisFail):
        nu_identity_residuals(quartic.charts["curve"], np.array([0.7]), 0.05,
                              strict=True)


def test_real_one_form_quartic_matches_oracle(quartic):
    # derived values: g(nabla_nu nu, dt) = 0 on the curve
    chart = quartic.charts["curve"]
    for t in (0.3, 2.5, 5.0):
        comps = real_one_form_at(chart, np.array([t]))
        assert abs(comps[0]) < 1e-6


def test_real_one_form_matches_theta_on_complex_chart(worm):
    # the worm patch's x- and y-lines as real charts: their components must
    # equal the real and imaginary parts of the complex-chart components
    chart = worm.charts["patch"]
    U = np.stack([np.linspace(0.9, 1.6, 5), np.linspace(-0.2, 0.2, 5)],
                 axis=1)

    def line(axis, direction):
        # lines of the patch through the points U along one parameter
        # axis: row k of T moves row k of U
        def embed(T):
            V = U.copy()
            V[:, axis] = T[:, 0]
            return chart.embed_batch(V)

        def tangent(T):
            return np.tile(np.array([0, direction], dtype=complex),
                           (len(T), 1))

        return SigmaChart(domain=chart.domain, kind="real",
                          lo=chart.lo[[axis]], hi=chart.hi[[axis]],
                          embed=embed, tangent=tangent,
                          name=f"patch_line_{axis}")

    comps_c = theta_components(chart, U)
    # x-direction: (1/4) g(nabla_nu nu, X) = Re h; y-direction: Im h
    comps_x = real_one_form_at(line(0, 1.0), U[:, [0]])
    comps_y = real_one_form_at(line(1, 1j), U[:, [1]])
    np.testing.assert_allclose(comps_x, comps_c[:, 0], atol=1e-6)
    np.testing.assert_allclose(comps_y, comps_c[:, 1], atol=1e-6)


def test_real_one_form_zero_kernel():
    # a sphere's transversal field vanishes, so it pairs to zero against
    # the complex tangent direction L and its rotation J L
    for radius in (0.5, 1.0, 2.0):
        ball = zoo.make_ball(radius)
        jet = delta_jet(ball.domain, ball.boundary_mesh(20, seed=0), order=2)
        gx, gy = nu_pairings(jet, tangent_direction(normal_n(jet)))
        assert np.max(np.abs(gx)) <= 1e-12, radius
        assert np.max(np.abs(gy)) <= 1e-12, radius


def test_real_one_form_chart_mismatch(worm):
    with pytest.raises(ChartMismatch):
        real_one_form_at(worm.charts["patch"], np.array([1.2, 0.0]))


def test_one_form_sample_grid_and_csv(tmp_path):
    # the theta command's 5 x 5 grid on the worm's patch: two components a
    # row, and a closedness residual on the complex chart
    assert main(["theta", "--domain", "worm", "--chart", "patch", "--res",
                 "5", "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "theta.json").read_text())
    assert "maxClosednessResidual" in report
    lines = (tmp_path / "theta_worm_patch.csv").read_text().splitlines()
    assert len(lines) == 26
    assert lines[0].startswith("u0,u1,pos0")
    assert lines[0].endswith(",comp0,comp1")


def test_holomorphy_defect_of_charts(worm, bidisc):
    assert holomorphy_defect(worm.charts["log_polar"],
                             np.array([[0.0, 1.0]])) < 1e-6
    assert holomorphy_defect(bidisc.charts[bidisc.notes["main_leaf"]],
                             np.array([[0.1, 0.1]])) < 1e-8
