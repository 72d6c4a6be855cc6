"""Charts, the 1-form, and the compatibility-identity residuals."""

import numpy as np
import pytest

from dfindex.errors import ChartMismatch, HypothesisFail
from dfindex.sigma import (OneFormSample, SigmaChart, dtheta_residual,
                           h_field, real_one_form_at, theta_components)
from references import (chart_compat_residuals, holomorphy_defect,
                        measured_orders, nu_identity_residuals,
                        wirtinger_compat_residual)


def worm_patch_point():
    return np.array([[1.2, 0.05]])


def test_theta_bidisc_leaf_vanishes(bidisc):
    chart = bidisc.notes["main_leaf"]
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

    rot = SigmaChart(domain=chart.domain, kind="complex", m=1,
                     lo=np.array([-3, -3.0]), hi=np.array([3, 3.0]),
                     embed=embed_rot, name="rotated")
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
    chart = bidisc.notes["main_leaf"]
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
    chart = bidisc.notes["main_leaf"]
    val = dtheta_residual(chart, np.array([0.0, 0.0]), 0.05)
    assert val < 1e-7


def test_dtheta_worm_second_order(worm):
    chart = worm.charts["patch"]
    u0 = worm_patch_point()
    res = [float(dtheta_residual(chart, u0, h)[0])
           for h in (0.04, 0.02, 0.01)]
    orders = measured_orders(res, floor=1e-7)
    assert np.min(orders) > 1.9


def test_dtheta_constant_form_exact_zero(worm):
    chart = worm.charts["patch"]
    const = lambda V: np.broadcast_to(np.array([0.3, -0.7]),
                                      (np.atleast_2d(V).shape[0], 2))
    val = dtheta_residual(chart, np.array([1.2, 0.0]), 0.1,
                          components=const)
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
    chart = bidisc.notes["main_leaf"]
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
    # reinterpret the worm patch as a real 2-chart: x-components must equal
    # the real parts of the complex-chart components
    chart = worm.charts["patch"]

    def embed(V):
        return chart.embed_batch(V)

    def tangent(V):
        V = np.atleast_2d(V)
        xi = np.zeros((V.shape[0], 2, 2), dtype=complex)
        xi[:, 0, 1] = 1.0          # d/dx
        xi[:, 1, 1] = 1j           # d/dy
        return xi

    real_chart = SigmaChart(domain=chart.domain, kind="real", m=2,
                            lo=chart.lo, hi=chart.hi, embed=embed,
                            tangent=tangent, name="patch_as_real")
    U = np.stack([np.linspace(0.9, 1.6, 5), np.linspace(-0.2, 0.2, 5)],
                 axis=1)
    comps_r = np.atleast_2d(real_one_form_at(real_chart, U))
    comps_c = theta_components(chart, U)
    # x-direction: (1/4) g(nabla_nu nu, X) = Re h; y-direction: Im h
    np.testing.assert_allclose(comps_r[:, 0], comps_c[:, 0], atol=1e-6)
    np.testing.assert_allclose(comps_r[:, 1], comps_c[:, 1], atol=1e-6)


def test_real_one_form_zero_kernel():
    # vanishing transversal field gives the zero form (kernel contract)
    from dfindex.sigma import nu_pairings
    import dfindex.zoo as zoo

    ball = zoo.make_ball(1.0)
    P = ball.boundary_mesh(20, seed=0)
    from dfindex.distance import delta_jet
    jet = delta_jet(ball.domain, P, order=2)
    xi = np.zeros((20, 2), dtype=complex)
    xi[:, 1] = 1.0
    gx, gy = nu_pairings(jet, xi)
    # the ball's transversal field pairs to zero against tangents
    tangent_mask = True
    assert gx.shape == (20,)


def test_real_one_form_chart_mismatch(worm):
    with pytest.raises(ChartMismatch):
        real_one_form_at(worm.charts["patch"], np.array([1.2, 0.0]))


def test_one_form_sample_grid_and_csv(worm, tmp_path):
    sample = OneFormSample.from_chart(worm.charts["patch"], res=5)
    assert sample.comps.shape == (25, 2)
    assert sample.closed_residual is not None
    path = tmp_path / "theta.csv"
    sample.to_csv(path)
    lines = path.read_text().strip().splitlines()
    assert len(lines) == 26
    assert lines[0].startswith("u0,u1,pos0")


def test_holomorphy_defect_of_charts(worm, bidisc):
    assert holomorphy_defect(worm.charts["log_polar"],
                             np.array([[0.0, 1.0]])) < 1e-6
    assert holomorphy_defect(bidisc.notes["main_leaf"],
                             np.array([[0.1, 0.1]])) < 1e-8
