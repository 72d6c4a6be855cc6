"""Jets of defining functions: forward-mode exactness, Wirtinger views,
directional third derivatives."""

import numpy as np
import pytest

from conftest import sample_box_points
from dfindex.errors import EvaluationDomain, OrderTooLow
from dfindex.jets import (DomainSpec, Jet, jcos, jhinge_pow, jlog, jsin,
                          third_contraction)
from references import (conj_derivation, dense_jet, numeric_jet, oracle_jet,
                        third_directional)


# ---------------------------------------------------------------------------
# DomainSpec.jet basics
# ---------------------------------------------------------------------------

def test_ball_jet_at_boundary_point(ball):
    jet = ball.domain.jet(np.array([1.0, 0, 0, 0]), order=2)
    assert abs(jet.value[0]) < 1e-14
    w = jet.wgrad[0]
    np.testing.assert_allclose(w, [1.0, 0.0], atol=1e-14)


def test_ball_mixed_block_is_identity(ball):
    rng = np.random.default_rng(0)
    P = rng.uniform(-1, 1, size=(50, 4))
    jet = ball.domain.jet(P, order=2)
    H = jet.mixed
    np.testing.assert_allclose(H, np.broadcast_to(np.eye(2), H.shape),
                               atol=1e-13)


def test_outside_box_raises(ball):
    with pytest.raises(EvaluationDomain):
        ball.domain.jet(np.array([10.0, 0, 0, 0]), order=1)


def test_nonfinite_evaluator_raises():
    dom = DomainSpec(rho=lambda c: jlog(c[0]),
                     box_lo=-np.ones(4), box_hi=np.ones(4))
    from dfindex.errors import NonFinite
    with pytest.raises(NonFinite):
        dom.jet(np.array([[-0.5, 0, 0, 0]]), order=1)


def test_value_is_the_jet_value(zoo_entries):
    # value runs rho on order-0 jets, which carry no gradient: the bits of
    # the order-1 jet's value on every entry's boundary mesh and box samples
    assert all(x.g is None for x in Jet.variables(np.zeros((3, 4)), 0))
    for entry in zoo_entries:
        for P in (entry.boundary_mesh(400, seed=5),
                  sample_box_points(entry, 400, seed=5)):
            np.testing.assert_array_equal(
                entry.domain.value(P), entry.domain.jet(P, order=1).value)


def test_mixed_block_hermitian_everywhere(zoo_entries):
    for entry in zoo_entries:
        P = sample_box_points(entry, 200, seed=1)
        jet = entry.domain.jet(P, order=2)
        H = jet.mixed
        defect = np.max(np.abs(H - np.conj(np.swapaxes(H, 1, 2))))
        assert defect < 1e-12


def test_conjugation_symmetry_of_gradient(zoo_entries):
    # real-valued defining functions: d/dzbar = conj(d/dz)
    for entry in zoo_entries:
        P = sample_box_points(entry, 200, seed=2)
        jet = entry.domain.jet(P, order=1)
        w = jet.wgrad
        anti = 0.5 * (jet.rgrad[:, 0::2] + 1j * jet.rgrad[:, 1::2])
        np.testing.assert_allclose(anti, np.conj(w), atol=1e-13)


def test_worm_jets_match_symbolic_oracle(worm):
    P = worm.boundary_mesh(200, seed=3)
    jad = worm.domain.jet(P, order=3)
    jor = oracle_jet(worm, P, order=3)
    assert np.max(np.abs(jad.value - jor.value)) < 1e-8
    assert np.max(np.abs(jad.rgrad - jor.rgrad)) < 1e-8
    assert np.max(np.abs(jad.rhess - jor.rhess)) < 1e-8
    assert np.max(np.abs(jad.rthird - jor.rthird)) < 1e-7


@pytest.mark.parametrize("entry_name", ["ball", "bidisc", "worm", "quartic"])
def test_ad_matches_finite_differences(entry_name, request):
    # 1000 random points per domain; orders 1-2 to 1e-6 relative, order 3
    # to 1e-4 (C3 smoothing creases limit Richardson for third differences)
    entry = request.getfixturevalue(entry_name)
    dom = entry.domain
    P = sample_box_points(entry, 1000, seed=4, margin=0.05 * dom.scale,
                          avoid_crease=True)
    jad = dom.jet(P, order=3)
    jfd = numeric_jet(lambda Q: dom.value(Q), P, order=3,
                      h=5e-4 * dom.scale)
    scale_g = np.maximum(np.abs(jad.rgrad), 1e-2 * dom.scale)
    assert np.max(np.abs(jad.rgrad - jfd.rgrad) / scale_g) < 1e-6
    scale_h = np.maximum(np.abs(jad.rhess), 1e-1)
    assert np.max(np.abs(jad.rhess - jfd.rhess) / scale_h) < 1e-6
    scale_t = np.maximum(np.abs(jad.rthird), 1.0)
    assert np.max(np.abs(jad.rthird - jfd.rthird) / scale_t) < 1e-4


def test_fd_jets_converge_at_second_order(quartic):
    # Richardson refinement probe of the DomainSpec smoothness contract
    # (the quartic term gives a nonzero truncation signal)
    dom = quartic.domain
    P = sample_box_points(quartic, 20, seed=5, margin=0.2)
    exact = dom.jet(P, order=2)
    errs = []
    for h in (3.2e-2, 1.6e-2, 8e-3):
        fd = numeric_jet(lambda Q: dom.value(Q), P, order=2, h=h,
                         richardson=False)
        errs.append(np.max(np.abs(fd.rhess - exact.rhess)))
    orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert np.all(orders > 1.9)


# ---------------------------------------------------------------------------
# supports against the dense algebra
# ---------------------------------------------------------------------------

def _assert_matches_dense(dom, P, order):
    # np.array_equal: equal entry for entry, the sign of a zero aside (a
    # zero outside an intermediate's support is +0, the dense algebra's
    # product with a zero may be -0)
    jet = dom.jet(P, order=order)
    v, g, h, t = dense_jet(dom, P, order)
    assert np.array_equal(jet.value, v)
    assert np.array_equal(jet.rgrad, g)
    assert (jet.rhess is None) == (h is None)
    assert h is None or np.array_equal(jet.rhess, h)
    assert (jet.rthird is None) == (t is None)
    assert t is None or np.array_equal(jet.rthird, t)


@pytest.mark.parametrize("rows", [1, 80, 400, 3600])
@pytest.mark.parametrize("order", [1, 2, 3])
def test_jet_matches_dense_algebra(zoo_entries, order, rows):
    for entry in zoo_entries:
        P = np.concatenate([entry.boundary_mesh(rows // 2, seed=5),
                            sample_box_points(entry, rows - rows // 2,
                                              seed=6)])
        _assert_matches_dense(entry.domain, P, order)


# jet-generic expressions on R^4 whose intermediates have different
# supports, with plain numbers on either side, a (B,) array operand w on the
# right and a result that depends on some of the coordinates only
_MIXED = [
    lambda c, w: 2.0 * c[0] * c[2] + c[1] - 3.0,
    lambda c, w: (c[0] + 1.5) * (c[3] * c[3]) + c[1] * 0.5,
    lambda c, w: 0 + (-c[3] - 2) * c[1],
    lambda c, w: c[0] * w + c[3] * w + (c[1] + w) * c[2] - w,
    lambda c, w: jlog(c[2] * c[2] + c[3] * c[3] + w) * c[0],
    lambda c, w: jhinge_pow(c[0] - 0.1, 4) + jsin(c[1]) * jcos(c[3]) + 1,
    lambda c, w: (c[1] - c[0]) ** 3 + c[2] * (jcos(c[1]) - w),
    lambda c, w: jsin(c[1] * w) * 4.0,
]


@pytest.mark.parametrize("order", [1, 2, 3])
@pytest.mark.parametrize("k", range(len(_MIXED)))
def test_mixed_supports_match_dense_algebra(k, order):
    P = np.random.default_rng(14).uniform(-1.0, 1.0, size=(50, 4))
    w = 1.0 + P[:, 0] ** 2
    dom = DomainSpec(rho=lambda c: _MIXED[k](c, w), box_lo=-np.ones(4),
                     box_hi=np.ones(4))
    _assert_matches_dense(dom, P, order)


# ---------------------------------------------------------------------------
# third-derivative contractions
# ---------------------------------------------------------------------------

def test_third_contraction_vanishes_for_quadratics(ball):
    P = sample_box_points(ball, 30, seed=6)
    jet = ball.domain.jet(P, order=3)
    rng = np.random.default_rng(7)
    for _ in range(5):
        A, B, C = (rng.normal(size=2) + 1j * rng.normal(size=2)
                   for _ in range(3))
        vals = third_contraction(jet, A, B, C)
        assert np.max(np.abs(vals)) < 1e-12


def test_third_contraction_quartic_value(quartic):
    # |z1|^4: d^3/dz1 dz1 dzbar1 = 4 zbar1 -> 4 at (1, 0)
    jet = quartic.domain.jet(np.array([[1.0, 0, 0, 0]]), order=3)
    e1 = np.array([1.0 + 0j, 0.0])
    val = third_contraction(jet, e1, e1, e1)
    np.testing.assert_allclose(val, [4.0 + 0j], atol=1e-10)


def test_third_directional_conjugation_symmetry(worm):
    # reality of the defining function: conjugating every derivation
    # conjugates the contraction; on the derivations (A, 0), (B, 0) and
    # (0, conj C), third_contraction is the general contraction bit for bit
    P = worm.boundary_mesh(20, seed=8)
    jet = worm.domain.jet(P, order=3)
    rng = np.random.default_rng(9)
    zero = np.zeros(2)
    for _ in range(4):
        dirs = []
        for _ in range(3):
            p = rng.normal(size=2) + 1j * rng.normal(size=2)
            q = rng.normal(size=2) + 1j * rng.normal(size=2)
            dirs.append((p, q))
        a = third_directional(jet, *dirs)
        b = third_directional(jet, *[conj_derivation(d) for d in dirs])
        np.testing.assert_allclose(b, np.conj(a), rtol=1e-12, atol=1e-12)
        A, B, C = (p for p, _ in dirs)
        np.testing.assert_array_equal(
            third_contraction(jet, A, B, C),
            third_directional(jet, (A, zero), (B, zero), (zero, np.conj(C))))


def test_order_too_low(ball):
    jet = ball.domain.jet(np.array([[0.5, 0, 0, 0]]), order=2)
    with pytest.raises(OrderTooLow):
        third_contraction(jet, [1, 0], [1, 0], [1, 0])


# ---------------------------------------------------------------------------
# zoo oracle consistency
# ---------------------------------------------------------------------------

def test_oracle_agrees_with_evaluator(zoo_entries):
    for entry in zoo_entries:
        P = sample_box_points(entry, 1000, seed=12,
                              margin=0.05 * entry.domain.scale)
        jad = entry.domain.jet(P, order=2)
        jor = oracle_jet(entry, P, order=2)
        assert np.max(np.abs(jad.value - jor.value)) < 1e-10
        assert np.max(np.abs(jad.rgrad - jor.rgrad)) < 1e-10
        assert np.max(np.abs(jad.rhess - jor.rhess)) < 1e-10


def test_gradient_norm_on_boundary(zoo_entries):
    for entry in zoo_entries:
        P = entry.boundary_mesh(500, seed=13)
        g = entry.domain.jet(P, order=1).rgrad
        assert np.min(np.linalg.norm(g, axis=1)) > 1e-6
