"""Fixture-layer contracts: oracles, described degenerate sets, meshes."""

import os
import subprocess
import sys

import numpy as np
import pytest

from conftest import sample_box_points
from dfindex import zoo
from dfindex.cli import _DEFAULTS
from dfindex.cohomology import PathInSigma
from dfindex.errors import BetaTooSmall
from dfindex.levi import detect_sigma
from dfindex.pipelines import ORACLE_DEPTH
from dfindex.sigma import theta_components
from references import ball_delta_jet, levi_min_via_rho, oracle_jet


def test_zoo_ids():
    assert sorted(zoo.REGISTRY) == ["ball", "bidisc", "quartic_circle",
                                    "worm"]
    for name, build in zoo.REGISTRY.items():
        assert build(_DEFAULTS).id == name
    settings = dict(_DEFAULTS, radius=2.0, r=0.5, beta=2 * np.pi)
    assert zoo.REGISTRY["ball"](settings).domain.meta["radius"] == 2.0
    assert zoo.REGISTRY["bidisc"](settings).domain.meta["r"] == 0.5
    assert zoo.REGISTRY["worm"](settings).domain.meta["beta"] == 2 * np.pi


def test_worm_beta_too_small():
    with pytest.raises(BetaTooSmall):
        zoo.make_worm(np.pi / 2)


@pytest.mark.parametrize("beta", [1.58, 1.6, 1.7, np.pi, 2 * np.pi, 40.0,
                                  79.0, 200.0])
def test_worm_charts_and_loops_valid(beta):
    # the patch box is proper and its grid lies on Sigma (theta's boundary
    # jets raise StencilLeak off the boundary), and every loop lies inside
    # its chart, at small and large beta alike
    worm = zoo.make_worm(beta)
    patch = worm.charts["patch"]
    assert np.all(patch.lo < patch.hi)
    U, _ = patch.grid(9)
    assert np.max(worm.sigma_distance(patch.embed_batch(U))) == 0.0
    assert np.all(np.isfinite(theta_components(patch, U)))
    for chart_name, params in worm.loops.values():
        PathInSigma(params, closed=True).validate(worm.charts[chart_name])


def test_ball_describe(ball):
    d = ball.describe()
    assert d["id"] == "ball" and d["sigma_kind"] == "Empty"


def test_oracles_match_evaluators_everywhere(zoo_entries):
    for entry in zoo_entries:
        P = sample_box_points(entry, 1000, seed=20,
                              margin=0.05 * entry.domain.scale)
        jad = entry.domain.jet(P, order=3)
        jor = oracle_jet(entry, P, order=3)
        assert np.max(np.abs(jad.value - jor.value)) < 1e-10
        assert np.max(np.abs(jad.rgrad - jor.rgrad)) < 1e-10
        assert np.max(np.abs(jad.rhess - jor.rhess)) < 1e-10
        assert np.max(np.abs(jad.rthird - jor.rthird)) < 5e-10


def test_oracles_lambdify_lazily():
    # a fresh interpreter: importing every module of the package and
    # building every entry must not import sympy; the first call of a
    # symbolic test oracle does, and its jets still match the AD evaluator
    script = """
import importlib
import pkgutil
import sys
import numpy as np
import dfindex
from dfindex import zoo
from dfindex.cli import _DEFAULTS
for mod in pkgutil.iter_modules(dfindex.__path__):
    importlib.import_module("dfindex." + mod.name)
entries = [zoo.REGISTRY[name](_DEFAULTS) for name in sorted(zoo.REGISTRY)]
samples = [entry.boundary_mesh(40, 23) for entry in entries]
jets = [entry.domain.jet(P, order=3) for entry, P in zip(entries, samples)]
from references import oracle_jet
assert "sympy" not in sys.modules, "the package imported sympy"
for entry, P, jad in zip(entries, samples, jets):
    jor = oracle_jet(entry, P, order=3)
    for a, b in ((jad.value, jor.value), (jad.rgrad, jor.rgrad),
                 (jad.rhess, jor.rhess), (jad.rthird, jor.rthird)):
        assert np.max(np.abs(a - b)) < 5e-10, entry.id
assert "sympy" in sys.modules
print("ok")
"""
    src = os.path.dirname(os.path.dirname(zoo.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src, os.path.dirname(__file__)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "ok"


def test_boundary_meshes_lie_on_boundary(zoo_entries):
    for entry in zoo_entries:
        P = entry.boundary_mesh(500, seed=21)
        vals = entry.domain.value(P)
        assert np.max(np.abs(vals)) < 1e-9


def test_interior_meshes_lie_inside(zoo_entries):
    for entry in zoo_entries:
        P, delta = entry.interior_mesh(300, seed=22, depth=ORACLE_DEPTH)
        assert P.shape[0] > 200
        assert np.all(entry.domain.value(P) < 0) and np.all(delta.value < 0)
        # each point's foot P - delta grad delta lies on the boundary
        feet = P - delta.value[:, None] * delta.rgrad
        assert np.max(np.abs(entry.domain.value(feet))) < 1e-12


def test_bidisc_hessian_structure(bidisc):
    # ambient complex Hessian of rho is diag(chi' + chi''|z1|^2, 1)
    P = bidisc.boundary_mesh(200, seed=23)
    jet = bidisc.domain.jet(P, order=2)
    H = jet.mixed
    np.testing.assert_allclose(H[:, 1, 1], 1.0, atol=1e-12)
    np.testing.assert_allclose(H[:, 0, 1], 0.0, atol=1e-12)
    assert np.min(H[:, 0, 0].real) > -1e-12


def test_bidisc_pseudoconvex_everywhere(bidisc):
    P = sample_box_points(bidisc, 500, seed=24)
    jet = bidisc.domain.jet(P, order=2)
    w = np.linalg.eigvalsh(jet.mixed)
    assert w.min() > -1e-12


def test_quartic_ambient_levi(quartic):
    P = quartic.boundary_mesh(100, seed=25)
    jet = quartic.domain.jet(P, order=2)
    H = jet.mixed
    z1sq = P[:, 0] ** 2 + P[:, 1] ** 2
    np.testing.assert_allclose(H[:, 0, 0].real, 4 * z1sq, atol=1e-12)
    np.testing.assert_allclose(H[:, 1, 1].real, 1.0, atol=1e-12)


def test_worm_boundary_point_and_degeneracy(worm):
    # (0, 1) is a boundary point with vanishing restricted Levi form
    z = np.array([0.0, 0.0, 1.0, 0.0])
    assert abs(worm.domain.value(z[None])[0]) < 1e-14
    lam = levi_min_via_rho(worm.domain, z[None])
    assert abs(lam[0]) < 1e-12


def test_described_sigma_reproduced(zoo_entries):
    for entry in zoo_entries:
        if entry.sigma_kind == "Empty":
            continue
        sig = detect_sigma(entry.domain,
                           entry.boundary_mesh(2500, seed=26), None)
        assert sig.size > 0
        assert entry.sigma_distance(sig.points).max() < 1e-4


def test_ball_closed_form_delta(ball):
    rng = np.random.default_rng(27)
    P = rng.normal(size=(50, 4))
    P /= np.linalg.norm(P, axis=1, keepdims=True)
    P *= rng.uniform(0.8, 1.2, 50)[:, None]
    ref = ball_delta_jet(P, 1.0, order=2)
    np.testing.assert_allclose(ref.value, np.linalg.norm(P, axis=1) - 1.0,
                               atol=1e-14)
    assert np.max(np.abs(np.linalg.norm(ref.rgrad, axis=1) - 1.0)) < 1e-13
