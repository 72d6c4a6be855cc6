import numpy as np
import pytest

from dfindex import zoo
from dfindex.certify import (NO_TERMS, Psi, combine, curve_geometry,
                             oracle_stencils, rho_terms)
from dfindex.cohomology import build_potential, classify
from references import leaf_sources, tree_potential


@pytest.fixture(scope="session")
def ball():
    return zoo.make_ball(1.0)


@pytest.fixture(scope="session")
def ball2():
    return zoo.make_ball(2.0)


@pytest.fixture(scope="session")
def bidisc():
    return zoo.make_fattened_bidisc(0.7)


@pytest.fixture(scope="session")
def worm():
    return zoo.make_worm(np.pi)


@pytest.fixture(scope="session")
def quartic():
    return zoo.make_quartic_circle()


@pytest.fixture(scope="session")
def quartic_curve(quartic):
    """The real-curve certificate's geometry on the quartic's circle."""
    return curve_geometry(quartic.domain, quartic.charts["curve"])


@pytest.fixture(scope="session")
def bidisc_leaf_field(bidisc):
    """Potential field over the bidisc's 8 leaf charts with a synthetic,
    leaf-dependent exact form, so that neighbouring leaves differ (the
    bidisc's own form vanishes on every leaf)."""
    return build_potential(leaf_sources(bidisc), np.zeros(2),
                           classify({}, 1e-6), res=9)


@pytest.fixture(scope="session")
def bidisc_leaf_models(bidisc):
    """bidisc_leaf_field's leaves fitted one at a time, each on its own
    lattice and design (references.tree_potential): one model per leaf."""
    return [tree_potential(src, np.zeros(2), 9)[1]
            for src in leaf_sources(bidisc)]


@pytest.fixture(scope="session")
def zoo_entries(ball, bidisc, worm, quartic):
    return [ball, bidisc, worm, quartic]


# entry id -> mask of the points P away from the C3 hinge crease (the
# bidisc's |z1| = r, the worm's |log|z2|^2| = a), which limits
# finite-difference accuracy in a stencil-wide band; cross-check tests
# sample away from it
CREASE_GUARDS = {
    "bidisc": lambda dom, P: (
        np.abs(np.hypot(P[:, 0], P[:, 1]) - dom.meta["r"]) > 0.05),
    "worm": lambda dom, P: (
        np.abs(np.abs(np.log(np.maximum(P[:, 2] ** 2 + P[:, 3] ** 2, 1e-12)))
               - dom.meta["a"]) > 0.05),
}
# entry id -> random-probe guard: keep the worm's |z2| clear of the log
# singularity, where derivative growth outruns fixed-step finite differences
SAMPLE_GUARDS = {"worm": lambda dom, P: np.hypot(P[:, 2], P[:, 3]) > 0.4}


def sample_box_points(entry, count, seed, margin=0.0, avoid_crease=False):
    """Uniform random points in the bounding box, honoring the entry's
    sample guard (regions where the evaluator is smooth) and optionally the
    crease guard (C3 hinge loci where FD Richardson degrades)."""
    dom = entry.domain
    rng = np.random.default_rng(seed)
    guard = SAMPLE_GUARDS.get(entry.id)
    crease = CREASE_GUARDS.get(entry.id) if avoid_crease else None
    out = []
    need = count
    while need > 0:
        P = rng.uniform(dom.box_lo + margin, dom.box_hi - margin,
                        size=(2 * need, len(dom.box_lo)))
        if guard is not None:
            P = P[guard(dom, P)]
        if crease is not None:
            P = P[crease(dom, P)]
        out.append(P[:need])
        need -= len(P[:need])
    return np.concatenate(out, axis=0)


# psi = 0
ZERO_PSI = Psi(NO_TERMS, ())


class _ShiftedTerms:
    """psi + c as one term: the same function of the foot point, shifted
    by a constant."""

    def __init__(self, base, c):
        self.base = base
        self.c = c

    def terms_at_feet(self, F):
        return psi_at_feet(self.base, F)[:, None] + self.c


def shifted(psi, c):
    """psi + c, a psi of its own one term."""
    return Psi(_ShiftedTerms(psi, c), (1.0,))


def psi_at_feet(psi, F):
    """psi's values sum_i coef_i T_i at the feet F."""
    return psi.terms.terms_at_feet(F) @ psi.coef


def oracle_terms(domain, mesh, psi):
    """The interior oracle's (value, wgrad, mixed) of delta e^psi at the
    mesh, (points, delta-jet) as an entry's interior_mesh returns it, built
    as pipelines.Run builds them."""
    return rho_terms(mesh[1], [combine(st.columns(psi.terms), psi.coef)
                               for st in oracle_stencils(domain, *mesh)])
