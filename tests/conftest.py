import numpy as np
import pytest

from dfindex import zoo
from dfindex.cohomology import HFieldSource, build_potential, classify


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
def bidisc_leaf_field(bidisc):
    """Potential field over the bidisc's 8 leaf charts with a synthetic,
    leaf-dependent exact form, so that neighbouring leaves differ (the
    bidisc's own form vanishes on every leaf)."""
    charts = sorted(bidisc.charts.values(), key=lambda c: c.leaf_label)

    def source(chart):
        a = np.cos(chart.leaf_label) + 2.0
        return HFieldSource(chart, lambda U: (a * (U[:, 0] - 1j * U[:, 1])
                                              + a * a)[:, None])

    return build_potential([source(c) for c in charts], np.zeros(2),
                           classify({}, 1e-6), res=9, check_targets=8)


@pytest.fixture(scope="session")
def zoo_entries(ball, bidisc, worm, quartic):
    return [ball, bidisc, worm, quartic]


def sample_box_points(entry, count, seed, margin=0.0, avoid_crease=False):
    """Uniform random points in the bounding box, honoring the entry's
    sample guard (regions where the evaluator is smooth) and optionally the
    crease guard (C3 hinge loci where FD Richardson degrades)."""
    dom = entry.domain
    rng = np.random.default_rng(seed)
    guard = dom.meta.get("sample_guard")
    crease = dom.meta.get("crease_guard") if avoid_crease else None
    out = []
    need = count
    while need > 0:
        P = rng.uniform(dom.box_lo + margin, dom.box_hi - margin,
                        size=(2 * need, dom.dim))
        if guard is not None:
            P = P[guard(P)]
        if crease is not None:
            P = P[crease(P)]
        out.append(P[:need])
        need -= len(P[:need])
    return np.concatenate(out, axis=0)
