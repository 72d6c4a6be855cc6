"""Line integrals and periods of the 1-form, exactness verdicts, potential
reconstruction, and the collar extension of boundary potentials.

The form is read on each chart through sigma.theta_components, and a path
is a (V, p) array of its chart parameters.  One composite Simpson rule,
simpson_sums, integrates the form along the periods' loops
(integrate_theta) and the potential's lattice edges (build_potential); the
loops' theta masses, from the same quadrature, set the exactness
tolerance.

The reconstructed potential satisfies dbar(phi) = Hess_delta(N, .) on the
chart, which makes it twice the raw line integral of the form's components
(the Wirtinger half: integrating f dx + g dy recovers a function whose
dbar-derivative is (f + i g)/2).  The charts of one potential (a foliation's
leaves) share one parameter box, so they share its node lattice and its
monomial basis: each leaf adds only its node values and its coefficient
column.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .distance import march_inward
from .errors import (ChartGap, ChartMismatch, CollarTooWide, NoConvergence,
                     ObstructedClass, PathDisagreement)
from .sigma import SigmaChart, theta_components
from .util import smoothstep_c3

POTENTIAL_FACTOR = 2.0   # phi = 2 * integral(theta); makes dbar phi = h
# integrate_theta halves its Simpson step until two whole-path estimates
# differ by less than PERIOD_TOL x (1 + |estimate|)
PERIOD_TOL = 1e-8


# ---------------------------------------------------------------------------
# line integrals and periods
# ---------------------------------------------------------------------------

def check_closed(chart: SigmaChart, path):
    """Raise ChartGap unless the path, a (V, p) array of chart parameters,
    ends where it starts on the surface: its end parameters coincide or
    embed to one ambient point (periodic chart coordinates), within 1e-9
    of the domain's scale."""
    ends = chart.embed_batch(path[[0, -1]])
    gap = float(np.linalg.norm(ends[0] - ends[1]))
    if gap > 1e-9 * chart.domain.scale:
        raise ChartGap(f"closed path endpoints {gap:.2e} apart")


def simpson_sums(comps, dU):
    """Composite Simpson sums of theta.dU and of |theta.dU| per segment,
    before the factor 1/(3(Q - 1)), from theta at Q equally spaced nodes
    (Q odd, ends included) of S segments, (S, Q, p), and their (S, p) steps."""
    Q = comps.shape[1]
    integrand = np.einsum("sqp,sp->sq", comps, dU)
    w = np.ones(Q)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return integrand @ w, np.abs(integrand) @ w


def integrate_theta(chart: SigmaChart, paths):
    """Line integrals of the 1-form along polylines of the chart's
    parameters, each a (V, p) array of its vertices, and their theta masses
    (the integrals of |theta.dU|): two lists, one value per path.  A closed
    path's integral is its period, the cohomological pairing with its
    cycle; ChartGap names the vertices outside the chart.

    simpson_sums per segment on nested levels of 4 to 2048 nodes per
    segment.  The nodes are dyadic, so level 2n's even nodes are level n's
    (linspace(0, 1, 2n + 1)[::2] equals linspace(0, 1, n + 1) exactly) and
    take its values; each level makes one theta_components call, on the
    new odd nodes of the paths that have not converged.  A path converges
    once two successive whole-path estimates differ by less than PERIOD_TOL
    (relative), and its mass comes from the same level; NoConvergence
    names the first path whose ten estimates never do.
    """
    if not paths:
        return [], []
    for path in paths:
        inside = chart.contains(path)
        if not np.all(inside):
            raise ChartGap(
                f"{int((~inside).sum())} path vertex(es) outside the chart")
    starts = [path[:-1] for path in paths]
    steps = [path[1:] - path[:-1] for path in paths]

    def components(active, t):
        """theta at seg_a + t dU for the segments of each active path, as
        (S, len(t), p) blocks, in one theta_components call."""
        nodes = [starts[i][:, None, :]
                 + t[None, :, None] * steps[i][:, None, :] for i in active]
        p = nodes[0].shape[2]
        comps = theta_components(
            chart, np.concatenate([nd.reshape(-1, p) for nd in nodes]))
        ends = np.cumsum([nd.shape[0] * nd.shape[1] for nd in nodes])[:-1]
        return [c.reshape(nd.shape)
                for c, nd in zip(np.split(comps, ends), nodes)]

    def simpson(comps, dU):
        scale = 3.0 * (comps.shape[1] - 1)
        return [float(np.sum(s) / scale) for s in simpson_sums(comps, dU)]

    active = list(range(len(paths)))
    values = components(active, np.linspace(0.0, 1.0, 5))
    est = [simpson(c, dU) for c, dU in zip(values, steps)]
    diff = {}
    for k in range(3, 12):          # 8 to 2048 nodes per segment
        odd = components(active, np.linspace(0.0, 1.0, 2 ** k + 1)[1::2])
        for i, new in zip(active, odd):
            old = values[i]
            comps = np.empty((old.shape[0], 2 * old.shape[1] - 1,
                              old.shape[2]))
            comps[:, ::2] = old
            comps[:, 1::2] = new
            values[i] = comps
            prev, est[i] = est[i], simpson(comps, steps[i])
            diff[i] = abs(est[i][0] - prev[0])
        active = [i for i in active
                  if not diff[i] < PERIOD_TOL * (1 + abs(est[i][0]))]
        if not active:
            return [e[0] for e in est], [e[1] for e in est]
    i = active[0]
    raise NoConvergence(f"line integral of path {i} ({len(paths[i])} "
                        f"vertices) not converged at 2048 nodes per segment: "
                        f"the last two estimates differ by {diff[i]:.3e}")


def exactness_tolerance(mass):
    """1e-4 x the loops' largest theta mass (integrate_theta's second list),
    which bounds their |periods| and does not grow with the chart, floored
    at 1e-6 so that identically vanishing forms classify as exact."""
    return max(1e-4 * float(mass), 1e-6)


def classify(periods, tol):
    """The period verdict {generators, periods, tolerance, classification}
    of a {loop name: period} dict: "Exact" iff every |period| < tol (so
    empty generator lists are exact), "Obstructed" otherwise."""
    exact = all(abs(v) < tol for v in periods.values())
    return {"generators": list(periods),
            "periods": [float(v) for v in periods.values()],
            "tolerance": float(tol),
            "classification": "Exact" if exact else "Obstructed"}


# ---------------------------------------------------------------------------
# potential reconstruction
# ---------------------------------------------------------------------------

def _design(U, lo, hi, terms):
    """Monomial columns at chart parameters U, normalized from the box
    [lo, hi] to [-1, 1], built from one per-axis power table gathered
    through the exponent table terms."""
    X = 2.0 * (U - lo) / (hi - lo) - 1.0
    powers = np.stack([X ** e for e in range(terms.max() + 1)], axis=2)
    # np.take keeps A C-ordered; an F-ordered A sends the fit down another
    # BLAS path, which moves the ill-conditioned solve in the last digits
    A = np.take(powers[:, 0], terms[:, 0], axis=1)
    for a in range(1, X.shape[1]):
        A *= np.take(powers[:, a], terms[:, a], axis=1)
    return A


@dataclass
class PotentialField:
    """phi with dbar(phi) matching the normal-Hessian field on charts (one
    per foliation leaf) that share one parameter box and its node lattice;
    column j of coef fits leaf j's node values values[j] on the monomials
    of terms, for the collar extension."""

    charts: list                    # [SigmaChart]; one per leaf
    params: np.ndarray              # (K, p) lattice nodes, shared
    shape: tuple                    # the lattice's nodes per axis
    values: np.ndarray              # (leaves, K) node values
    gradient_residuals: np.ndarray  # (leaves,) dbar residuals
    terms: np.ndarray               # (T, p) monomial exponents
    coef: np.ndarray                # (T, leaves)
    path_disagreement: float        # largest lattice-cycle residual
    labels: np.ndarray | None = None   # leaf labels when foliated

    def eval(self, U, t):
        """phi at chart parameters U, with leaf labels t when foliated (None
        otherwise).

        The points' monomial table is built once.  Each point blends the
        two leaves whose labels bracket t (mod 2 pi) with the C3 step of the
        label fraction, so phi and its first three label derivatives are
        continuous at every label; each leaf's coefficient column multiplies
        the table's rows that use it.  A bracket of zero span (labels
        coinciding mod 2 pi) gives the preceding leaf full weight.
        """
        U = np.atleast_2d(U)
        A = _design(U, self.charts[0].lo, self.charts[0].hi, self.terms)
        if t is None or self.labels is None or len(self.charts) == 1:
            return A @ self.coef[:, 0]
        lt = self.labels
        tt = np.mod(np.asarray(t, dtype=float), 2 * np.pi)
        k = np.searchsorted(lt, tt) % len(lt)
        k0 = (k - 1) % len(lt)
        span = np.mod(lt[k] - lt[k0], 2 * np.pi)
        w = smoothstep_c3(np.where(span > 0, np.mod(tt - lt[k0], 2 * np.pi)
                                   / np.where(span > 0, span, 1.0), 0.0))
        out = np.zeros(U.shape[0])
        for j in range(len(self.charts)):
            rows = np.flatnonzero((k0 == j) | (k == j))
            if rows.size:
                wj = np.where(k0[rows] == j, 1.0 - w[rows], w[rows])
                out[rows] += wj * (A[rows] @ self.coef[:, j])
        return out


def _lattice_edges(shape):
    """Every nearest-neighbour edge (a, b) of a lattice, b one step above a
    along some axis, ordered by b, with the mask of the spanning tree that
    links each node to its parent along the node's first nonzero axis."""
    strides = np.cumprod((1,) + shape[:0:-1])[::-1]
    idx = np.indices(shape).reshape(len(shape), -1).T
    below = idx > 0
    b, axis = np.nonzero(below)
    tree = axis == np.argmax(below, axis=1)[b]
    return b - strides[axis], b, tree


# largest circulation of the form around a cycle of the potential's lattice
PATH_TOL = 1e-6


def build_potential(charts, verdict, res) -> PotentialField:
    """Reconstruct the potential by spanning-tree path integration, zero at
    the lattice node nearest the centre of the charts' box.

    charts: a list of complex charts (a foliation's leaves), which share
    one parameter box (ChartMismatch otherwise).  The period verdict
    (classify's) must be Exact.  The box's node lattice, its edges, the
    interior nodes of a 5-node simpson_sums rule on every edge, the monomial
    design at the nodes and its regularised normal matrix are built once;
    theta_components is evaluated once per leaf, at the nodes and the
    Simpson nodes.  The tree edges set the node values; every other edge
    closes one cycle with the tree, and its residual against the node
    values is that cycle's circulation.  path_disagreement is the largest
    lattice-cycle residual, and PathDisagreement is raised above PATH_TOL.
    The finite-difference dbar of the node values is compared against h =
    theta_x + i theta_y at the nodes.  Each leaf's coefficients solve the
    normal equations with its own node values.
    """
    if verdict["classification"] != "Exact":
        raise ObstructedClass(
            f"period vector {verdict['periods']} not below "
            f"{verdict['tolerance']:.2e}")
    lo, hi = charts[0].lo, charts[0].hi
    if not all(np.array_equal(c.lo, lo) and np.array_equal(c.hi, hi)
               for c in charts):
        raise ChartMismatch("the potential's charts must share one "
                            "parameter box")
    U, shape = charts[0].grid(res)
    K, p = U.shape
    a, b, tree = _lattice_edges(shape)
    cycle = ~tree
    dU = U[b] - U[a]
    t = np.array([0.25, 0.5, 0.75])      # interior Simpson nodes of an edge
    inner = U[a][:, None, :] + t[None, :, None] * dU[:, None, :]
    nodes = np.concatenate([U, inner.reshape(-1, p)])
    k0 = int(np.argmin(np.linalg.norm(U - 0.5 * (lo + hi), axis=1)))
    hstep = [(hi[ax] - lo[ax]) / (shape[ax] - 1) for ax in range(p)]
    deg = min(8, res - 1)
    terms = np.array([e for e in itertools.product(range(deg + 1), repeat=p)
                      if sum(e) <= deg])
    A = _design(U, lo, hi, terms)
    AtA = A.T @ A + 1e-10 * np.eye(A.shape[1])
    values, grads, coef = [], [], []
    worst_gap = 0.0
    for chart in charts:
        comps = theta_components(chart, nodes)
        edge_comps = np.concatenate([comps[a][:, None],
                                     comps[K:].reshape(len(a), 3, p),
                                     comps[b][:, None]], axis=1)
        contrib = POTENTIAL_FACTOR * simpson_sums(edge_comps, dU)[0] / 12.0
        # tree edges come in node order: a parent is set before its child
        vals = np.zeros(K)
        for pa, pb, dv in zip(a[tree].tolist(), b[tree].tolist(),
                              contrib[tree].tolist()):
            vals[pb] = vals[pa] + dv
        vals -= vals[k0]

        gap = float(np.max(np.abs(vals[b[cycle]] - vals[a[cycle]]
                                  - contrib[cycle]), initial=0.0))
        worst_gap = max(worst_gap, gap)
        if worst_gap > PATH_TOL:
            raise PathDisagreement(
                f"lattice cycle residual {worst_gap:.3e}")

        grid_vals = vals.reshape(shape)
        hv = (comps[:K, 0] + 1j * comps[:K, 1]).reshape(shape)
        Dx = np.gradient(grid_vals, hstep[0], axis=0)
        Dy = np.gradient(grid_vals, hstep[1], axis=1)
        dbar = 0.5 * (Dx + 1j * Dy)
        values.append(vals)
        grads.append(float(np.max(np.abs((dbar - hv)[1:-1, 1:-1]))))
        coef.append(np.linalg.solve(AtA, A.T @ vals))
    labels = [c.leaf_label for c in charts]
    has_labels = all(l is not None for l in labels) and len(labels) > 1
    return PotentialField(
        charts=charts, params=U, shape=shape, values=np.array(values),
        gradient_residuals=np.array(grads), terms=terms,
        coef=np.stack(coef, axis=1), path_disagreement=worst_gap,
        labels=np.asarray(labels, dtype=float) if has_labels else None)


# ---------------------------------------------------------------------------
# collar extension
# ---------------------------------------------------------------------------

# the collar extension fades psi to zero between these values of the patch's
# edge coordinate (1 at the rim)
FADE = (0.7, 0.98)


class ChartTerms:
    """Terms on chart coordinates of the degenerate set, extended constantly
    along foot-point fibres and faded to zero at the rim of the patch by a
    C3 profile.

    to_chart maps boundary feet to (chart params U, leaf labels or None,
    edge in [0, 1] with 1 at the rim); surface maps (U, labels) to the
    (N, k) values of the k terms.
    """

    def __init__(self, to_chart: Callable, surface: Callable):
        self.to_chart = to_chart
        self.surface = surface

    def terms_at_feet(self, F):
        U, t, edge = self.to_chart(np.atleast_2d(F))
        s = (np.clip(edge, 0, None) - FADE[0]) / (FADE[1] - FADE[0])
        return self.surface(U, t) * (1.0 - smoothstep_c3(s))[:, None]


def _probe_rows(shape):
    """Row indices of a lattice of this shape, flattened in C order, at the
    first, middle and last node along every axis."""
    axes = [sorted({0, (s - 1) // 2, s - 1}) for s in shape]
    return np.ravel_multi_index(np.meshgrid(*axes, indexing="ij"),
                                shape).ravel()


def collar_terms(domain, phi: PotentialField, to_chart,
                 width=None) -> ChartTerms:
    """The one term of psi = -2 phi, extended along foot-point fibres with
    the edge fade; exact on the chart grid.

    The collar (default width domain.collar_width) must be foliated by the
    fibres: the 3 x 3 sub-lattice of the shared lattice (its corners, edge
    midpoints and centre) is embedded by every leaf's chart (72 points on
    the bidisc's eight leaves), and CollarTooWide raised unless
    distance.march_inward keeps each such point P marched inward by width.
    """
    width = domain.collar_width if width is None else float(width)
    if width > 0.49 * domain.scale:
        raise CollarTooWide("collar wider than half the domain scale")
    probe = phi.params[_probe_rows(phi.shape)]
    P = np.concatenate([chart.embed_batch(probe) for chart in phi.charts])
    kept, _ = march_inward(domain, P, np.full(len(P), width))
    if len(kept) < len(P):
        raise CollarTooWide(f"{len(P) - len(kept)} of {len(P)} collar "
                            f"fibres of width {width:.3g} miss their foot")
    return ChartTerms(to_chart,
                      lambda U, t: -POTENTIAL_FACTOR * phi.eval(U, t)[:, None])
