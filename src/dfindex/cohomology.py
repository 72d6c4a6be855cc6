"""Line integrals and periods of the 1-form, exactness verdicts, potential
reconstruction, and the collar extension of boundary potentials.

The reconstructed potential satisfies dbar(phi) = Hess_delta(N, .) on the
chart, which makes it twice the raw line integral of the form's components
(the Wirtinger half: integrating f dx + g dy recovers a function whose
dbar-derivative is (f + i g)/2).
"""

from __future__ import annotations

import csv
import itertools
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .distance import foot_points
from .errors import (ChartGap, CollarTooWide, ObstructedClass,
                     PathDisagreement, AmbiguousFoot)
from .sigma import SigmaChart, h_field, theta_components
from .util import bump_c3, rng_for, smoothstep_c3

POTENTIAL_FACTOR = 2.0   # phi = 2 * integral(theta); makes dbar phi = h


# ---------------------------------------------------------------------------
# form sources and paths
# ---------------------------------------------------------------------------

@dataclass
class ThetaSource:
    """Evaluates the domain's 1-form components on a complex chart."""

    chart: SigmaChart

    def components(self, U):
        return theta_components(self.chart, U)

    def h(self, U):
        return h_field(self.chart, U)


@dataclass
class FuncSource:
    """Synthetic 1-form given by a components callable (K,p)->(K,p)."""

    chart: SigmaChart
    fn: Callable

    def components(self, U):
        return np.atleast_2d(self.fn(np.atleast_2d(U)))


@dataclass
class HFieldSource:
    """Synthetic complex h-field; components per the 1-form construction."""

    chart: SigmaChart
    hfn: Callable    # (K,p) -> (K, m) complex

    def components(self, U):
        h = np.atleast_2d(self.hfn(np.atleast_2d(U)))
        K, m = h.shape
        comps = np.empty((K, 2 * m))
        comps[:, 0::2] = h.real
        comps[:, 1::2] = h.imag
        return comps

    def h(self, U):
        return np.atleast_2d(self.hfn(np.atleast_2d(U)))


@dataclass
class PathInSigma:
    """Ordered polyline of chart parameters.

    Closed paths end where they start on the surface: either the endpoint
    parameters coincide, or they embed to the same ambient point (periodic
    chart coordinates).
    """

    params: np.ndarray
    closed: bool = False
    chart_name: str = ""

    def __post_init__(self):
        self.params = np.atleast_2d(np.asarray(self.params, dtype=float))

    def validate(self, chart: SigmaChart):
        inside = chart.contains(self.params, pad=1e-9)
        if not np.all(inside):
            raise ChartGap(
                f"{int((~inside).sum())} path vertex(es) outside the chart")
        if self.closed:
            ends = chart.embed_batch(self.params[[0, -1]])
            gap = float(np.linalg.norm(ends[0] - ends[1]))
            if gap > 1e-9 * chart.domain.scale:
                raise ChartGap(f"closed path endpoints {gap:.2e} apart")
        return self

    def reversed(self):
        return PathInSigma(self.params[::-1].copy(), self.closed,
                           self.chart_name)

    def rotated(self, k, wrap_axis=None, period=None):
        """Basepoint rotation of a closed loop by k vertices.

        For loops that close through a periodic chart coordinate, pass the
        axis and its period so the rolled parameter list stays monotone.
        """
        if not self.closed:
            raise ValueError("rotation needs a closed path")
        pts = np.roll(self.params[:-1], -k, axis=0)
        if wrap_axis is None:
            pts = np.vstack([pts, pts[:1]])
        else:
            col = pts[:, wrap_axis].copy()
            for i in range(1, len(col)):
                while col[i] < col[i - 1] - 1e-12:
                    col[i] += period
            pts = pts.copy()
            pts[:, wrap_axis] = col
            last = pts[:1].copy()
            last[0, wrap_axis] += period
            pts = np.vstack([pts, last])
        return PathInSigma(pts, True, self.chart_name)


def integrate_theta(source, path: PathInSigma, tol=1e-8):
    """Line integral of the 1-form along a polyline of chart parameters.

    Composite Simpson per segment with uniform halving until two successive
    whole-path estimates differ by less than tol.
    """
    path.validate(source.chart)
    pts = path.params
    seg_a = pts[:-1]
    seg_b = pts[1:]
    dU = seg_b - seg_a

    def estimate(nodes_per_seg):
        t = np.linspace(0.0, 1.0, nodes_per_seg + 1)
        # (S, Q, p) quadrature nodes for all segments at once
        nodes = seg_a[:, None, :] + t[None, :, None] * dU[:, None, :]
        S, Q, p = nodes.shape
        comps = source.components(nodes.reshape(-1, p)).reshape(S, Q, p)
        integrand = np.einsum("sqp,sp->sq", comps, dU)
        w = np.ones(Q)
        w[1:-1:2] = 4.0
        w[2:-1:2] = 2.0
        return float(np.sum(integrand @ w) / (3.0 * nodes_per_seg))

    prev = None
    n = 4
    for _ in range(10):
        est = estimate(n)
        if prev is not None and abs(est - prev) < tol * (1.0 + abs(est)):
            return est
        prev = est
        n *= 2
    return prev


def period(source, loop: PathInSigma, tol=1e-8):
    """Loop integral of the 1-form; the cohomological pairing with the cycle."""
    if not loop.closed:
        raise ValueError("period needs a closed path")
    return integrate_theta(source, loop, tol=tol)


@dataclass
class CohomologyVerdict:
    """Period vector of the generator loops with an exactness classification."""

    periods: list                 # [(name, value)]
    tolerance: float
    exact: bool

    @property
    def classification(self):
        return "Exact" if self.exact else "Obstructed"

    def to_json(self):
        return {
            "generators": [name for name, _ in self.periods],
            "periods": [float(v) for _, v in self.periods],
            "tolerance": float(self.tolerance),
            "classification": self.classification,
        }


def exactness_tolerance(max_abs_theta, diameter, floor=1e-6):
    """Scale-free default: 1e-4 x max|theta| x diameter, floored so that
    identically-vanishing forms classify as exact."""
    return max(1e-4 * float(max_abs_theta) * float(diameter), floor)


def classify(periods, tol) -> CohomologyVerdict:
    """Exact iff every |period| < tol; empty generator lists are exact."""
    items = list(periods.items()) if isinstance(periods, dict) else \
        [(str(k), float(v)) for k, v in periods]
    exact = all(abs(v) < tol for _, v in items)
    return CohomologyVerdict(periods=items, tolerance=float(tol), exact=exact)


# ---------------------------------------------------------------------------
# potential reconstruction
# ---------------------------------------------------------------------------

class _PolyModel:
    """Least-squares tensor polynomial on normalized chart parameters."""

    def __init__(self, lo, hi, degree=6):
        self.lo = np.asarray(lo, dtype=float)
        self.hi = np.asarray(hi, dtype=float)
        self.degree = degree
        self.coef = None
        self.terms = None

    def _design(self, U):
        """Monomial columns of total degree <= degree, built from one
        per-axis power table gathered through the cached exponent index."""
        X = 2.0 * (U - self.lo) / (self.hi - self.lo) - 1.0
        p = X.shape[1]
        if self.terms is None:
            self.terms = np.array(
                [e for e in itertools.product(range(self.degree + 1),
                                              repeat=p)
                 if sum(e) <= self.degree])
        powers = np.stack([X ** e for e in range(self.degree + 1)], axis=2)
        # np.take keeps A C-ordered; an F-ordered A sends fit() down another
        # BLAS path, which moves the ill-conditioned solve in the last digits
        A = np.take(powers[:, 0], self.terms[:, 0], axis=1)
        for a in range(1, p):
            A *= np.take(powers[:, a], self.terms[:, a], axis=1)
        return A

    def fit(self, U, y):
        A = self._design(np.atleast_2d(U))
        lam = 1e-10
        AtA = A.T @ A + lam * np.eye(A.shape[1])
        self.coef = np.linalg.solve(AtA, A.T @ np.asarray(y, dtype=float))
        resid = A @ self.coef - y
        return float(np.max(np.abs(resid)))

    def __call__(self, U):
        A = self._design(np.atleast_2d(U))
        return A @ self.coef


@dataclass
class LeafPotential:
    chart: SigmaChart
    params: np.ndarray
    shape: tuple
    values: np.ndarray
    model: _PolyModel
    gradient_residual: float
    fit_residual: float


@dataclass
class PotentialField:
    """phi on the chart atlas with dbar(phi) matching the normal-Hessian
    field; includes a smooth fitted evaluator for collar extension."""

    leaves: list                    # [LeafPotential]; one entry per chart
    basepoint: np.ndarray
    path_disagreement: float
    gradient_residual: float
    labels: np.ndarray | None = None   # leaf labels when foliated
    meta: dict = field(default_factory=dict)

    def eval(self, U, t=None):
        """phi at chart parameters U (with leaf labels t when foliated).

        Each point blends the two leaves whose labels bracket t (mod 2 pi)
        linearly in the label; each leaf model is evaluated once, on the
        rows that use it.  A bracket of zero span (labels coinciding mod
        2 pi) gives the preceding leaf full weight.
        """
        U = np.atleast_2d(U)
        if t is None or self.labels is None or len(self.leaves) == 1:
            return self.leaves[0].model(U)
        lt = self.labels
        tt = np.mod(np.asarray(t, dtype=float), 2 * np.pi)
        k = np.searchsorted(lt, tt) % len(lt)
        k0 = (k - 1) % len(lt)
        span = np.mod(lt[k] - lt[k0], 2 * np.pi)
        w = np.where(span > 0, np.mod(tt - lt[k0], 2 * np.pi)
                     / np.where(span > 0, span, 1.0), 0.0)
        out = np.zeros(U.shape[0])
        for j, leaf in enumerate(self.leaves):
            rows = np.flatnonzero((k0 == j) | (k == j))
            if rows.size:
                wj = np.where(k0[rows] == j, 1.0 - w[rows], w[rows])
                out[rows] += wj * leaf.model(U[rows])
        return out

    def to_csv(self, path):
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            p = self.leaves[0].params.shape[1]
            w.writerow([f"u{a}" for a in range(p)] + ["leaf", "phi"])
            for li, leaf in enumerate(self.leaves):
                lab = self.labels[li] if self.labels is not None else 0.0
                for k in range(leaf.params.shape[0]):
                    w.writerow([f"{v:.12e}" for v in leaf.params[k]]
                               + [f"{lab:.6f}", f"{leaf.values[k]:.12e}"])


def _tree_edges(shape):
    """Spanning-tree edges of a lattice: node index -> parent index."""
    strides = np.cumprod((1,) + shape[:0:-1])[::-1]

    def flat(idx):
        return int(np.dot(idx, strides))

    edges = []
    for node in np.ndindex(*shape):
        idx = np.array(node)
        if not idx.any():
            continue
        a = int(np.argmax(idx > 0))
        parent = idx.copy()
        parent[a] -= 1
        edges.append((flat(parent), flat(idx)))
    return edges


def _integrate_edges(source, U, edges, factor):
    """Simpson (5 nodes) along each straight lattice edge times factor."""
    a = U[[e[0] for e in edges]]
    b = U[[e[1] for e in edges]]
    t = np.linspace(0, 1, 5)
    nodes = a[:, None, :] + t[None, :, None] * (b - a)[:, None, :]
    S, Q, p = nodes.shape
    comps = source.components(nodes.reshape(-1, p)).reshape(S, Q, p)
    integrand = np.einsum("sqp,sp->sq", comps, b - a)
    w = np.array([1.0, 4.0, 2.0, 4.0, 1.0])
    return factor * (integrand @ w) / 12.0


def _staircase(a, b, order):
    """Axis-aligned path from a to b visiting axes in the given order."""
    pts = [a.copy()]
    cur = a.copy()
    for ax in order:
        cur = cur.copy()
        cur[ax] = b[ax]
        pts.append(cur)
    return PathInSigma(np.stack(pts), closed=False)


def build_potential(sources, basepoint, verdict: CohomologyVerdict,
                    res=17, factor=POTENTIAL_FACTOR, check_targets=100,
                    path_tol=1e-6, seed=0) -> PotentialField:
    """Reconstruct the potential by spanning-tree path integration.

    sources: a FormSource or a list of them (foliation leaves).  The verdict
    must be Exact; homotopic staircase pairs at random targets guard the
    path independence, and the finite-difference dbar of the grid values is
    compared against the h-field when the source provides one.
    """
    if not verdict.exact:
        raise ObstructedClass(
            f"period vector {[v for _, v in verdict.periods]} not below "
            f"{verdict.tolerance:.2e}")
    src_list = sources if isinstance(sources, (list, tuple)) else [sources]
    leaves = []
    labels = []
    worst_gap = 0.0
    worst_grad = 0.0
    rng = rng_for(seed)
    basepoint = np.asarray(basepoint, dtype=float)
    for source in src_list:
        chart = source.chart
        U, shape = chart.grid(res)
        edges = _tree_edges(shape)
        vals = np.zeros(U.shape[0])
        contrib = _integrate_edges(source, U, edges, factor)
        for (pa, pb), dv in zip(edges, contrib):
            vals[pb] = vals[pa] + dv
        # anchor at the grid node nearest the basepoint
        k0 = int(np.argmin(np.linalg.norm(U - basepoint[None, :U.shape[1]],
                                          axis=1)))
        vals -= vals[k0]

        # homotopic staircase pairs at random targets
        p = U.shape[1]
        a = U[k0]
        for _ in range(check_targets // max(len(src_list), 1) + 1):
            b = U[int(rng.integers(0, U.shape[0]))]
            i1 = factor * integrate_theta(source, _staircase(a, b, range(p)))
            i2 = factor * integrate_theta(source,
                                          _staircase(a, b, range(p - 1, -1, -1)))
            worst_gap = max(worst_gap, abs(i1 - i2))
        if worst_gap > path_tol:
            raise PathDisagreement(
                f"homotopic staircases differ by {worst_gap:.3e}")

        grad_res = 0.0
        if hasattr(source, "h") and chart.kind == "complex":
            grid_vals = vals.reshape(shape)
            hstep = [(chart.hi[a2] - chart.lo[a2]) / (shape[a2] - 1)
                     for a2 in range(p)]
            hv = source.h(U).reshape(shape + (chart.m,))
            interior = tuple(slice(1, -1) for _ in shape)
            for j in range(chart.m):
                Dx = np.gradient(grid_vals, hstep[2 * j], axis=2 * j)
                Dy = np.gradient(grid_vals, hstep[2 * j + 1], axis=2 * j + 1)
                dbar = 0.5 * (Dx + 1j * Dy)
                grad_res = max(grad_res, float(np.max(np.abs(
                    (dbar - hv[..., j])[interior]))))
        worst_grad = max(worst_grad, grad_res)

        model = _PolyModel(chart.lo, chart.hi, degree=min(8, res - 1))
        fit_res = model.fit(U, vals)
        leaves.append(LeafPotential(chart=chart, params=U, shape=shape,
                                    values=vals, model=model,
                                    gradient_residual=grad_res,
                                    fit_residual=fit_res))
        labels.append(chart.leaf_label)
    has_labels = all(l is not None for l in labels) and len(labels) > 1
    return PotentialField(
        leaves=leaves, basepoint=basepoint, path_disagreement=worst_gap,
        gradient_residual=worst_grad,
        labels=np.asarray(labels, dtype=float) if has_labels else None)


# ---------------------------------------------------------------------------
# collar extension
# ---------------------------------------------------------------------------

@dataclass
class CollarMap:
    """Coordinates of the degenerate set for collar extension.

    to_chart maps ambient boundary points to (chart params U, leaf labels or
    None, edge in [0,1] with 1 at the rim of the patch).
    """

    to_chart: Callable
    fade_start: float = 0.7
    fade_end: float = 0.98


class CollarPsi:
    """psi = -2 phi extended constantly along foot-point fibers and blended
    to zero at the collar edge by a C3 profile."""

    def __init__(self, domain, phi: PotentialField, collar: CollarMap,
                 width=None, check=True):
        self.domain = domain
        self.phi = phi
        self.collar = collar
        self.width = domain.collar_width if width is None else float(width)
        if check:
            self._probe_width()

    def _probe_width(self):
        # the collar must keep foot points unique; probe a ring of offsets
        if self.width > 0.49 * self.domain.scale:
            raise CollarTooWide("collar wider than half the domain scale")
        try:
            U0 = self.phi.leaves[0].params[:8]
            P = self.phi.leaves[0].chart.embed_batch(U0)
            jet = self.domain.jet(P, order=1)
            nhat = jet.rgrad / np.linalg.norm(jet.rgrad, axis=1, keepdims=True)
            probe = P - self.width * nhat
            foot_points(self.domain, probe, ambiguity_check=True)
        except AmbiguousFoot as exc:
            raise CollarTooWide(f"ambiguous feet inside the collar: {exc}")

    def __call__(self, P):
        P = np.atleast_2d(np.asarray(P, dtype=float))
        feet, _ = foot_points(self.domain, P, ambiguity_check=False)
        return self.at_feet(feet)

    def at_feet(self, F):
        U, t, edge = self.collar.to_chart(np.atleast_2d(F))
        vals = self.phi.eval(U, t)
        s = (np.clip(edge, 0, None) - self.collar.fade_start) / \
            max(self.collar.fade_end - self.collar.fade_start, 1e-12)
        blend = 1.0 - smoothstep_c3(s)
        return -POTENTIAL_FACTOR * vals * blend


def extend_to_collar(domain, phi: PotentialField, collar: CollarMap,
                     width=None, check=True) -> CollarPsi:
    """Constant extension of -2 phi along transversal/normal coordinates with
    a C3 edge blend; exact on the chart grid."""
    return CollarPsi(domain, phi, collar, width=width, check=check)

