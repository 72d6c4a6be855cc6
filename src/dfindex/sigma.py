"""Charts on the degenerate set, the closed 1-form built from the normal
Hessian, and its closedness residual.

In C^2 every chart has one direction: a complex chart has one complex
parameter u = x + i y, taken as the pair (x, y), and is expected to embed
holomorphically; a real chart has one real parameter t.  Chart derivatives
of boundary fields use centered differences in the chart parameters.  Chart
embeddings lie on the boundary, so the fields take their delta-jets there
directly (distance.boundary_jet) and project nothing.

Every field is a function of a chart and an array of its parameters:
theta_components(chart, U) on a complex chart and real_one_form_at(chart,
U) on a real one give (K, p) and (K,) arrays, which cohomology integrates
and the theta command samples on chart.grid.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .distance import boundary_jet, normal_n
from .errors import ChartMismatch
from .jets import DomainSpec, WirtingerJet

# how far outside its box, besides 1e-12 of its largest side, a chart
# still contains parameters
CHART_PAD = 1e-9


@dataclass
class SigmaChart:
    """A parametrized patch (or foliation leaf) of the degenerate set, with
    parameters (x, y) on a complex chart and t on a real one.

    tangent is required: every chart gives the (1,0)-part coefficients of
    its direction in closed form (see tangents).
    """

    domain: DomainSpec
    kind: str                  # "complex" | "real"
    lo: np.ndarray             # (p,) parameter box, p = 2 complex / 1 real
    hi: np.ndarray
    embed: Callable            # (K, p) params -> (K, 4) ambient points
    tangent: Callable          # (K, p) -> (K, 2) complex coefficients
    leaf_label: float | None = None
    name: str = ""

    def __post_init__(self):
        self.lo = np.asarray(self.lo, dtype=float)
        self.hi = np.asarray(self.hi, dtype=float)

    def contains(self, U):
        U = np.atleast_2d(U)
        tol = CHART_PAD + 1e-12 * float(np.max(self.hi - self.lo))
        return np.all((U >= self.lo - tol) & (U <= self.hi + tol), axis=1)

    def grid(self, res):
        """Uniform tensor grid, res nodes per axis; returns (params (K, p),
        shape tuple)."""
        axes = [np.linspace(self.lo[a], self.hi[a], res)
                for a in range(len(self.lo))]
        mesh = np.meshgrid(*axes, indexing="ij")
        U = np.stack([m.ravel() for m in mesh], axis=1)
        return U, tuple(len(ax) for ax in axes)

    def embed_batch(self, U):
        return self.embed(np.atleast_2d(np.asarray(U, dtype=float)))

    def tangents(self, U):
        """(1,0)-part coefficients of the chart's direction, (K, 2).

        Complex charts: d/du of the holomorphic parametrization.  Real
        charts: the (1,0) part of d/dt.
        """
        return self.tangent(np.atleast_2d(np.asarray(U, dtype=float)))

# ---------------------------------------------------------------------------
# boundary fields
# ---------------------------------------------------------------------------

def h_field(chart: SigmaChart, U):
    """Normal-Hessian field h = Hess_delta(N, W) along the chart's direction
    W, (K,)."""
    U = np.atleast_2d(np.asarray(U, dtype=float))
    jet = boundary_jet(chart.domain, chart.embed_batch(U), order=2)
    N = normal_n(jet)
    W = chart.tangents(U)
    H = jet.mixed
    return np.einsum("kij,ki,kj->k", H, N, np.conj(W))


def theta_components(chart: SigmaChart, U):
    """Components of the 1-form theta = Re(h) dx + Im(h) dy on a complex
    chart: (K, 2) columns (Re h, Im h), aligned with the parameters (x, y).
    """
    if chart.kind != "complex":
        raise ChartMismatch("theta needs a complex chart")
    h = h_field(chart, U)
    return np.stack([h.real, h.imag], axis=1)


def nu_field(jet: WirtingerJet):
    """w_k = nu(nu_plus_k): derivative of the doubled antiholomorphic
    gradient coefficients along nu = N - conj(N); (K, n) complex.

    Through the eikonal identity, h = (1/4) <w, xi> pointwise in the
    collar, which realizes the real-form identities.
    """
    nu_plus = 2.0 * np.conj(jet.wgrad)
    H = jet.mixed     # H[i, k] = d^2 delta / dz_i dzbar_k
    S = jet.holo
    term1 = np.einsum("ki,kil->kl", nu_plus, H)
    term2 = np.einsum("ki,kil->kl", np.conj(nu_plus), np.conj(S))
    return 2.0 * (term1 - term2)


def nu_pairings(jet: WirtingerJet, xi):
    """(g(nabla_nu nu, X), g(nabla_nu nu, JX)) for real vectors X given by
    their (1,0)-part coefficients xi, batched (K, n)."""
    inner = np.einsum("kj,kj->k", np.conj(xi), nu_field(jet))
    return inner.real, inner.imag


def real_one_form_at(chart: SigmaChart, u):
    """The component (1/4) g(nabla_nu nu, d/dt) of the real 1-form on a
    real chart, (K,)."""
    if chart.kind != "real":
        raise ChartMismatch("the real 1-form needs a real chart")
    U = np.atleast_2d(np.asarray(u, dtype=float))
    jet = boundary_jet(chart.domain, chart.embed_batch(U), order=2)
    gx, _ = nu_pairings(jet, chart.tangents(U))
    return 0.25 * gx


# ---------------------------------------------------------------------------
# closedness residual
# ---------------------------------------------------------------------------

def dtheta_residual(chart: SigmaChart, u, h):
    """|circulation|/area of the 1-form around the grid cell of side h at
    corner u of a complex chart; second-order proxy for |d theta|."""
    U = np.atleast_2d(np.asarray(u, dtype=float))
    ex = np.array([h, 0.0])
    ey = np.array([0.0, h])
    corners = [U, U + ex, U + ex + ey, U + ey]
    vals = [theta_components(chart, np.atleast_2d(c)) for c in corners]
    circ = 0.0
    edges = [(0, 1, 0), (1, 2, 1), (2, 3, 0), (3, 0, 1)]
    signs = [1.0, 1.0, -1.0, -1.0]
    for (i0, i1, axis), sg in zip(edges, signs):
        avg = 0.5 * (vals[i0][:, axis] + vals[i1][:, axis])
        circ = circ + sg * avg * h
    res = np.abs(circ) / (h * h)
    return float(res[0]) if np.asarray(u).ndim == 1 else res
