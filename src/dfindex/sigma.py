"""Charts on the degenerate set, the closed 1-form built from the normal
Hessian, and its closedness residual.

Complex charts use interleaved parameters (x1, y1, ..., xm, ym) and are
expected to embed holomorphically; real charts use (t1, ..., tm).  Chart
derivatives of boundary fields use centered differences of boundary-projected
stencils.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .distance import delta_jet, foot_points, normal_n
from .errors import ChartMismatch, StencilLeak
from .jets import DomainSpec, WirtingerJet
from .util import complex_pack


@dataclass
class SigmaChart:
    """A parametrized patch (or foliation leaf) of the degenerate set."""

    domain: DomainSpec
    kind: str                  # "complex" | "real"
    m: int                     # complex dimension (complex) / real dim (real)
    lo: np.ndarray
    hi: np.ndarray
    embed: Callable            # (K, p) params -> (K, 2n) ambient points
    tangent: Callable | None = None  # (K, p) -> (K, m, n) complex coefficients
    leaf_label: float | None = None
    name: str = ""
    resolution: int = 17
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.lo = np.asarray(self.lo, dtype=float)
        self.hi = np.asarray(self.hi, dtype=float)

    @property
    def params_dim(self):
        return 2 * self.m if self.kind == "complex" else self.m

    def contains(self, U, pad=1e-12):
        U = np.atleast_2d(U)
        tol = pad + 1e-12 * float(np.max(self.hi - self.lo))
        return np.all((U >= self.lo - tol) & (U <= self.hi + tol), axis=1)

    def require_inside(self, U, margin=0.0):
        U = np.atleast_2d(U)
        if np.any(U < self.lo + margin - 1e-12) or \
           np.any(U > self.hi - margin + 1e-12):
            raise StencilLeak("chart parameter outside the box")
        return U

    def grid(self, res=None):
        """Uniform tensor grid; returns (params (K, p), shape tuple)."""
        res = self.resolution if res is None else res
        axes = [np.linspace(self.lo[a], self.hi[a], res)
                for a in range(self.params_dim)]
        mesh = np.meshgrid(*axes, indexing="ij")
        U = np.stack([m.ravel() for m in mesh], axis=1)
        return U, tuple(len(ax) for ax in axes)

    def embed_batch(self, U):
        return self.embed(np.atleast_2d(np.asarray(U, dtype=float)))

    def tangents(self, U):
        """(1,0)-part coefficients of the coordinate directions, (K, m, n).

        Complex charts: the coordinate fields d/dz_j of the holomorphic
        parametrization.  Real charts: the (1,0) parts of d/dt_j.
        """
        U = np.atleast_2d(np.asarray(U, dtype=float))
        if self.tangent is not None:
            return self.tangent(U)
        he = 1e-6 * float(np.max(self.hi - self.lo))
        K, p = U.shape
        cols = []
        for a in range(p):
            dU = np.zeros_like(U)
            dU[:, a] = he
            dE = (self.embed_batch(U + dU) - self.embed_batch(U - dU)) / (2 * he)
            cols.append(complex_pack(dE))
        if self.kind == "real":
            return np.stack(cols, axis=1)
        W = []
        for j in range(self.m):
            xi_x = cols[2 * j]
            xi_y = cols[2 * j + 1]
            W.append(0.5 * (xi_x - 1j * xi_y))
        return np.stack(W, axis=1)

# ---------------------------------------------------------------------------
# boundary fields
# ---------------------------------------------------------------------------

def _snap(chart, U):
    """Embed chart parameters and project back onto the boundary."""
    P = chart.embed_batch(U)
    feet, _ = foot_points(chart.domain, P, ambiguity_check=False)
    return feet


def h_field(chart: SigmaChart, U):
    """Normal-Hessian field h_j = Hess_delta(N, W_j) on the chart, (K, m)."""
    U = np.atleast_2d(np.asarray(U, dtype=float))
    P = _snap(chart, U)
    jet = delta_jet(chart.domain, P, order=2)
    N = normal_n(jet)
    W = chart.tangents(U)
    H = jet.mixed
    return np.einsum("kij,ki,kmj->km", H, N, np.conj(W))


def theta_components(chart: SigmaChart, U):
    """Components of the 1-form, aligned with the chart parameters.

    Complex charts: theta = sum_j Re(h_j) dx_j + Im(h_j) dy_j, returned as a
    (K, 2m) array in (x1, y1, ..., xm, ym) order.
    """
    if chart.kind != "complex":
        raise ChartMismatch("theta needs a complex chart")
    h = h_field(chart, U)
    K, m = h.shape
    comps = np.empty((K, 2 * m))
    comps[:, 0::2] = h.real
    comps[:, 1::2] = h.imag
    return comps


def nu_field(jet: WirtingerJet):
    """w_k = nu(nu_plus_k): derivative of the doubled antiholomorphic
    gradient coefficients along nu = N - conj(N); (K, n) complex.

    Through the eikonal identity, h_j = (1/4) <w, xi_j> pointwise in the
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
    their (1,0)-part coefficients xi, batched (K, n) or (K, m, n)."""
    w = nu_field(jet)
    if xi.ndim == 3:
        inner = np.einsum("kmj,kj->km", np.conj(xi), w)
    else:
        inner = np.einsum("kj,kj->k", np.conj(xi), w)
    return inner.real, inner.imag


def real_one_form_at(chart: SigmaChart, u):
    """m real components (1/4) g(nabla_nu nu, d/dx_j-dual) on a real chart."""
    if chart.kind != "real":
        raise ChartMismatch("the real 1-form needs a real chart")
    U = np.atleast_2d(np.asarray(u, dtype=float))
    P = _snap(chart, U)
    jet = delta_jet(chart.domain, P, order=2)
    xi = chart.tangents(U)
    gx, _ = nu_pairings(jet, xi)
    out = 0.25 * gx
    return out[0] if np.asarray(u).ndim == 1 else out


# ---------------------------------------------------------------------------
# closedness residual
# ---------------------------------------------------------------------------

def dtheta_residual(chart: SigmaChart, u, h, plane=(0, 1), components=None):
    """|circulation|/area of the 1-form around the grid cell spanned by the
    parameter axes `plane` at corner u; second-order proxy for |d theta|."""
    U = np.atleast_2d(np.asarray(u, dtype=float))
    a, b = plane
    ea = np.zeros(U.shape[1])
    eb = np.zeros(U.shape[1])
    ea[a] = h
    eb[b] = h
    corners = [U, U + ea, U + ea + eb, U + eb]
    comp_fn = components if components is not None \
        else (lambda V: theta_components(chart, V))
    vals = [comp_fn(np.atleast_2d(c)) for c in corners]
    circ = 0.0
    edges = [(0, 1, a), (1, 2, b), (2, 3, a), (3, 0, b)]
    signs = [1.0, 1.0, -1.0, -1.0]
    for (i0, i1, axis), sg in zip(edges, signs):
        avg = 0.5 * (vals[i0][:, axis] + vals[i1][:, axis])
        circ = circ + sg * avg * h
    res = np.abs(circ) / (h * h)
    return float(res[0]) if np.asarray(u).ndim == 1 else res


# ---------------------------------------------------------------------------
# sampled grids
# ---------------------------------------------------------------------------

@dataclass
class OneFormSample:
    """1-form components on a chart grid with residual fields."""

    chart: SigmaChart
    params: np.ndarray          # (K, p)
    shape: tuple
    comps: np.ndarray           # (K, p) parameter-aligned coefficients
    positions: np.ndarray       # (K, 2n)
    closed_residual: np.ndarray | None = None

    @staticmethod
    def from_chart(chart: SigmaChart, res=None):
        U, shape = chart.grid(res)
        if chart.kind == "complex":
            comps = theta_components(chart, U)
        else:
            comps = np.atleast_2d(real_one_form_at(chart, U))
            comps = comps.reshape(U.shape[0], chart.m)
        sample = OneFormSample(chart=chart, params=U, shape=shape,
                               comps=comps,
                               positions=chart.embed_batch(U))
        if chart.kind == "complex" and chart.params_dim >= 2:
            hstep = float((chart.hi[0] - chart.lo[0])) / (shape[0] - 1)
            interior = U[(U[:, 0] < chart.hi[0] - hstep) &
                         (U[:, 1] < chart.hi[1] - hstep)]
            if interior.size:
                sample.closed_residual = dtheta_residual(
                    chart, interior, hstep, plane=(0, 1))
        return sample

    def to_csv(self, path):
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            p = self.params.shape[1]
            header = [f"u{a}" for a in range(p)] \
                + [f"pos{a}" for a in range(self.positions.shape[1])] \
                + [f"comp{a}" for a in range(self.comps.shape[1])]
            w.writerow(header)
            for k in range(self.params.shape[0]):
                row = [f"{v:.12e}" for v in self.params[k]] + \
                      [f"{v:.12e}" for v in self.positions[k]] + \
                      [f"{v:.12e}" for v in self.comps[k]]
                w.writerow(row)
