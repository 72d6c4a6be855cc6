"""The Levi form in C^2 and degenerate-set detection.

The complex tangent space of a boundary in C^2 is one line, spanned by one
tangent direction L, so the restricted Levi form is the scalar
Hess_delta(L, conj L) and its null direction at a degenerate point is L.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .distance import boundary_jet, normal_n
from .errors import NotPseudoconvex
from .jets import DomainSpec, WirtingerJet
from .util import median

# detect_sigma's noise floor, relative to the mesh's largest |Levi value|
LEVI_NOISE = 1e-9


def tangent_direction(N):
    """The unit (1,0) tangent direction L (B, 2) orthogonal to the unit
    normal coefficients N (B, 2), batched: the coordinate axis with the
    smaller |N_k| (the second on ties), minus its N-component, normalised.
    Unit coefficients give the Levi value the scale of the ambient
    mixed-Hessian entries."""
    N = np.atleast_2d(np.asarray(N, dtype=complex))
    j = (np.abs(N[:, 0]) >= np.abs(N[:, 1])).astype(int)
    t = np.eye(2, dtype=complex)[j] \
        - np.conj(N[np.arange(len(N)), j])[:, None] * N
    nrm = np.sqrt(np.einsum("kj,kj->k", t, np.conj(t)).real)
    return t / nrm[:, None]


def levi_spectrum(jet: WirtingerJet):
    """(Levi value lambda (B,), tangent direction L (B, 2)) of a boundary
    delta-jet: its mixed Hessian on the tangent direction of its normal
    field N.  In C^2 the complex tangent space is the line of L, so lambda
    is the whole restricted Levi form."""
    L = tangent_direction(normal_n(jet))
    lam = np.einsum("kij,ki,kj->k", jet.mixed, L, np.conj(L)).real
    return lam, L


@dataclass
class SigmaPointSet:
    """Boundary points with nearly-degenerate Levi forms."""

    points: np.ndarray           # (K, 4)
    lambda_min: np.ndarray       # (K,) Levi values
    null_directions: np.ndarray  # (K, 2) the tangent directions L
    threshold: float
    levi_scale: float            # median Levi value above the noise floor

    @property
    def size(self):
        return self.points.shape[0]


def mesh_pitch(P):
    """Median nearest-neighbour distance from up to 256 random mesh points
    (drawn with seed 0) to the rest of the mesh."""
    B = P.shape[0]
    if B < 2:
        return 0.0
    idx = np.random.default_rng(0).choice(B, size=min(256, B), replace=False)
    d = np.linalg.norm(P[idx][:, None, :] - P[None, :, :], axis=2)
    d[np.arange(len(idx)), idx] = np.inf
    return float(median(d.min(axis=1)))


def detect_sigma(domain: DomainSpec, mesh, threshold) -> SigmaPointSet:
    """All mesh points whose Levi value is below the threshold, with their
    tangent directions, which are the null directions there.

    The mesh lies on the boundary, so its points are their own feet
    (distance.boundary_jet) and nothing is projected.  The restricted Levi
    value of their delta-jets decides both the membership (below threshold)
    and the NotPseudoconvex alarm.  The alarm is raised where the Levi
    value is below -threshold and below -LEVI_NOISE x the point's largest
    |complex Hessian entry|, so that rounding at points where delta's
    Hessian is large (the worm's inner rim at large beta) does not count as
    negative.  A threshold of None stands for 1e-6 x levi_scale, the median
    Levi value above the noise floor LEVI_NOISE x max |Levi value|, so that
    rounding-level values on Sigma do not count as positive.
    """
    mesh = np.atleast_2d(np.asarray(mesh, dtype=float))
    jet = boundary_jet(domain, mesh, order=2)
    lam, L = levi_spectrum(jet)
    pos = lam[lam > LEVI_NOISE * np.max(np.abs(lam), initial=0.0)]
    levi_scale = float(median(pos)) if pos.size else 1.0
    if threshold is None:
        threshold = 1e-6 * levi_scale
    low = np.flatnonzero(lam < -threshold)
    rounding = LEVI_NOISE * np.max(np.abs(jet.subset(low).mixed), axis=(1, 2))
    neg = int(np.sum(lam[low] < -rounding))
    if neg:
        raise NotPseudoconvex(
            f"{neg} boundary sample(s) with Levi eigenvalue < -{threshold:.2e}"
            f" (min {float(lam.min()):.3e})")
    keep = np.flatnonzero(lam < threshold)
    return SigmaPointSet(
        points=mesh[keep],
        lambda_min=lam[keep],
        null_directions=L[keep],
        threshold=float(threshold),
        levi_scale=levi_scale,
    )
