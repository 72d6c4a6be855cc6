"""Restricted Levi forms and degenerate-set detection."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .distance import boundary_jet, normal_n
from .errors import NotPseudoconvex
from .jets import DomainSpec, WirtingerJet
from .util import median

# detect_sigma's noise floor, relative to the mesh's largest |eigenvalue|
LEVI_NOISE = 1e-9


def tangent_frames(N):
    """Deterministic orthonormal (1,0) tangent frames, batched.

    Seeds are the coordinate axes ordered by descending |N_k| with the
    largest excluded, Gram-Schmidt'ed against N and each other; unit
    coefficient vectors, so restricted Levi eigenvalues carry the same scale
    as ambient mixed-Hessian entries.
    """
    N = np.atleast_2d(np.asarray(N, dtype=complex))
    B, n = N.shape
    order = np.argsort(-np.abs(N), axis=1, kind="stable")
    frames = np.zeros((B, n - 1, n), dtype=complex)
    basis = np.eye(n, dtype=complex)
    for a in range(n - 1):
        seed = basis[order[:, a + 1]]
        t = seed - np.einsum("kj,kj->k", seed, np.conj(N))[:, None] * N
        for b in range(a):
            prev = frames[:, b, :]
            t = t - np.einsum("kj,kj->k", t, np.conj(prev))[:, None] * prev
        nrm = np.sqrt(np.einsum("kj,kj->k", t, np.conj(t)).real)
        frames[:, a, :] = t / nrm[:, None]
    return frames


def levi_matrix(jet, N):
    """(restricted Levi matrix of the delta-jet on the tangent frames of N,
    the frames)."""
    frames = tangent_frames(N)
    H = jet.mixed
    return np.einsum("kij,kai,kbj->kab", H, frames, np.conj(frames)), frames


def levi_spectrum(jet: WirtingerJet):
    """(eigenvalues (B, n-1) ascending, eigenvectors, frames) of a
    boundary delta-jet's restricted Levi matrix, on the frames of its
    normal field N."""
    M, frames = levi_matrix(jet, normal_n(jet))
    w, V = np.linalg.eigh(M)
    return w, V, frames


@dataclass
class SigmaPointSet:
    """Boundary points with nearly-degenerate Levi forms, with the members'
    order-2 delta-jet (jet) from the scan; normal_n(jet) gives their N."""

    domain: DomainSpec
    points: np.ndarray           # (K, 2n)
    lambda_min: np.ndarray       # (K,)
    null_directions: list        # per point: (k_i, n) near-null tangent dirs
    jet: WirtingerJet            # the members' order-2 delta-jet
    threshold: float
    levi_scale: float            # median eigenvalue above the noise floor

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


def detect_sigma(domain: DomainSpec, mesh, threshold=None) -> SigmaPointSet:
    """All mesh points whose minimal restricted Levi eigenvalue is below the
    threshold, with their near-null directions.

    The mesh lies on the boundary, so its points are their own feet
    (distance.boundary_jet) and nothing is projected.  The restricted Levi
    spectrum of their delta-jets decides, by its smallest eigenvalue, both the
    membership (below threshold) and the NotPseudoconvex alarm.  The alarm
    is raised where the smallest eigenvalue is below -threshold and below
    -LEVI_NOISE x the point's largest |complex Hessian entry|, so that
    rounding at points where delta's Hessian is large (the worm's inner rim
    at large beta) does not count as negative.  Default threshold: 1e-6 x
    levi_scale, the median eigenvalue above the noise floor LEVI_NOISE x
    max |eigenvalue|, so that rounding-level values on Sigma do not count
    as positive.
    """
    mesh = np.atleast_2d(np.asarray(mesh, dtype=float))
    jet = boundary_jet(domain, mesh, order=2)
    w, V, frames = levi_spectrum(jet)
    lam_min = w[:, 0]
    pos = w[w > LEVI_NOISE * np.max(np.abs(w), initial=0.0)]
    levi_scale = float(median(pos)) if pos.size else 1.0
    if threshold is None:
        threshold = 1e-6 * levi_scale
    low = np.flatnonzero(lam_min < -threshold)
    rounding = LEVI_NOISE * np.max(np.abs(jet.subset(low).mixed), axis=(1, 2))
    neg = int(np.sum(lam_min[low] < -rounding))
    if neg:
        raise NotPseudoconvex(
            f"{neg} boundary sample(s) with Levi eigenvalue < -{threshold:.2e}"
            f" (min {float(lam_min.min()):.3e})")
    keep = np.flatnonzero(lam_min < threshold)
    nulls = []
    for k in keep:
        kk = int(np.sum(w[k] < threshold))
        dirs = np.einsum("ak,an->kn", V[k][:, :max(kk, 1)], frames[k])
        nulls.append(dirs)
    return SigmaPointSet(
        domain=domain,
        points=mesh[keep],
        lambda_min=lam_min[keep],
        null_directions=nulls,
        jet=jet.subset(keep),
        threshold=float(threshold),
        levi_scale=levi_scale,
    )
