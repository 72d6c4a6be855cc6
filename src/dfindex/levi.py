"""Restricted Levi forms and degenerate-set detection."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .distance import BoundaryBatch, BoundaryPoint, boundary_batch
from .errors import NotPseudoconvex
from .jets import DomainSpec


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


def levi_matrix(jet, N, frames=None):
    """Restricted Levi matrix of the delta-jet on the tangent frame."""
    if frames is None:
        frames = tangent_frames(N)
    H = jet.mixed
    return np.einsum("kij,kai,kbj->kab", H, frames, np.conj(frames)), frames


def levi_spectrum(batch: BoundaryBatch):
    """(eigenvalues (B, n-1) ascending, eigenvectors, frames) for a batch."""
    M, frames = levi_matrix(batch.jet, batch.N)
    w, V = np.linalg.eigh(M)
    return w, V, frames


def levi_min_via_rho(domain: DomainSpec, P):
    """Minimal restricted Levi eigenvalue via the defining function.

    On the boundary, Hess_delta(X, Y) = Hess_rho(X, Y)/|grad rho| for
    tangent X, Y, so the restricted Levi spectrum can be evaluated from
    forward-mode jets of rho exactly, without a projection; used for
    pseudoconvexity alarms.
    """
    P = np.atleast_2d(np.asarray(P, dtype=float))
    jet = domain.jet(P, order=2)
    w = jet.wgrad
    s = np.sqrt(np.einsum("kj,kj->k", w, np.conj(w)).real)
    N = np.conj(w) / np.maximum(s[:, None], 1e-300)
    M, _ = levi_matrix(jet, N)
    M = M / (2.0 * s)[:, None, None]
    return np.linalg.eigvalsh(M)[:, 0]


@dataclass
class SigmaPointSet:
    """Boundary points with nearly-degenerate Levi forms."""

    domain: DomainSpec
    points: np.ndarray           # (K, 2n)
    lambda_min: np.ndarray       # (K,)
    null_directions: list        # per point: (k_i, n) near-null tangent dirs
    batch: BoundaryBatch         # jets of the members (order 2)
    threshold: float
    levi_scale: float            # median positive eigenvalue over the mesh
    mesh_pitch: float
    negative_count: int = 0
    meta: dict = field(default_factory=dict)

    @property
    def size(self):
        return self.points.shape[0]

    def point(self, i) -> BoundaryPoint:
        return self.batch.point(i)


def _pitch_estimate(P, rng_seed=0, sample=256):
    B = P.shape[0]
    if B < 2:
        return 0.0
    idx = np.random.default_rng(rng_seed).choice(B, size=min(sample, B),
                                                 replace=False)
    d = np.linalg.norm(P[idx][:, None, :] - P[None, :, :], axis=2)
    d[np.arange(len(idx)), idx] = np.inf
    return float(np.median(d.min(axis=1)))


def detect_sigma(domain: DomainSpec, mesh, threshold=None,
                 order=2) -> SigmaPointSet:
    """All mesh points whose minimal restricted Levi eigenvalue is below the
    threshold, with their near-null directions.

    Default threshold: 1e-6 x (median positive eigenvalue over the mesh).
    Raises NotPseudoconvex when eigenvalues below -threshold appear.
    """
    mesh = np.atleast_2d(np.asarray(mesh, dtype=float))
    batch = boundary_batch(domain, mesh, order=order)
    w, V, frames = levi_spectrum(batch)
    lam_min = w[:, 0]
    pos = w[w > 0]
    levi_scale = float(np.median(pos)) if pos.size else 1.0
    if threshold is None:
        threshold = 1e-6 * levi_scale
    # alarm on the exact defining-function route (tangent-pair identity)
    lam_exact = levi_min_via_rho(domain, batch.positions)
    neg = int(np.sum(lam_exact < -threshold))
    if neg:
        raise NotPseudoconvex(
            f"{neg} boundary sample(s) with Levi eigenvalue < -{threshold:.2e}"
            f" (min {float(lam_exact.min()):.3e})")
    keep = np.flatnonzero(lam_exact < threshold)
    nulls = []
    for k in keep:
        kk = int(np.sum(w[k] < threshold))
        dirs = np.einsum("ak,an->kn", V[k][:, :max(kk, 1)], frames[k])
        nulls.append(dirs)
    member_batch = batch.subset(keep)
    sub = SigmaPointSet(
        domain=domain,
        points=batch.positions[keep],
        lambda_min=lam_min[keep],
        null_directions=nulls,
        batch=member_batch,
        threshold=float(threshold),
        levi_scale=levi_scale,
        mesh_pitch=_pitch_estimate(mesh),
        negative_count=neg,
    )
    return sub
