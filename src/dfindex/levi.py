"""Restricted Levi forms, degenerate-set detection, and the second/third
order terms entering the boundary inequality."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .distance import BoundaryBatch, BoundaryPoint, boundary_batch
from .errors import NotDegenerate, NotPseudoconvex, OrderTooLow
from .hermitian import hermitian_eigh
from .jets import DomainSpec, third_contraction


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


@dataclass
class LeviDecomposition:
    """Tangent frame, restricted Levi matrix and its spectrum at one point."""

    frame: np.ndarray        # (n-1, n) rows are the tangent frame vectors
    levi: np.ndarray         # (n-1, n-1) Hermitian
    eigenvalues: np.ndarray  # ascending
    eigenvectors: np.ndarray
    null_direction: np.ndarray  # (n,) tangent vector attaining lambda_min

    @property
    def lambda_min(self):
        return float(self.eigenvalues[0])

    def directions(self, k=None):
        """Tangent directions for the k smallest eigenvalues (default all)."""
        k = self.eigenvalues.shape[0] if k is None else k
        return np.einsum("ak,an->kn", self.eigenvectors[:, :k], self.frame)


def levi_decompose(bp: BoundaryPoint) -> LeviDecomposition:
    M, frames = levi_matrix(bp.jet, bp.N[None])
    w, V = hermitian_eigh(M)
    frame = frames[0]
    null = np.einsum("a,an->n", V[0][:, 0], frame)
    return LeviDecomposition(frame=frame, levi=M[0], eigenvalues=w[0],
                             eigenvectors=V[0], null_direction=null)


def levi_spectrum(batch: BoundaryBatch):
    """(eigenvalues (B, n-1) ascending, eigenvectors, frames) for a batch."""
    M, frames = levi_matrix(batch.jet, batch.N)
    w, V = hermitian_eigh(M)
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
    wmin, _ = hermitian_eigh(M)
    return wmin[:, 0]


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


def mixed_term(bp: BoundaryPoint, L) -> complex:
    """Hess_delta(N, L) by jet contraction."""
    return complex(bp.jet.hess(bp.N, np.asarray(L, dtype=complex))[0])


def third_term(bp: BoundaryPoint, L) -> complex:
    """Pure third-derivative contraction along (L, N, conj L)."""
    if bp.jet.order < 3:
        raise OrderTooLow("third_term needs an order-3 delta-jet")
    return complex(third_contraction(bp.jet, L, bp.N, L)[0])


def third_term_field(bp: BoundaryPoint, L) -> complex:
    """Third-order term with the normal field's coefficient transport.

    The normal field has coefficients 2*conj(d delta/dz); differentiating it
    along L adds 2*||H conj(L)||^2 to the pure contraction (H the ambient
    mixed Hessian of delta).  This is the covariant value the boundary
    inequality uses.
    """
    L = np.asarray(L, dtype=complex)
    H = bp.jet.mixed[0]
    col = H @ np.conj(L)
    return third_term(bp, L) + 2.0 * float(np.vdot(col, col).real)


def null_cross_residual(bp: BoundaryPoint, L, frame, threshold) -> float:
    """max_j |Hess_delta(L, T_j)| over the frame vectors orthogonal to the
    null direction L; must vanish at degenerate points.
    """
    L = np.asarray(L, dtype=complex)
    lev = abs(complex(bp.jet.hess(L, L)[0]))
    if lev > threshold:
        raise NotDegenerate(
            f"Levi value {lev:.3e} above threshold {threshold:.3e}")
    frame = np.atleast_2d(np.asarray(frame, dtype=complex))
    vals = []
    for T in frame:
        overlap = abs(complex(np.vdot(L, T)))
        if overlap > 1.0 - 1e-8:
            continue
        vals.append(abs(complex(bp.jet.hess(L, T)[0])))
    return max(vals) if vals else 0.0
