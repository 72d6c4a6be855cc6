"""The decision layer: boundary inequality evaluation, the interior
plurisubharmonicity oracle, index estimation, the cutoff L2 bound, and the
real-curve certificate.

The third-order term of the boundary inequality is evaluated covariantly:
pure third-derivative contraction plus the transport of the normal field's
coefficients (2 ||H conj(L)||^2), which is the value the inequality's proof
manipulates; dropping the transport would certify spurious exponents.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .distance import boundary_jet, normal_n
from .errors import (HypothesisFail, MeshOutside, NotACurve, PsiDomain,
                     TangencyUnresolved)
from .jets import DomainSpec, Jet, WirtingerJet, third_contraction
from .levi import SigmaPointSet
from .sigma import SigmaChart, nu_field, nu_pairings
from .util import bump_c3, complex_unpack

# ---------------------------------------------------------------------------
# psi evaluators
# ---------------------------------------------------------------------------
# A psi is a function of the boundary foot point, linear in fixed terms:
# psi = sum_i coef_i T_i.  The terms are one per-run object whose
# terms_at_feet(F) gives the (N, k) values T_i(F): the collar potential's or
# the family basis' ChartTerms, CurveTerms, or NO_TERMS for psi = 0.  Checks
# see the terms only at feet on PsiStencil's Taylor model of the foot map;
# each stencil differences a terms object once, and every psi over it
# combines those columns with its coef.

class Psi:
    """psi = sum_i coef_i T_i over a terms object."""

    def __init__(self, terms, coef):
        self.terms = terms
        self.coef = np.asarray(coef, dtype=float)


class _NoTerms:
    def terms_at_feet(self, F):
        return np.zeros((np.atleast_2d(F).shape[0], 0))


# the terms of psi = 0
NO_TERMS = _NoTerms()


def _term_values(terms, feet):
    """The terms' values (N, k) at the feet, all finite."""
    try:
        out = terms.terms_at_feet(feet)
    except Exception as exc:  # noqa: BLE001 - map to the contract error
        raise PsiDomain(f"psi evaluation failed: {exc}") from exc
    out = np.asarray(out, dtype=float)
    if not np.all(np.isfinite(out)):
        raise PsiDomain("psi returned non-finite values")
    return out


def combine(columns, coef):
    """sum_i coef_i columns_i of each array of PsiStencil.columns."""
    return tuple(c @ coef for c in columns)


# finite-difference step, in units of domain.scale, of the criterion's psi
# stencil; the interior oracle's stencils take it and its half
FD_STEP = 1e-3


class PsiStencil:
    """Feet of the psi-derivative stencil around M base points z: the base,
    z +- h e_a along each real axis, then z +- h V for each direction field
    V ((M, 2n), or (2n,) shared by every point), with h = step *
    domain.scale.  psi enters only through its terms' values at these feet:
    columns differences each terms object once, and every psi over those
    terms combines the columns with its coef.

    No node is projected.  jet is the signed distance's order-3 jet at the
    base points, and each node's foot lies on the second-order Taylor model of
    the nearest-point map p(z) = z - delta grad delta at z:
    p(z +- h u) ~ p +- h Dp u + h^2/2 D^2p(u, u), with n = grad delta,
    G = Hess delta, T its third tensor, Dp = I - n n^T - delta G and
    D^2p(u, u) = -(u^T G u) n - 2 (n.u) G u - delta T(., u, u).  The
    true foot's h^3 term cancels in central differences, so both
    differences keep an even error expansion with the exact limit of
    psi o p."""

    def __init__(self, domain: DomainSpec, base, jet: WirtingerJet,
                 dirs=(), step=FD_STEP):
        jet.need(3)
        self.h = h = step * domain.scale
        self.M, self.D = base.shape
        d, n, G, T = jet.value[:, None], jet.rgrad, jet.rhess, jet.rthird
        foot = base - d * n
        feet = [foot]
        for u in (*np.eye(self.D), *dirs):
            u = np.broadcast_to(u, base.shape)
            nu = np.einsum("ka,ka->k", n, u)[:, None]
            Gu = np.einsum("kab,kb->ka", G, u)
            Dpu = u - nu * n - d * Gu
            D2pu = -np.einsum("ka,ka->k", u, Gu)[:, None] * n - 2.0 * nu * Gu \
                - d * np.einsum("kabc,kb,kc->ka", T, u, u)
            mid = foot + 0.5 * h * h * D2pu
            feet += [mid + h * Dpu, mid - h * Dpu]
        self.feet = np.concatenate(feet, axis=0)
        self._columns = {}

    def columns(self, terms):
        """Central differences of each term, on a last axis of size k: (the
        terms at the base (M, k), d T_i / dz (M, n, k), the second
        differences along each real axis and then along each direction
        field (2n + len(dirs), M, k)); computed once per terms object."""
        if terms in self._columns:
            return self._columns[terms]
        vals = _term_values(terms, self.feet)
        blocks = vals.reshape(len(vals) // self.M, self.M, vals.shape[1])
        h, D = self.h, self.D
        grad = (blocks[1:2 * D:2] - blocks[2:2 * D + 1:2]) / (2 * h)
        wpsi = np.moveaxis(0.5 * (grad[0::2] - 1j * grad[1::2]), 0, 1)
        psi0 = blocks[0]
        second = (blocks[1::2] - 2 * psi0 + blocks[2::2]) / h ** 2
        self._columns[terms] = psi0, wpsi, second
        return psi0, wpsi, second


# ---------------------------------------------------------------------------
# boundary criterion
# ---------------------------------------------------------------------------

@dataclass
class CriterionReport:
    """Per-sample left-hand sides of the boundary inequality for one eta."""

    eta: float
    slack: float
    lhs: np.ndarray            # (K,) max over near-null directions
    max_lhs: float
    certified: bool
    vacuous: bool = False
    psi_name: str = ""
    meta: dict = field(default_factory=dict)

    def to_json(self):
        return {
            "eta": self.eta,
            "slack": self.slack,
            "maxLHS": None if self.vacuous else float(self.max_lhs),
            "certified": bool(self.certified),
            "vacuous": bool(self.vacuous),
            "psi": self.psi_name,
            "samples": int(self.lhs.shape[0]) if self.lhs is not None else 0,
            "thirdImag": self.meta.get("third_imag"),
        }


class CriterionEvaluator:
    """Precomputes the psi-independent data of the boundary inequality at
    the degenerate samples (order-3 jets, normal-Hessian values, covariant
    third-order terms); psi enters only through cheap stencil differences.

    psi's per-direction terms are linear in psi: columns(terms) gives them
    for each term as (G, Q), so psi = Psi(terms, c) has them as (G c, Q c),
    and lhs_dirs applies the inequality to those.  The stencil differences
    each terms object once, so lhs at another eta, or the family search
    over coefficients, combines cached columns.
    """

    def __init__(self, domain: DomainSpec, sigma: SigmaPointSet):
        self.domain = domain
        self.sigma = sigma
        self.K = sigma.size
        if self.K == 0:
            return
        P = sigma.points
        jet = boundary_jet(domain, P, order=3)
        N = normal_n(jet)
        self.dirs = []           # flat list of (sample index, L)
        for k in range(self.K):
            for L in sigma.null_directions[k]:
                self.dirs.append((k, L))
        idx = np.array([k for k, _ in self.dirs])
        Ls = np.stack([L for _, L in self.dirs])
        sub = jet.subset(idx)
        Nsub = N[idx]
        self.sample_index = idx
        self.h_L = np.einsum("kij,ki,kj->k", sub.mixed, Nsub, np.conj(Ls))
        pure = third_contraction(sub, Ls, Nsub, Ls)
        cols = np.einsum("kij,kj->ki", sub.mixed, np.conj(Ls))
        transport = 2.0 * np.einsum("ki,ki->k", cols, np.conj(cols)).real
        self.third_field = pure.real + transport   # imaginary part ~ 0
        self.third_imag = float(np.max(np.abs(pure.imag))) if len(pure) else 0.0
        self.Ls = Ls
        self.stencil = PsiStencil(
            domain, P[idx], sub, (complex_unpack(Ls), complex_unpack(1j * Ls)))

    def columns(self, terms):
        """(G, Q), directions x terms: each term's Lbar T_i and Hessian term
        1/4 (d^2 along L + d^2 along iL) per direction L."""
        _, wpsi, second = self.stencil.columns(terms)
        d2x, d2j = second[self.stencil.D:]
        return np.conj(np.einsum("kj,kjc->kc", self.Ls, wpsi)), \
            0.25 * (d2x + d2j)

    def lhs_dirs(self, lbar_psi, hess_psi, eta):
        """Left-hand side per direction from psi's terms."""
        coef = 1.0 / (1.0 - eta) - 1.0
        return coef * np.abs(0.5 * lbar_psi + self.h_L) ** 2 \
            + 0.5 * (0.5 * hess_psi + self.third_field)

    def lhs(self, psi, eta):
        """Left-hand side per (sample, direction), max-reduced per sample."""
        if self.K == 0:
            return np.zeros(0)
        G, Q = self.columns(psi.terms)
        out = np.full(self.K, -np.inf)
        np.maximum.at(out, self.sample_index,
                      self.lhs_dirs(G @ psi.coef, Q @ psi.coef, eta))
        return out

    def report(self, psi, eta, slack=None, psi_name="") -> CriterionReport:
        if slack is None:
            slack = 1e-4 * self.sigma.levi_scale
        if self.K == 0:
            return CriterionReport(eta=eta, slack=float(slack),
                                   lhs=np.zeros(0), max_lhs=float("nan"),
                                   certified=True, vacuous=True,
                                   psi_name=psi_name)
        lhs = self.lhs(psi, eta)
        mx = float(lhs.max())
        return CriterionReport(eta=eta, slack=float(slack), lhs=lhs,
                               max_lhs=mx, certified=bool(mx <= slack),
                               psi_name=psi_name,
                               meta={"third_imag": self.third_imag})


# ---------------------------------------------------------------------------
# interior oracle
# ---------------------------------------------------------------------------

@dataclass
class OracleReport:
    eta: float
    min_eig: float
    min_scaled: float          # min over mesh of lambda_min / ||M||
    certified: bool
    count: int
    slack_rel: float

    def to_json(self):
        return {"eta": self.eta, "minEig": self.min_eig,
                "minScaled": self.min_scaled, "certified": self.certified,
                "points": self.count, "slackRel": self.slack_rel}


def interior_psh_oracle(rho, wgrad, mixed, eta,
                        slack_rel=1e-9) -> OracleReport:
    """Positive-semidefiniteness of the complex Hessian of -(-rho)^eta.

    rho (B,), wgrad (B, n) and mixed (B, n, n) are the candidate defining
    function's values, Wirtinger gradients d rho / dz and mixed Hessians at
    the mesh points, as rho_terms gives them for rho = delta e^psi;
    certified when every minimal eigenvalue is above
    -slack_rel * ||Hessian|| pointwise.
    """
    if np.any(rho >= 0):
        raise MeshOutside(f"{int((rho >= 0).sum())} mesh point(s) with "
                          "rho >= 0")
    amp = eta * (-rho) ** (eta - 2.0)
    M = amp[:, None, None] * (
        (1.0 - eta) * np.einsum("ki,kj->kij", wgrad, np.conj(wgrad))
        + (-rho)[:, None, None] * mixed)
    lam = np.linalg.eigvalsh(M)[:, 0]
    norm = np.abs(M).reshape(M.shape[0], -1).max(axis=1)
    scaled = lam / np.maximum(norm, 1e-300)
    ok = bool(np.all(lam >= -slack_rel * np.maximum(norm, 1e-300)))
    return OracleReport(eta=float(eta), min_eig=float(lam.min()),
                        min_scaled=float(scaled.min()), certified=ok,
                        count=int(rho.shape[0]), slack_rel=float(slack_rel))


def _levi_fields(n):
    """Direction fields whose second differences, after the real axes',
    give psi's off-diagonal Levi entries: for each pair i < j the fields of
    L = e_i + e_j and L = e_i + i e_j, each followed by iL's."""
    fields = []
    for i in range(n):
        for j in range(i + 1, n):
            for c in (1.0, 1j):
                L = np.zeros(n, dtype=complex)
                L[i], L[j] = 1.0, c
                fields += [complex_unpack(L), complex_unpack(1j * L)]
    return fields


def oracle_stencils(domain: DomainSpec, mesh, delta: WirtingerJet):
    """psi's stencils around the oracle mesh at steps FD_STEP and
    FD_STEP / 2 (in units of domain.scale): the real axes and _levi_fields,
    17 nodes per mesh point and step in C^2.  delta is the signed
    distance's order-3 jet at the mesh; the nodes' feet come from its
    Taylor model of the foot map, so building the stencils projects
    nothing."""
    fields = _levi_fields(domain.n)
    return tuple(PsiStencil(domain, mesh, delta, fields, step)
                 for step in (FD_STEP, FD_STEP / 2))


def _psi_levi(second, n):
    """psi's Levi matrix (M, n, n) from the second differences of an
    oracle stencil, as the criterion takes it: q(L) = 1/4 (d^2_L + d^2_iL),
    so the axis pairs give H_ii, and q(e_i + e_j) = H_ii + H_jj + 2 Re H_ij,
    q(e_i + i e_j) = H_ii + H_jj + 2 Im H_ij."""
    q = 0.25 * (second[0::2] + second[1::2])
    H = np.zeros((second.shape[1], n, n), dtype=complex)
    H[:, range(n), range(n)] = q[:n].T
    k = n
    for i in range(n):
        for j in range(i + 1, n):
            diag = q[i] + q[j]
            H[:, i, j] = 0.5 * (q[k] - diag) + 0.5j * (q[k + 1] - diag)
            H[:, j, i] = np.conj(H[:, i, j])
            k += 2
    return H


def rho_terms(delta: WirtingerJet, diffs):
    """(value, Wirtinger gradient, mixed Hessian) of rho = delta e^psi at
    the oracle mesh, psi extended constantly along foot fibres.

    delta is the signed distance's order-3 jet at the mesh, of which only
    the order-2 blocks enter here; diffs holds psi's differences
    (psi0, wpsi, second) on each of oracle_stencils' two steps, as combine
    forms them from PsiStencil.columns.  psi's gradient and Levi matrix take
    one Richardson level over the two steps, and the product rule gives
    d dbar rho = e^psi (d dbar delta + d delta (x) dbar psi
    + d psi (x) dbar delta + delta (d dbar psi + d psi (x) dbar psi)).
    The stencils' feet follow the foot map's second-order Taylor model,
    whose differences have an even error expansion in h with the exact
    limit, so the Richardson level still removes the h^2 term.
    """
    (psi0, w1, s1), (_, w2, s2) = diffs
    wpsi = (4.0 * w2 - w1) / 3.0
    levi = _psi_levi((4.0 * s2 - s1) / 3.0, delta.n)
    e = np.exp(psi0)
    d, wd = delta.value, delta.wgrad
    value = d * e
    wgrad = e[:, None] * (wd + d[:, None] * wpsi)

    def outer(a, b):
        return np.einsum("ki,kj->kij", a, np.conj(b))

    mixed = e[:, None, None] * (
        delta.mixed + outer(wd, wpsi) + outer(wpsi, wd)
        + d[:, None, None] * (levi + outer(wpsi, wpsi)))
    return value, wgrad, mixed


# ---------------------------------------------------------------------------
# index estimation
# ---------------------------------------------------------------------------

@dataclass
class IndexCertificate:
    eta_grid: list
    records: list              # per-eta dicts
    bound: float
    diagnostics: dict = field(default_factory=dict)

    def to_json(self):
        return {
            "etaGrid": [float(e) for e in self.eta_grid],
            "records": self.records,
            "bound": float(self.bound),
            "diagnostics": self.diagnostics,
        }


DEFAULT_ETA_GRID = (0.5, 0.75, 0.9, 0.95, 0.99)


def coordinate_descent(objective, x0, lo, hi, rounds=4, gold_iters=18):
    """Deterministic box-constrained coordinate descent with golden-section
    line searches; returns (x, value).

    Known defect: a golden-section step that reuses fc or fd leaves xc or
    xd at its old coordinate, so the returned x may not score value."""
    gr = (np.sqrt(5.0) - 1.0) / 2.0
    x = np.asarray(x0, dtype=float).copy()
    best = objective(x)
    for _ in range(rounds):
        improved = False
        for k in range(x.size):
            a, b = lo[k], hi[k]
            c = b - gr * (b - a)
            d = a + gr * (b - a)
            xc = x.copy()
            xc[k] = c
            fc = objective(xc)
            xd = x.copy()
            xd[k] = d
            fd = objective(xd)
            for _ in range(gold_iters):
                if fc < fd:
                    b, d, fd = d, c, fc
                    c = b - gr * (b - a)
                    xc[k] = c
                    fc = objective(xc)
                else:
                    a, c, fc = c, d, fd
                    d = a + gr * (b - a)
                    xd[k] = d
                    fd = objective(xd)
            cand = xc if fc < fd else xd
            val = min(fc, fd)
            if val < best - 1e-15:
                x, best = cand.copy(), val
                improved = True
        if not improved:
            break
    return x, best


# ---------------------------------------------------------------------------
# cutoff L2 bound
# ---------------------------------------------------------------------------

# the cutoff bound's inner plateau W_p and cutoff support V_p, as fractions
# of the patch radius, and its angular quadrature nodes
W_FRAC = 0.5
V_FRAC = 0.8
QUAD_POINTS = 512


@dataclass
class PatchSpec:
    """Coordinate patch for the cutoff bound: the disc of this radius in C."""

    radius: float = 1.0


@dataclass
class CaccioppoliReport:
    n: int
    left: float                # integral over W_p of |dbar_j f|^2
    bound: float               # C(U_p) / n^2
    constant: float            # C(U_p)
    hypothesis_max: float
    ok: bool

    def to_json(self):
        return {"n": self.n, "left": self.left, "bound": self.bound,
                "constant": self.constant,
                "hypothesisMax": self.hypothesis_max, "ok": self.ok}


def _f_jets(f_eval, P):
    """(|dbar f|^2, Hess_f(z, z)) of a jet-generic real scalar on C."""
    xs = Jet.variables(P, 2)
    out = f_eval(xs)
    g = out.g if out.g is not None else np.zeros((P.shape[0], 2))
    h = out.h if out.h is not None else np.zeros((P.shape[0], 2, 2))
    jw = WirtingerJet(out.v, g, h)
    # |d f / d zbar| = |d f / dz| for real f
    return np.abs(jw.wgrad[:, 0]) ** 2, jw.mixed[:, 0, 0].real


def caccioppoli_check(patch: PatchSpec, f_eval, n: int) -> CaccioppoliReport:
    """Verify the cutoff L2 bound: after screening the pointwise hypothesis
    n |dbar f|^2 + Hess_f(z, z) <= 0 on U_p, check
    integral_{W_p} |dbar f|^2 dV <= C(U_p) / n^2 with 1% slack,
    C(U_p) = integral 4 |d chi / dz|^2 dV for the C3 radial cutoff chi.
    """
    R = patch.radius
    # hypothesis screening on a polar grid of U_p
    nr, na = 96, 128
    r = np.linspace(0, R, nr + 1)[1:]
    a = np.linspace(0, 2 * np.pi, na, endpoint=False)
    rr, aa = np.meshgrid(r, a, indexing="ij")
    P = np.stack([rr.ravel() * np.cos(aa.ravel()),
                  rr.ravel() * np.sin(aa.ravel())], axis=1)
    dbar2, mixed = _f_jets(f_eval, P)
    hyp = n * dbar2 + mixed
    hyp_max = float(hyp.max())
    if hyp_max > 1e-10:
        raise HypothesisFail(
            f"n|dbar f|^2 + Hess_f = {hyp_max:.3e} > 0 somewhere on the patch")

    # quadrature: radial Simpson x angular trapezoid (periodic)
    w_r = W_FRAC * R
    v_r = V_FRAC * R

    def radial_simpson(fn, r0, r1, steps):
        rr = np.linspace(r0, r1, 2 * steps + 1)
        wts = np.ones_like(rr)
        wts[1:-1:2] = 4.0
        wts[2:-1:2] = 2.0
        return (r1 - r0) / (6.0 * steps) * np.dot(wts, fn(rr))

    ang = np.linspace(0, 2 * np.pi, QUAD_POINTS, endpoint=False)

    def mean_over_angle(rr):
        out = np.empty_like(rr)
        for i, rv in enumerate(rr):
            P = np.stack([rv * np.cos(ang), rv * np.sin(ang)], axis=1)
            out[i] = _f_jets(f_eval, P)[0].mean()
        return out

    left = radial_simpson(lambda rr: 2 * np.pi * rr * mean_over_angle(rr),
                          0.0, w_r, 160)

    span = max(v_r - w_r, 1e-12)

    def chi_prime_sq(rr):
        s = (rr - w_r) / span
        ds = np.where((s > 0) & (s < 1),
                      (140.0 * np.clip(s, 0, 1) ** 3
                       * (1.0 - np.clip(s, 0, 1)) ** 3) / span, 0.0)
        return ds ** 2

    constant = radial_simpson(lambda rr: 2 * np.pi * rr * chi_prime_sq(rr),
                              w_r, v_r, 200)
    bound = constant / n ** 2
    ok = bool(left <= 0.99 * bound)
    return CaccioppoliReport(n=int(n), left=float(left), bound=float(bound),
                             constant=float(constant),
                             hypothesis_max=hyp_max, ok=ok)


# ---------------------------------------------------------------------------
# real-curve certificate
# ---------------------------------------------------------------------------

@dataclass
class CurveReport:
    eta: float
    slack: float
    certified: bool
    case: str                   # "transversal" | "parallel"
    C_eta: float
    b: float
    lhs: np.ndarray
    max_lhs: float
    a_values: np.ndarray
    t_values: np.ndarray
    g_t: np.ndarray
    meta: dict = field(default_factory=dict)

    def to_json(self):
        return {"eta": self.eta, "certified": self.certified,
                "case": self.case, "C_eta": self.C_eta, "b": self.b,
                "maxLHS": float(self.max_lhs), "slack": self.slack}


class CurveTerms:
    """The terms of the certificate's quadratic profile along the rotated
    tangent J t, (blend s a(t), blend s^2 / 2) at p + s J t, with blend
    fading them to zero off the curve, over a curve_geometry (or a
    CurveReport, which carries its t and a values).  The certificate's psi
    s a(t) + s^2 b / 2 is Psi(terms, (1, b)): only b depends on eta, so the
    psi of every eta shares one CurveTerms."""

    def __init__(self, domain, curve, geometry, sigma_distance, width=None):
        self.curve = curve
        self.t_grid, self.a_grid = geometry.t_values, geometry.a_values
        self.sigma_distance = sigma_distance
        self.width = 0.3 * domain.collar_width if width is None else width

    def terms_at_feet(self, F):
        F = np.atleast_2d(F)
        t = np.mod(np.arctan2(F[:, 3], F[:, 2]), 2 * np.pi)
        gamma = self.curve.embed_batch(t[:, None])
        a = np.interp(t, self.t_grid, self.a_grid, period=2 * np.pi)
        JX = complex_unpack(1j * self.curve.tangents(t[:, None])[:, 0, :])
        jdir = JX / np.maximum(np.linalg.norm(JX, axis=1, keepdims=True),
                               1e-300)
        s = np.einsum("ka,ka->k", F - gamma, jdir)
        blend = bump_c3(self.sigma_distance(F) / self.width)
        return np.stack([s * a * blend, 0.5 * s * s * blend], axis=1)


# curve samples of the real-curve certificate, and the relative headroom of
# its bound C_eta over the sampled bracket
CURVE_SAMPLES = 96
CURVE_HEADROOM = 0.1


@dataclass
class CurveGeometry:
    """The real-curve certificate's eta-independent data at its curve
    samples t: the tangent's case, g_t = g(nabla_nu nu, dt), the profile's
    slopes a(t) = -g(nabla_nu nu, J dt) and
    D(t) = d/dt g(., X) + D_{Jt} g(., Jt)."""

    case: str                   # "transversal" | "parallel"
    t_values: np.ndarray
    g_t: np.ndarray
    a_values: np.ndarray
    Dt: np.ndarray


def curve_geometry(domain: DomainSpec,
                   curve: SigmaChart | None) -> CurveGeometry:
    """The geometry step of real_curve_certify, whatever the eta, from one
    order-3 delta-jet at the curve samples, which lie on the boundary and
    are their own feet: nothing is projected, and the ambient derivative of
    g(nabla_nu nu, J dt) along J dt is exact."""
    if curve is None or curve.kind != "real" or curve.m != 1:
        raise NotACurve("the degenerate set is not a parametrized real curve")
    if domain.n != 2:
        raise NotACurve("the real-curve certificate applies in C^2")
    tg = np.linspace(curve.lo[0], curve.hi[0], CURVE_SAMPLES, endpoint=False)
    U = tg[:, None]
    P = curve.embed_batch(U)
    jet = boundary_jet(domain, P, order=3)
    xi = curve.tangents(U)[:, 0, :]
    # classification of the tangent against the complex tangent space
    overlap = np.abs(np.einsum("kj,kj->k", xi, 2.0 * jet.wgrad))
    nrm = np.sqrt(np.einsum("kj,kj->k", xi, np.conj(xi)).real)
    rel = overlap / np.maximum(nrm, 1e-300)
    case = "parallel" if float(rel.max()) < 1e-3 else "transversal"
    # J dt nearly tangent to the curve would be outside both cases
    X = complex_unpack(xi)
    JX = complex_unpack(1j * xi)
    cosang = np.abs(np.einsum("ka,ka->k", X, JX)) / \
        np.maximum(np.einsum("ka,ka->k", X, X), 1e-300)
    if float(cosang.max()) > 0.99 and case == "transversal":
        raise TangencyUnresolved("rotated tangent nearly parallel to the "
                                 "curve while the tangent is not complex")
    g_t, g_j = nu_pairings(jet, xi)
    # D(t): curve steps, and the exact derivative along JX of nu_field,
    # which is bilinear in delta's gradient and Hessian
    dt = tg[1] - tg[0]
    dgt = (np.roll(g_t, -1) - np.roll(g_t, 1)) / (2 * dt)
    H = jet.rhess
    Hv = np.einsum("kab,kb->ka", H, JX)
    Tv = np.einsum("kabc,kc->kab", jet.rthird, JX)
    dw = nu_field(WirtingerJet(jet.value, Hv, H)) \
        + nu_field(WirtingerJet(jet.value, jet.rgrad, Tv))
    dgj = np.einsum("kj,kj->k", np.conj(xi), dw).imag
    return CurveGeometry(case=case, t_values=tg, g_t=g_t, a_values=-g_j,
                         Dt=dgt + dgj)


def real_curve_certify(geometry: CurveGeometry, eta,
                       slack=None) -> CurveReport:
    """Certificate for a one-real-dimensional degenerate set, from its
    curve_geometry.

    Constructs psi with psi = 0 on the curve, J-derivative canceling
    g(nabla_nu nu, J dt), and second transversal derivative -2 C_eta - 1
    where C_eta bounds the sampled bracket with CURVE_HEADROOM; then
    evaluates the certificate inequality at every curve sample.  slack
    defaults to 1e-8.
    """
    if slack is None:
        slack = 1e-8
    g_t, Dt = geometry.g_t, geometry.Dt
    coef = 1.0 / (1.0 - eta) - 1.0
    bracket = coef * g_t ** 2 + Dt
    C_eta = max((1.0 + CURVE_HEADROOM) * float(bracket.max()), 0.0) \
        + slack + 1e-6
    b = -2.0 * C_eta - 1.0
    lhs = coef * g_t ** 2 + b + Dt
    mx = float(lhs.max())
    certified = bool(mx <= slack)
    return CurveReport(eta=float(eta), slack=float(slack),
                       certified=certified, case=geometry.case,
                       C_eta=float(C_eta), b=float(b), lhs=lhs, max_lhs=mx,
                       a_values=geometry.a_values,
                       t_values=geometry.t_values, g_t=g_t,
                       meta={"max_bracket": float(bracket.max())})
