"""The decision layer: boundary inequality evaluation, the interior
plurisubharmonicity oracle, index estimation, the cutoff L2 bound, the
residual sequence, and the real-curve certificate.

The third-order term of the boundary inequality is evaluated covariantly:
pure third-derivative contraction plus the transport of the normal field's
coefficients (2 ||H conj(L)||^2), which is the value the inequality's proof
manipulates; dropping the transport would certify spurious exponents.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .distance import (delta_jet, foot_points, normal_n,
                       signed_distance_from_feet)
from .errors import (HypothesisFail, MeshOutside, NotACurve, PsiDomain,
                     TangencyUnresolved)
from .hermitian import hermitian_eigh
from .jets import DomainSpec, Jet, WirtingerJet, numeric_jet
from .levi import SigmaPointSet
from .sigma import SigmaChart, h_field, nu_field, nu_pairings
from .util import bump_c3, smoothstep_c3

# ---------------------------------------------------------------------------
# psi evaluators
# ---------------------------------------------------------------------------


class PsiBase:
    """psi evaluators are functions of the boundary foot point; evaluating
    at precomputed feet lets optimizer loops skip reprojection."""

    domain: DomainSpec

    def __call__(self, P):
        P = np.atleast_2d(np.asarray(P, dtype=float))
        feet, _ = foot_points(self.domain, P, ambiguity_check=False)
        return self.at_feet(feet)

    def at_feet(self, F):
        raise NotImplementedError


class ZeroPsi(PsiBase):
    def __init__(self, domain):
        self.domain = domain

    def __call__(self, P):
        return np.zeros(np.atleast_2d(P).shape[0])

    def at_feet(self, F):
        return np.zeros(np.atleast_2d(F).shape[0])


class ChartBasisPsi(PsiBase):
    """Truncated basis surface on chart coordinates of the degenerate set,
    extended by the collar operator (constant along foot fibers, C3 edge
    blend)."""

    def __init__(self, domain, coords_fn, basis_fns, coef, fade=(0.7, 0.98)):
        self.domain = domain
        self.coords_fn = coords_fn
        self.basis_fns = basis_fns
        self.coef = np.asarray(coef, dtype=float)
        self.fade = fade

    def with_coef(self, coef):
        return ChartBasisPsi(self.domain, self.coords_fn, self.basis_fns,
                             coef, self.fade)

    def at_feet(self, F):
        U, _, edge = self.coords_fn(np.atleast_2d(F))
        vals = np.zeros(U.shape[0])
        for c, fn in zip(self.coef, self.basis_fns):
            if c != 0.0:
                vals += c * fn(U)
        s = (np.clip(edge, 0, None) - self.fade[0]) / \
            max(self.fade[1] - self.fade[0], 1e-12)
        return vals * (1.0 - smoothstep_c3(s))


def _psi_values(psi, P):
    try:
        out = psi(P)
    except Exception as exc:  # noqa: BLE001 - map to the contract error
        raise PsiDomain(f"psi evaluation failed: {exc}") from exc
    out = np.asarray(out, dtype=float)
    if not np.all(np.isfinite(out)):
        raise PsiDomain("psi returned non-finite values")
    return out


def _realify(xi):
    out = np.empty(xi.shape[:-1] + (2 * xi.shape[-1],))
    out[..., 0::2] = xi.real
    out[..., 1::2] = xi.imag
    return out


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
        }


class CriterionEvaluator:
    """Precomputes the psi-independent data of the boundary inequality at
    the degenerate samples (order-3 jets, normal-Hessian values, covariant
    third-order terms); psi enters only through cheap stencil differences.
    """

    def __init__(self, domain: DomainSpec, sigma: SigmaPointSet, fd_h=None):
        self.domain = domain
        self.sigma = sigma
        self.fd_h = 1e-3 * domain.scale if fd_h is None else float(fd_h)
        self.K = sigma.size
        if self.K == 0:
            return
        P = sigma.points
        jet = delta_jet(domain, P, order=3)
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
        pure = np.array([
            complex(sub.at(i).third_directional(
                ( Ls[i], np.zeros_like(Ls[i]) ),
                ( Nsub[i], np.zeros_like(Nsub[i]) ),
                ( np.zeros_like(Ls[i]), np.conj(Ls[i]) ))[0])
            for i in range(len(self.dirs))])
        cols = np.einsum("kij,kj->ki", sub.mixed, np.conj(Ls))
        transport = 2.0 * np.einsum("ki,ki->k", cols, np.conj(cols)).real
        self.third_field = pure.real + transport   # imaginary part ~ 0
        self.third_imag = float(np.max(np.abs(pure.imag))) if len(pure) else 0.0
        self.Ls = Ls
        self.positions = P[idx]
        # stencil feet for psi derivatives, precomputed once
        D = 2 * domain.n
        h = self.fd_h
        X = _realify(Ls)
        JX = _realify(1j * Ls)
        stencils = [self.positions]
        for a in range(D):
            e = np.zeros(D)
            e[a] = h
            stencils.append(self.positions + e)
            stencils.append(self.positions - e)
        for V in (X, JX):
            stencils.append(self.positions + h * V)
            stencils.append(self.positions - h * V)
        allP = np.concatenate(stencils, axis=0)
        self.feet, _ = foot_points(domain, allP, ambiguity_check=False)
        self.n_stencil = len(stencils)

    def lhs(self, psi, eta):
        """Left-hand side per (sample, direction), max-reduced per sample."""
        if self.K == 0:
            return np.zeros(0)
        M = len(self.dirs)
        D = 2 * self.domain.n
        h = self.fd_h
        vals = _psi_values(psi.at_feet if isinstance(psi, PsiBase) else psi,
                           self.feet)
        blocks = vals.reshape(self.n_stencil, M)
        psi0 = blocks[0]
        grad = np.empty((M, D))
        for a in range(D):
            grad[:, a] = (blocks[1 + 2 * a] - blocks[2 + 2 * a]) / (2 * h)
        base = 1 + 2 * D
        d2x = (blocks[base] - 2 * psi0 + blocks[base + 1]) / h ** 2
        d2j = (blocks[base + 2] - 2 * psi0 + blocks[base + 3]) / h ** 2
        wpsi = 0.5 * (grad[:, 0::2] - 1j * grad[:, 1::2])
        lbar_psi = np.conj(np.einsum("kj,kj->k", self.Ls, wpsi))
        hess_psi = 0.25 * (d2x + d2j)
        coef = 1.0 / (1.0 - eta) - 1.0
        lhs_dir = coef * np.abs(0.5 * lbar_psi + self.h_L) ** 2 \
            + 0.5 * (0.5 * hess_psi + self.third_field)
        out = np.full(self.K, -np.inf)
        np.maximum.at(out, self.sample_index, lhs_dir)
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


def boundary_criterion(domain: DomainSpec, sigma: SigmaPointSet, psi, eta,
                       slack=None, fd_h=None, psi_name="") -> CriterionReport:
    """Evaluate the boundary inequality at every degenerate sample for every
    near-null direction; certified when the maximum is below the slack.
    Empty degenerate sets certify vacuously.
    """
    return CriterionEvaluator(domain, sigma, fd_h=fd_h).report(
        psi, eta, slack=slack, psi_name=psi_name)


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


def interior_psh_oracle(rho_jet_fn, eta, mesh, slack_rel=1e-9) -> OracleReport:
    """Positive-semidefiniteness of the complex Hessian of -(-rho)^eta.

    rho_jet_fn maps (B, 2n) points to an order-2 WirtingerJet of the
    candidate defining function; certified when every minimal eigenvalue is
    above -slack_rel * ||Hessian|| pointwise.
    """
    mesh = np.atleast_2d(np.asarray(mesh, dtype=float))
    jet = rho_jet_fn(mesh)
    rho = jet.value
    if np.any(rho >= 0):
        raise MeshOutside(f"{int((rho >= 0).sum())} mesh point(s) with "
                          "rho >= 0")
    v = jet.wgrad
    H = jet.mixed
    amp = eta * (-rho) ** (eta - 2.0)
    M = amp[:, None, None] * (
        (1.0 - eta) * np.einsum("ki,kj->kij", v, np.conj(v))
        + (-rho)[:, None, None] * H)
    w, _ = hermitian_eigh(M)
    lam = w[:, 0]
    norm = np.abs(M).reshape(M.shape[0], -1).max(axis=1)
    scaled = lam / np.maximum(norm, 1e-300)
    ok = bool(np.all(lam >= -slack_rel * np.maximum(norm, 1e-300)))
    return OracleReport(eta=float(eta), min_eig=float(lam.min()),
                        min_scaled=float(scaled.min()), certified=ok,
                        count=mesh.shape[0], slack_rel=float(slack_rel))


def delta_exp_psi_jet_fn(domain: DomainSpec, psi, h=None):
    """Order-2 jets of rho = delta * exp(psi) by finite differences of the
    composite (psi extended by zero outside its collar support).

    psi is a function of the foot point (it needs at_feet): each stencil
    node is projected once, and delta and psi both come from that foot.
    """
    h = 1e-3 * domain.scale if h is None else h

    def values(P):
        feet, _ = foot_points(domain, P, ambiguity_check=False)
        d = signed_distance_from_feet(domain, P, feet)
        return d * np.exp(_psi_values(psi.at_feet, feet))

    def fn(mesh):
        return numeric_jet(values, mesh, order=2, h=h)

    return fn


def oracle_jet_fn_from_rho(domain: DomainSpec):
    """Order-2 jets of the zoo's algebraic defining function (closed form)."""

    def fn(mesh):
        return domain.jet(np.atleast_2d(mesh), order=2)

    return fn


# ---------------------------------------------------------------------------
# index estimation
# ---------------------------------------------------------------------------

@dataclass
class IndexCertificate:
    eta_grid: list
    records: list              # per-eta dicts
    bound: float
    certified_any: bool
    diagnostics: dict = field(default_factory=dict)

    def to_json(self):
        return {
            "etaGrid": [float(e) for e in self.eta_grid],
            "records": self.records,
            "bound": float(self.bound),
            "diagnostics": self.diagnostics,
        }


DEFAULT_ETA_GRID = (0.5, 0.75, 0.9, 0.95, 0.99)


def estimate_index(domain: DomainSpec, sigma: SigmaPointSet, candidates,
                   oracle_fn, eta_grid=DEFAULT_ETA_GRID, slack=None,
                   diagnostics=None) -> IndexCertificate:
    """Largest eta on the grid certified by both the boundary criterion and
    the interior oracle, searching the candidate psi family.

    candidates: callable eta -> iterable of (name, psi).
    oracle_fn: callable (eta, psi) -> OracleReport.
    """
    ev = CriterionEvaluator(domain, sigma)
    records = []
    bound = 0.0
    any_ok = False
    for eta in sorted(eta_grid):
        entry = {"eta": float(eta), "certified": False, "psi": None,
                 "maxLHS": None, "oracleMinEig": None}
        for name, psi in candidates(eta):
            rep = ev.report(psi, eta, slack=slack, psi_name=name)
            entry["maxLHS"] = None if rep.vacuous else float(rep.max_lhs)
            if not rep.certified:
                continue
            orep = oracle_fn(eta, psi)
            entry["oracleMinEig"] = float(orep.min_eig)
            entry["oracleScaled"] = float(orep.min_scaled)
            if orep.certified:
                entry["certified"] = True
                entry["psi"] = name
                break
        records.append(entry)
        if entry["certified"]:
            bound = max(bound, float(eta))
            any_ok = True
    cert = IndexCertificate(eta_grid=list(sorted(eta_grid)), records=records,
                            bound=bound, certified_any=any_ok,
                            diagnostics=dict(diagnostics or {}))
    if not any_ok:
        cert.diagnostics.setdefault("reason", "no eta certified")
    return cert


def coordinate_descent(objective, x0, lo, hi, rounds=4, gold_iters=18):
    """Deterministic box-constrained coordinate descent with golden-section
    line searches; returns (x, value)."""
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

@dataclass
class PatchSpec:
    """Coordinate patch for the cutoff bound: a disc or box in C^m."""

    kind: str                  # "disc" | "box"
    radius: float = 1.0        # disc
    lo: np.ndarray | None = None
    hi: np.ndarray | None = None
    m: int = 1
    j: int = 0                 # distinguished complex direction
    w_frac: float = 0.5        # inner plateau fraction (W_p)
    v_frac: float = 0.8        # cutoff support fraction (V_p)


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


def _f_jets(f_eval, P, m):
    """(value, |dbar_j f|^2 per j, mixed diagonal) of a jet-generic scalar."""
    xs = Jet.variables(P, 2)
    out = f_eval(xs)
    g = out.g if out.g is not None else np.zeros((P.shape[0], 2 * m))
    h = out.h if out.h is not None else np.zeros((P.shape[0], 2 * m, 2 * m))
    jw = WirtingerJet(out.v, g, h)
    dbar = np.conj(jw.wgrad)     # d f / d zbar_j for real f
    mixed = jw.mixed
    return out.v, np.abs(dbar) ** 2, np.real(np.einsum("kjj->kj", mixed))


def caccioppoli_check(patch: PatchSpec, f_eval, n: int,
                      quad_points=512) -> CaccioppoliReport:
    """Verify the cutoff L2 bound: after screening the pointwise hypothesis
    n |dbar_j f|^2 + Hess_f(j, j) <= 0 on U_p, check
    integral_{W_p} |dbar_j f|^2 dV <= C(U_p) / n^2 with 1% slack,
    C(U_p) = integral 4 |d chi / dz_j|^2 dV for the C3 radial cutoff chi.
    """
    if patch.kind != "disc" or patch.m != 1:
        raise NotImplementedError("disc patches in C^1 are supported")
    R = patch.radius
    j = patch.j
    # hypothesis screening on a polar grid of U_p
    nr, na = 96, 128
    r = np.linspace(0, R, nr + 1)[1:]
    a = np.linspace(0, 2 * np.pi, na, endpoint=False)
    rr, aa = np.meshgrid(r, a, indexing="ij")
    P = np.stack([rr.ravel() * np.cos(aa.ravel()),
                  rr.ravel() * np.sin(aa.ravel())], axis=1)
    _, dbar2, mixed = _f_jets(f_eval, P, patch.m)
    hyp = n * dbar2[:, j] + mixed[:, j]
    hyp_max = float(hyp.max())
    if hyp_max > 1e-10:
        raise HypothesisFail(
            f"n|dbar f|^2 + Hess_f = {hyp_max:.3e} > 0 somewhere on the patch")

    # quadrature: radial Simpson x angular trapezoid (periodic)
    w_r = patch.w_frac * R
    v_r = patch.v_frac * R

    def radial_simpson(fn, r0, r1, steps):
        rr = np.linspace(r0, r1, 2 * steps + 1)
        wts = np.ones_like(rr)
        wts[1:-1:2] = 4.0
        wts[2:-1:2] = 2.0
        return (r1 - r0) / (6.0 * steps) * np.dot(wts, fn(rr))

    ang = np.linspace(0, 2 * np.pi, quad_points, endpoint=False)

    def mean_over_angle(rr):
        out = np.empty_like(rr)
        for i, rv in enumerate(rr):
            P = np.stack([rv * np.cos(ang), rv * np.sin(ang)], axis=1)
            _, dbar2, _ = _f_jets(f_eval, P, patch.m)
            out[i] = dbar2[:, j].mean()
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
# residual sequence
# ---------------------------------------------------------------------------

def residual_sequence(domain: DomainSpec, chart: SigmaChart, inner_frac,
                      etas, psi_producer, res=17, fd_h=None):
    """L1 integrals of |(1/2) Lbar psi_n + Hess_delta(N, L)| over a fixed
    compact sub-box of the chart, for the family psi_n = psi_producer(eta_n).

    Constant shifts of psi leave every residual unchanged (the family need
    not converge pointwise); the report carries the integrals only.
    """
    lo = chart.lo + (1 - inner_frac) / 2 * (chart.hi - chart.lo)
    hi = chart.hi - (1 - inner_frac) / 2 * (chart.hi - chart.lo)
    sub = SigmaChart(domain=chart.domain, kind=chart.kind, m=chart.m,
                     lo=lo, hi=hi, embed=chart.embed, tangent=chart.tangent,
                     leaf_label=chart.leaf_label, name=chart.name + "_inner")
    U, shape = sub.grid(res)
    P = sub.embed_batch(U)
    feet, _ = foot_points(domain, P, ambiguity_check=False)
    h = h_field(sub, U)[:, 0]
    Ls = sub.tangents(U)[:, 0, :]
    nrm = np.sqrt(np.einsum("kj,kj->k", Ls, np.conj(Ls)).real)
    Ls = Ls / nrm[:, None]
    h = h / nrm
    fd = 1e-3 * domain.scale if fd_h is None else fd_h
    D = 2 * domain.n
    stencil = [feet]
    for a in range(D):
        e = np.zeros(D)
        e[a] = fd
        stencil.append(feet + e)
        stencil.append(feet - e)
    allP = np.concatenate(stencil, axis=0)
    allF, _ = foot_points(domain, allP, ambiguity_check=False)

    # Simpson weights over the sub-box
    wts = np.ones(shape[0])
    wts[1:-1:2] = 4.0
    wts[2:-1:2] = 2.0
    w2 = np.outer(wts, wts).ravel() if len(shape) == 2 else wts
    cell = np.prod((hi - lo) / (np.array(shape) - 1)) / (3.0 ** len(shape))

    out = []
    for eta in etas:
        psi = psi_producer(eta)
        vals = _psi_values(psi.at_feet if isinstance(psi, PsiBase) else psi,
                           allF)
        blocks = vals.reshape(len(stencil), U.shape[0])
        grad = np.empty((U.shape[0], D))
        for a in range(D):
            grad[:, a] = (blocks[1 + 2 * a] - blocks[2 + 2 * a]) / (2 * fd)
        wpsi = 0.5 * (grad[:, 0::2] - 1j * grad[:, 1::2])
        lbar = np.conj(np.einsum("kj,kj->k", Ls, wpsi))
        integrand = np.abs(0.5 * lbar + h)
        out.append(float(np.dot(w2, integrand) * cell))
    return out


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


class CurvePsi(PsiBase):
    """The certificate's quadratic profile along the rotated tangent:
    psi(p + s J t) = s a(t) + s^2 b / 2, faded to zero off the curve."""

    def __init__(self, domain, chart, t_grid, a_grid, b, jdir_fn,
                 sigma_distance, width, param_fn=None):
        self.domain = domain
        self.chart = chart
        self.t_grid = t_grid
        self.a_grid = a_grid
        self.b = b
        self.jdir_fn = jdir_fn            # t -> unit J dt real vectors
        self.sigma_distance = sigma_distance
        self.width = width
        self.param_fn = param_fn          # feet -> curve parameter

    def at_feet(self, F):
        F = np.atleast_2d(F)
        if self.param_fn is not None:
            t = self.param_fn(F)
        else:
            t = np.mod(np.arctan2(F[:, 3], F[:, 2]), 2 * np.pi)
        gamma = self.chart.embed_batch(t[:, None])
        a = np.interp(t, self.t_grid, self.a_grid, period=2 * np.pi)
        jdir = self.jdir_fn(t)
        s = np.einsum("ka,ka->k", F - gamma, jdir)
        dist = self.sigma_distance(F)
        blend = bump_c3(dist / self.width)
        return (s * a + 0.5 * s * s * self.b) * blend


def real_curve_certify(domain: DomainSpec, curve: SigmaChart | None, eta,
                       slack=1e-8, samples=96, headroom=0.1,
                       fd_h=None) -> CurveReport:
    """Certificate for a one-real-dimensional degenerate set.

    Constructs psi with psi = 0 on the curve, J-derivative canceling
    g(nabla_nu nu, J dt), and second transversal derivative -2 C_eta - 1
    where C_eta bounds the sampled bracket with 10% headroom; then evaluates
    the certificate inequality at every curve sample.
    """
    if curve is None or curve.kind != "real" or curve.m != 1:
        raise NotACurve("the degenerate set is not a parametrized real curve")
    if domain.n != 2:
        raise NotACurve("the real-curve certificate applies in C^2")
    tg = np.linspace(curve.lo[0], curve.hi[0], samples, endpoint=False)
    U = tg[:, None]
    P = curve.embed_batch(U)
    feet, _ = foot_points(domain, P, ambiguity_check=False)
    jet = delta_jet(domain, feet, order=2)
    N = normal_n(jet)
    xi = curve.tangents(U)[:, 0, :]
    # classification of the tangent against the complex tangent space
    overlap = np.abs(np.einsum("kj,kj->k", xi, 2.0 * jet.wgrad))
    nrm = np.sqrt(np.einsum("kj,kj->k", xi, np.conj(xi)).real)
    rel = overlap / np.maximum(nrm, 1e-300)
    case = "parallel" if float(rel.max()) < 1e-3 else "transversal"
    # J dt nearly tangent to the curve would be outside both cases
    X = _realify(xi)
    JX = _realify(1j * xi)
    cosang = np.abs(np.einsum("ka,ka->k", X, JX)) / \
        np.maximum(np.einsum("ka,ka->k", X, X), 1e-300)
    if float(cosang.max()) > 0.99 and case == "transversal":
        raise TangencyUnresolved("rotated tangent nearly parallel to the "
                                 "curve while the tangent is not complex")
    g_t, g_j = nu_pairings(domain, jet, xi)
    a_vals = -g_j
    # D(t) = d/dt g(.,X) + D_{Jt} g(.,Jt): curve steps and ambient steps
    dt = tg[1] - tg[0]
    dgt = (np.roll(g_t, -1) - np.roll(g_t, 1)) / (2 * dt)
    fd = 1e-3 * domain.scale if fd_h is None else fd_h
    Jhat = JX / np.maximum(np.linalg.norm(JX, axis=1, keepdims=True), 1e-300)
    jet_p = delta_jet(domain, feet + fd * Jhat, order=2)
    jet_m = delta_jet(domain, feet - fd * Jhat, order=2)
    _, gj_p = nu_pairings(domain, jet_p, xi)
    _, gj_m = nu_pairings(domain, jet_m, xi)
    rate = np.linalg.norm(JX, axis=1) / (2 * fd)
    dgj = (gj_p - gj_m) * rate
    Dt = dgt + dgj
    coef = 1.0 / (1.0 - eta) - 1.0
    bracket = coef * g_t ** 2 + Dt
    C_eta = max((1.0 + headroom) * float(bracket.max()), 0.0) + slack + 1e-6
    b = -2.0 * C_eta - 1.0
    lhs = coef * g_t ** 2 + b + Dt
    mx = float(lhs.max())
    certified = bool(mx <= slack)
    return CurveReport(eta=float(eta), slack=float(slack),
                       certified=certified, case=case, C_eta=float(C_eta),
                       b=float(b), lhs=lhs, max_lhs=mx, a_values=a_vals,
                       t_values=tg, g_t=g_t,
                       meta={"max_bracket": float(bracket.max())})


def curve_psi_from_report(domain, curve, report: CurveReport,
                          sigma_distance, width=None,
                          param_fn=None) -> CurvePsi:
    """Collar evaluator for the certificate's psi (for cross-validation)."""
    def jdir_fn(t):
        xi = curve.tangents(np.asarray(t)[:, None])[:, 0, :]
        JX = _realify(1j * xi)
        return JX / np.maximum(np.linalg.norm(JX, axis=1, keepdims=True),
                               1e-300)

    width = 0.3 * domain.collar_width if width is None else width
    return CurvePsi(domain, curve, report.t_values, report.a_values,
                    report.b, jdir_fn, sigma_distance, width,
                    param_fn=param_fn)
