"""The decision layer: boundary inequality evaluation, the interior
plurisubharmonicity oracle, index estimation, and the real-curve
certificate.

Everything is taken in C^2, where the complex tangent space is one line:
the boundary inequality is evaluated along each degenerate sample's one
tangent direction L, and psi's Levi matrix is the 2 x 2 complex Hessian.

The third-order term of the boundary inequality is evaluated covariantly:
pure third-derivative contraction plus the transport of the normal field's
coefficients (2 ||H conj(L)||^2), which is the value the inequality's proof
manipulates; dropping the transport would certify spurious exponents.
"""

from __future__ import annotations

import numpy as np

from .distance import boundary_jet, normal_n
from .errors import MeshOutside, NotACurve, PsiDomain
from .jets import DomainSpec, WirtingerJet, third_contraction
from .levi import SigmaPointSet
from .sigma import SigmaChart, nu_field, nu_pairings
from .util import bump_c3, complex_unpack

# ---------------------------------------------------------------------------
# psi evaluators
# ---------------------------------------------------------------------------
# A psi is a function of the boundary foot point, linear in fixed terms:
# psi = sum_i coef_i T_i.  The terms are one per-run object whose
# terms_at_feet(F) gives the (N, k) values T_i(F): the collar potential's or
# the family basis' ChartTerms, the CurveCertificate, or NO_TERMS for
# psi = 0.  Checks see the terms only at feet on PsiStencil's Taylor model of
# the foot map; each stencil differences a terms object once, and every psi
# over it combines those columns with its coef.

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

    def __init__(self, domain: DomainSpec, base, jet: WirtingerJet, dirs,
                 step):
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

class CriterionEvaluator:
    """Precomputes the psi-independent data of the boundary inequality at
    the degenerate samples (order-3 jets, normal-Hessian values, covariant
    third-order terms); psi enters only through cheap stencil differences.

    psi's per-sample terms are linear in psi: columns(terms) gives them
    for each term as (G, Q), so psi = Psi(terms, c) has them as (G c, Q c),
    and lhs_dirs applies the inequality to those.  The stencil differences
    each terms object once, so lhs at another eta, or the family search
    over coefficients, combines cached columns.  The columns carry the
    inequality's factors 1/2 and 1/4, and half_third is 1/2 third_field,
    so lhs_dirs adds them without a factor; the factors are powers of two,
    so the scaling is exact and moves no bit of the left-hand side.
    """

    def __init__(self, domain: DomainSpec, sigma: SigmaPointSet):
        self.sigma = sigma
        self.K = sigma.size
        if self.K == 0:
            return
        P = sigma.points
        jet = boundary_jet(domain, P, order=3)
        N = normal_n(jet)
        L = self.L = sigma.null_directions
        self.h_L = np.einsum("kij,ki,kj->k", jet.mixed, N, np.conj(L))
        pure = third_contraction(jet, L, N, L)
        cols = np.einsum("kij,kj->ki", jet.mixed, np.conj(L))
        transport = 2.0 * np.einsum("ki,ki->k", cols, np.conj(cols)).real
        self.third_field = pure.real + transport   # imaginary part ~ 0
        self.half_third = 0.5 * self.third_field
        self.third_imag = float(np.max(np.abs(pure.imag)))
        self.stencil = PsiStencil(
            domain, P, jet, (complex_unpack(L), complex_unpack(1j * L)),
            FD_STEP)

    def columns(self, terms):
        """(G, Q), samples x terms, scaled for lhs_dirs: G = 1/2 Lbar T_i and
        Q = 1/4 T_{i,L Lbar}, with the Hessian term T_{L Lbar} = 1/4 (d^2
        along L + d^2 along iL), at each sample's direction L."""
        _, wpsi, second = self.stencil.columns(terms)
        d2x, d2j = second[self.stencil.D:]
        return 0.5 * np.conj(np.einsum("kj,kjc->kc", self.L, wpsi)), \
            0.0625 * (d2x + d2j)

    def lhs_dirs(self, g, q, eta):
        """Left-hand side per sample, a |g + h_L|^2 + (q + 1/2 third_field)
        with a = eta / (1 - eta), from psi's scaled terms (g, q) = (G c,
        Q c) of columns: the inequality a |1/2 Lbar psi + h_L|^2 + 1/2 (1/4
        psi_{L Lbar} + third_field), bit for bit."""
        out = np.abs(g + self.h_L) ** 2
        out *= 1.0 / (1.0 - eta) - 1.0
        out += q + self.half_third
        return out

    def lhs(self, psi, eta):
        """Left-hand side per sample, along its direction L."""
        if self.K == 0:
            return np.zeros(0)
        G, Q = self.columns(psi.terms)
        return self.lhs_dirs(G @ psi.coef, Q @ psi.coef, eta)

    def report(self, psi, eta, slack, psi_name):
        """The boundary inequality's report at eta: {eta, slack, maxLHS (the
        largest left-hand side over the samples), certified (maxLHS <=
        slack), vacuous (no sample), psi (psi_name), samples, thirdImag
        (the largest imaginary part of the pure third-order term)}.  A
        vacuous report is certified, with maxLHS and thirdImag None.  A
        slack of None stands for 1e-4 x the scan's levi_scale squared,
        which scales as the left-hand side does under z -> s z (s^-2)."""
        if slack is None:
            slack = 1e-4 * self.sigma.levi_scale ** 2
        out = {"eta": eta, "slack": float(slack), "vacuous": self.K == 0,
               "psi": psi_name, "samples": self.K}
        if self.K == 0:
            return out | {"maxLHS": None, "certified": True,
                          "thirdImag": None}
        mx = float(self.lhs(psi, eta).max())
        return out | {"maxLHS": mx, "certified": bool(mx <= slack),
                      "thirdImag": self.third_imag}


# ---------------------------------------------------------------------------
# interior oracle
# ---------------------------------------------------------------------------

def interior_psh_oracle(rho, wgrad, mixed, eta, slack_rel):
    """Positive-semidefiniteness of the complex Hessian of -(-rho)^eta.

    rho (B,), wgrad (B, n) and mixed (B, n, n) are the candidate defining
    function's values, Wirtinger gradients d rho / dz and mixed Hessians at
    the mesh points, as rho_terms gives them for rho = delta e^psi;
    certified when every minimal eigenvalue is above
    -slack_rel * ||Hessian|| pointwise, ||.|| the operator norm (the largest
    |eigenvalue|), which unitary maps keep.  Returns {eta, minEig (the
    smallest eigenvalue over the mesh), minScaled (the smallest ratio of a
    minimal eigenvalue to its Hessian's operator norm), certified, points
    (B), slackRel}.
    """
    if np.any(rho >= 0):
        raise MeshOutside(f"{int((rho >= 0).sum())} mesh point(s) with "
                          "rho >= 0")
    amp = eta * (-rho) ** (eta - 2.0)
    M = amp[:, None, None] * (
        (1.0 - eta) * np.einsum("ki,kj->kij", wgrad, np.conj(wgrad))
        + (-rho)[:, None, None] * mixed)
    eig = np.linalg.eigvalsh(M)
    lam = eig[:, 0]
    norm = np.maximum(np.abs(eig).max(axis=1), 1e-300)
    scaled = lam / norm
    ok = bool(np.all(lam >= -slack_rel * norm))
    return {"eta": float(eta), "minEig": float(lam.min()),
            "minScaled": float(scaled.min()), "certified": ok,
            "points": int(rho.shape[0]), "slackRel": float(slack_rel)}


# direction fields whose second differences, after the real axes', give
# psi's off-diagonal Levi entry: L = e_1 + e_2 and L = e_1 + i e_2, each
# followed by iL's
LEVI_FIELDS = tuple(complex_unpack(v)
                    for L in (np.array([1.0, 1.0 + 0j]), np.array([1.0, 1j]))
                    for v in (L, 1j * L))


def oracle_stencils(domain: DomainSpec, mesh, delta: WirtingerJet):
    """psi's stencils around the oracle mesh at steps FD_STEP and
    FD_STEP / 2 (in units of domain.scale): the real axes and LEVI_FIELDS,
    17 nodes per mesh point and step.  delta is the signed distance's
    order-3 jet at the mesh; the nodes' feet come from its Taylor model of
    the foot map, so building the stencils projects nothing."""
    return tuple(PsiStencil(domain, mesh, delta, LEVI_FIELDS, step)
                 for step in (FD_STEP, FD_STEP / 2))


def _psi_levi(second):
    """psi's Levi matrix (M, 2, 2) from the second differences of an
    oracle stencil, as the criterion takes it: q(L) = 1/4 (d^2_L + d^2_iL),
    so the axis pairs give H_11 and H_22, and q(e_1 + e_2) = H_11 + H_22 +
    2 Re H_12, q(e_1 + i e_2) = H_11 + H_22 + 2 Im H_12."""
    q = 0.25 * (second[0::2] + second[1::2])
    diag = q[0] + q[1]
    h12 = 0.5 * (q[2] - diag) + 0.5j * (q[3] - diag)
    return np.stack([q[0], h12, np.conj(h12), q[1]],
                    axis=-1).reshape(-1, 2, 2)


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
    levi = _psi_levi((4.0 * s2 - s1) / 3.0)
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

def coordinate_descent(objective, x0, lo, hi, rounds=4, gold_iters=18):
    """Deterministic box-constrained coordinate descent with golden-section
    line searches; returns (x, value).

    The objective must be a pure function of x: the search evaluates it
    once per point, keyed on the exact bytes of x, and a revisited point
    takes its stored value, so the search path and its result are those of
    an unmemoized search.

    Known defect, unchanged by the memo: a golden-section step that reuses
    fc or fd leaves xc or xd at its old coordinate, so the returned x may
    not score value, and the stale points make the search revisit points
    it has scored."""
    memo = {}

    def score(x):
        key = x.tobytes()
        if key not in memo:
            memo[key] = objective(x)
        return memo[key]

    gr = (np.sqrt(5.0) - 1.0) / 2.0
    x = np.asarray(x0, dtype=float).copy()
    best = score(x)
    for _ in range(rounds):
        improved = False
        for k in range(x.size):
            a, b = lo[k], hi[k]
            c = b - gr * (b - a)
            d = a + gr * (b - a)
            xc = x.copy()
            xc[k] = c
            fc = score(xc)
            xd = x.copy()
            xd[k] = d
            fd = score(xd)
            for _ in range(gold_iters):
                if fc < fd:
                    b, d, fd = d, c, fc
                    c = b - gr * (b - a)
                    xc[k] = c
                    fc = score(xc)
                else:
                    a, c, fc = c, d, fd
                    d = a + gr * (b - a)
                    xd[k] = d
                    fd = score(xd)
            cand = xc if fc < fd else xd
            val = min(fc, fd)
            if val < best - 1e-15:
                x, best = cand.copy(), val
                improved = True
        if not improved:
            break
    return x, best


# ---------------------------------------------------------------------------
# real-curve certificate
# ---------------------------------------------------------------------------

# curve samples of the real-curve certificate, and the relative headroom of
# its bound C_eta over the sampled bracket
CURVE_SAMPLES = 96
CURVE_HEADROOM = 0.1


class CurveCertificate:
    """The real-curve certificate's eta-independent data, and its psi terms.

    The data come from one order-3 delta-jet at the CURVE_SAMPLES curve
    samples t_values, which lie on the boundary and are their own feet:
    nothing is projected, and the ambient derivative of g(nabla_nu nu, J dt)
    along J dt is exact.  They are the tangent's case ("transversal" or
    "parallel"), g_t = g(nabla_nu nu, dt), the profile's slopes
    a(t) = -g(nabla_nu nu, J dt) and D(t) = d/dt g(., X) + D_{Jt} g(., Jt).
    NotACurve where curve is not a real chart.

    The terms are the quadratic profile along the rotated tangent J t,
    (blend s a(t), blend s^2 / 2) at p + s J t, with blend fading them to
    zero past width (0.3 collar widths by default) off the curve.  The
    certificate's psi s a(t) + s^2 b / 2 is Psi(cert, (1, b)): only b
    depends on eta, so the psi of every eta shares one certificate."""

    def __init__(self, domain: DomainSpec, curve: SigmaChart | None,
                 sigma_distance, width=None):
        if curve is None or curve.kind != "real":
            raise NotACurve("the degenerate set is not a parametrized real "
                            "curve")
        self.curve = curve
        self.sigma_distance = sigma_distance
        self.width = 0.3 * domain.collar_width if width is None else width
        tg = np.linspace(curve.lo[0], curve.hi[0], CURVE_SAMPLES,
                         endpoint=False)
        U = tg[:, None]
        jet = boundary_jet(domain, curve.embed_batch(U), order=3)
        xi = curve.tangents(U)
        # classification of the tangent against the complex tangent space
        overlap = np.abs(np.einsum("kj,kj->k", xi, 2.0 * jet.wgrad))
        nrm = np.sqrt(np.einsum("kj,kj->k", xi, np.conj(xi)).real)
        rel = overlap / np.maximum(nrm, 1e-300)
        self.case = "parallel" if float(rel.max()) < 1e-3 else "transversal"
        g_t, g_j = nu_pairings(jet, xi)
        # D(t): curve steps, and the exact derivative along J dt of
        # nu_field, which is bilinear in delta's gradient and Hessian
        dt = tg[1] - tg[0]
        dgt = (np.roll(g_t, -1) - np.roll(g_t, 1)) / (2 * dt)
        JX = complex_unpack(1j * xi)
        H = jet.rhess
        Hv = np.einsum("kab,kb->ka", H, JX)
        Tv = np.einsum("kabc,kc->kab", jet.rthird, JX)
        dw = nu_field(WirtingerJet(jet.value, Hv, H)) \
            + nu_field(WirtingerJet(jet.value, jet.rgrad, Tv))
        dgj = np.einsum("kj,kj->k", np.conj(xi), dw).imag
        self.t_values, self.g_t, self.a_values, self.Dt = \
            tg, g_t, -g_j, dgt + dgj

    def terms_at_feet(self, F):
        F = np.atleast_2d(F)
        t = np.mod(np.arctan2(F[:, 3], F[:, 2]), 2 * np.pi)
        gamma = self.curve.embed_batch(t[:, None])
        a = np.interp(t, self.t_values, self.a_values, period=2 * np.pi)
        JX = complex_unpack(1j * self.curve.tangents(t[:, None]))
        jdir = JX / np.maximum(np.linalg.norm(JX, axis=1, keepdims=True),
                               1e-300)
        s = np.einsum("ka,ka->k", F - gamma, jdir)
        blend = bump_c3(self.sigma_distance(F) / self.width)
        return np.stack([s * a * blend, 0.5 * s * s * blend], axis=1)


def real_curve_certify(cert: CurveCertificate, eta, slack):
    """Certificate for a one-real-dimensional degenerate set, from its
    CurveCertificate.

    Constructs psi with psi = 0 on the curve, J-derivative canceling
    g(nabla_nu nu, J dt), and second transversal derivative b = -2 C_eta - 1
    where C_eta bounds the bracket's largest sample M with CURVE_HEADROOM;
    the certificate inequality's left-hand side at every curve sample is
    then its bracket plus b.  A slack of None stands for 1e-8.  Returns
    {eta, slack, case (the certificate's), C_eta, b, maxLHS (M + b, the
    largest left-hand side over the samples), certified (maxLHS <= slack)}.

    The check certifies by construction: maxLHS = M + b = M - 2 C_eta - 1
    < 0 <= slack for every finite M and every slack >= 0, and only a NaN
    bracket leaves it uncertified.  So where Sigma is a real curve, only the
    interior oracle can fail.
    """
    if slack is None:
        slack = 1e-8
    coef = 1.0 / (1.0 - eta) - 1.0
    M = float((coef * cert.g_t ** 2 + cert.Dt).max())
    C_eta = max((1.0 + CURVE_HEADROOM) * M, 0.0) + slack + 1e-6
    b = -2.0 * C_eta - 1.0
    mx = M + b
    return {"eta": float(eta), "slack": float(slack),
            "certified": bool(mx <= slack), "case": cert.case,
            "C_eta": float(C_eta), "b": float(b), "maxLHS": mx}
