"""Domain-level pipelines wiring the zoo fixtures through the analysis
modules; the CLI and the acceptance suite both drive these."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .certify import (DEFAULT_ETA_GRID, NO_TERMS, CriterionEvaluator,
                      CurveTerms, IndexCertificate, Psi, combine,
                      coordinate_descent, curve_geometry, interior_psh_oracle,
                      oracle_stencils, real_curve_certify, rho_terms)
from .cohomology import (ChartTerms, PathInSigma, ThetaSource,
                         build_potential, classify, collar_terms,
                         exactness_tolerance, period)
from .distance import _jet_at_feet, signed_distance_from_feet
from .errors import ChartMismatch, MeshOutside
from .levi import detect_sigma
from .zoo import ZooEntry

# depth band of the interior oracle's mesh below the boundary; it ends
# inside every zoo entry's collar, where delta has a jet
ORACLE_DEPTH = (0.04, 0.12)
# box |c_i| <= FAMILY_BOX of the family search's basis coefficients
FAMILY_BOX = 1.0


def sigma_scan(entry: ZooEntry, mesh_count=2000, seed=0, threshold=None):
    mesh = entry.boundary_mesh(mesh_count, seed)
    return detect_sigma(entry.domain, mesh, threshold=threshold)


def periods_for(entry: ZooEntry):
    """Period of every generator loop; (verdict, periods dict), exact below
    exactness_tolerance of the loops' largest |theta| and chart span."""
    values = {}
    max_theta = 0.0
    diam = 0.0
    for name, (chart_name, params, closed) in entry.loops.items():
        chart = entry.charts[chart_name]
        src = ThetaSource(chart)
        loop = PathInSigma(params, closed=closed, chart_name=chart_name)
        values[name] = period(src, loop)
        comps = src.components(params)
        max_theta = max(max_theta, float(np.max(np.abs(comps))))
        diam = max(diam, float(np.max(chart.hi - chart.lo)))
    tol = exactness_tolerance(max_theta, max(diam, 1.0))
    return classify(values, tol), values


def potential_for(entry: ZooEntry, verdict=None, res=9):
    """Potential field over the entry's charts (foliations: all leaves)."""
    if verdict is None:
        verdict, _ = periods_for(entry)
    charts = [c for c in entry.charts.values() if c.kind == "complex"]
    if not charts:
        raise ChartMismatch("theta needs a complex chart")
    if entry.id == "worm":
        charts = [entry.charts["log_polar"]]
    sources = [ThetaSource(c) for c in charts]
    base = 0.5 * (charts[0].lo + charts[0].hi)
    return build_potential(sources, base, verdict, res=res)


def _family_surface(U, t):
    """The family search's Fourier x polynomial basis, (N, 8) values at the
    worm's Sigma coordinates (log|z2|, arg z2).  The search runs only where
    the class is obstructed and Sigma has coordinates, which among the zoo
    entries is the worm alone, so the basis is written for its
    coordinates."""
    r, a = U[:, 0], U[:, 1]
    return np.stack([r, r ** 2, np.cos(a), np.sin(a), np.cos(2 * a),
                     np.sin(2 * a), r * np.cos(a), r * np.sin(a)], axis=1)


@dataclass
class Run:
    """One pipeline run on a zoo entry at fixed sizes and seed.

    The eta-independent stages (Sigma scan, period verdict, collar
    potential, criterion data, interior mesh with its delta-jet and psi
    stencils, the psi terms objects) are built on first use and at most
    once, and each stencil differences each terms object once; certify and
    estimate build their reports over them, combining the cached columns
    with each psi's coefficients.
    """

    entry: ZooEntry
    mesh_count: int = 2000
    seed: int = 0
    oracle_count: int = 800
    slack: float | None = None
    oracle_slack: float = 1e-6
    threshold: float | None = None

    @cached_property
    def sigma(self):
        return sigma_scan(self.entry, self.mesh_count, self.seed,
                          threshold=self.threshold)

    @cached_property
    def verdict(self):
        """Period verdict of the generator loops (exact when there are
        none)."""
        if not self.entry.loops:
            return classify({}, 1e-6)
        return periods_for(self.entry)[0]

    @cached_property
    def collar_psi(self):
        """Collar extension of the potential when the class is exact; None
        otherwise."""
        e = self.entry
        if e.loops and self.verdict.exact and e.sigma_coords is not None:
            return Psi(collar_terms(e.domain, potential_for(e, self.verdict),
                                    e.sigma_coords), (1.0,))
        return None

    @cached_property
    def default_psi(self):
        """certify's candidate: (psi, provenance)."""
        if self.entry.sigma_kind == "Empty":
            return Psi(NO_TERMS, ()), "zero (empty degenerate set)"
        if self.collar_psi is not None:
            return self.collar_psi, "collar potential (-2 phi)"
        return Psi(NO_TERMS, ()), "zero (no exact potential)"

    @cached_property
    def evaluator(self):
        return CriterionEvaluator(self.entry.domain, self.sigma)

    @cached_property
    def interior_mesh(self):
        """(points, verified nearest feet) of the oracle's mesh; MeshOutside
        when it keeps no point."""
        points, feet = self.entry.interior_mesh(
            self.oracle_count, self.seed + 1, depth=ORACLE_DEPTH)
        if not len(points):
            raise MeshOutside(f"the interior mesh keeps none of its "
                              f"{self.oracle_count} point(s)")
        return points, feet

    @cached_property
    def oracle_delta(self):
        """delta's order-3 jet at the interior mesh, built at the feet the
        mesh carries without projecting again: its order-2 blocks feed
        rho_terms, all of it the psi stencils' feet."""
        dom = self.entry.domain
        mesh, feet = self.interior_mesh
        return _jet_at_feet(dom, feet,
                            signed_distance_from_feet(dom, mesh, feet), 3)

    @cached_property
    def oracle_stencils(self):
        return oracle_stencils(self.entry.domain, self.interior_mesh[0],
                               self.oracle_delta)

    def oracle(self, eta, psi):
        """The interior oracle on psi: each oracle stencil differences
        psi.terms once per run, and every call combines those columns with
        psi.coef."""
        diffs = [combine(st.columns(psi.terms), psi.coef)
                 for st in self.oracle_stencils]
        return interior_psh_oracle(*rho_terms(self.oracle_delta, diffs), eta,
                                   slack_rel=self.oracle_slack)

    @cached_property
    def curve_geometry(self):
        """The real-curve certificate's eta-independent data."""
        return curve_geometry(self.entry.domain,
                              self.entry.charts.get("curve"))

    @cached_property
    def curve_terms(self):
        """The real-curve certificate's psi terms; b enters per eta as a
        coefficient."""
        e = self.entry
        return CurveTerms(e.domain, e.charts.get("curve"),
                          self.curve_geometry, e.sigma_distance)

    @cached_property
    def family_terms(self):
        """The family search's basis functions, one term each."""
        return ChartTerms(self.entry.sigma_coords, _family_surface)

    def family_psi(self, eta, diagnostics):
        """Coordinate-descent minimiser of maxLHS over psi = Psi(
        family_terms, c), scoring c as max lhs_dirs(G c, Q c, eta) on the
        criterion's columns (G, Q) of the basis; the minimum is logged in
        diagnostics['psiProvenance']."""
        G, Q = self.evaluator.columns(self.family_terms)

        def objective(coef):
            return float(self.evaluator.lhs_dirs(G @ coef, Q @ coef,
                                                  eta).max())

        box = FAMILY_BOX * np.ones(G.shape[1])
        coef, val = coordinate_descent(objective, np.zeros(G.shape[1]),
                                       -box, box, rounds=2, gold_iters=10)
        diagnostics["psiProvenance"].append(
            {"eta": float(eta), "family_min_maxLHS": float(val)})
        return Psi(self.family_terms, coef)

    def certify(self, eta):
        """Report at one exponent: the boundary check (criterion, or the
        real-curve certificate) and the interior oracle on its psi."""
        out = {"domain": self.entry.id, "eta": float(eta),
               "sigmaSize": self.sigma.size}
        if self.entry.sigma_kind == "RealCurve":
            crep = real_curve_certify(self.curve_geometry, eta,
                                      slack=self.slack)
            psi = Psi(self.curve_terms, (1.0, crep.b))
            out["curve"] = crep.to_json()
            out["criterion"] = {"certified": crep.certified,
                                "maxLHS": crep.max_lhs, "slack": crep.slack}
            out["psi"] = "curve certificate profile"
        else:
            psi, out["psi"] = self.default_psi
            out["verdict"] = self.verdict.to_json()
            out["criterion"] = self.evaluator.report(
                psi, eta, slack=self.slack, psi_name=out["psi"]).to_json()
            if not self.verdict.exact:
                out["obstruction"] = {"classification": "Obstructed",
                                      "periods": out["verdict"]["periods"]}
        orep = self.oracle(eta, psi)
        out["oracle"] = orep.to_json()
        out["certified"] = bool(out["criterion"]["certified"]
                                and orep.certified)
        return out

    def estimate(self, eta_grid=DEFAULT_ETA_GRID) -> IndexCertificate:
        """Largest eta on the grid certified by both the boundary check and
        the interior oracle.  Per eta, psi candidates are tried in order
        (collar potential, zero, family search), and the oracle runs on each
        one the criterion certifies, until one passes both."""
        grid = sorted(eta_grid)
        diagnostics = {"sigmaSize": self.sigma.size, "psiProvenance": []}
        if self.entry.sigma_kind == "RealCurve":
            # the curve certificate's profile is the only candidate
            records = [{"eta": r["eta"], "certified": r["certified"],
                        "psi": "curve certificate",
                        "maxLHS": r["criterion"]["maxLHS"],
                        "oracleMinEig": r["oracle"]["minEig"]}
                       for r in map(self.certify, grid)]
            bound = max([r["eta"] for r in records if r["certified"]],
                        default=0.0)
            return IndexCertificate(grid, records, bound, diagnostics)
        if self.entry.loops:
            diagnostics["verdict"] = self.verdict.to_json()
            if not self.verdict.exact:
                diagnostics["obstruction"] = self.verdict.to_json()
        search = self.collar_psi is None \
            and self.entry.sigma_coords is not None and self.sigma.size

        def candidates(eta):
            if self.collar_psi is not None:
                yield "collar potential", self.collar_psi
            yield "zero", Psi(NO_TERMS, ())
            if search:
                yield ("family (coordinate descent)",
                       self.family_psi(eta, diagnostics))

        records = []
        for eta in grid:
            record = {"eta": float(eta), "certified": False, "psi": None,
                      "maxLHS": None, "oracleMinEig": None}
            for name, psi in candidates(eta):
                rep = self.evaluator.report(psi, eta, slack=self.slack,
                                            psi_name=name)
                record["maxLHS"] = None if rep.vacuous else float(rep.max_lhs)
                if not rep.certified:
                    continue
                orep = self.oracle(eta, psi)
                record["oracleMinEig"] = float(orep.min_eig)
                record["oracleScaled"] = float(orep.min_scaled)
                if orep.certified:
                    record.update(certified=True, psi=name)
                    break
            records.append(record)
        certified = [r["eta"] for r in records if r["certified"]]
        if not certified:
            diagnostics["reason"] = "no eta certified"
        return IndexCertificate(grid, records, max(certified, default=0.0),
                                diagnostics)
