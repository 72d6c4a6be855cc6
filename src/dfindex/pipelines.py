"""The pipeline over a zoo entry: Run holds its stages, each computed in
one place and at most once -- the boundary mesh, the Sigma scan on it, the
period verdict of the generator loops, the collar potential and the
criterion and oracle data.  Run.decide makes the one per-eta decision:
which psi candidate passes the boundary check and the interior oracle, with
one label per psi.  certify reports that decision at one eta and estimate
records it over a grid.  Every CLI command that runs a stage reads it from
Run."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .certify import (NO_TERMS, CriterionEvaluator, CurveCertificate, Psi,
                      combine, coordinate_descent, interior_psh_oracle,
                      oracle_stencils, real_curve_certify, rho_terms)
from .cohomology import (ChartTerms, build_potential, check_closed,
                         classify, collar_terms, exactness_tolerance,
                         integrate_theta)
from .errors import ChartMismatch, MeshOutside
from .levi import detect_sigma
from .zoo import ZooEntry

# depth band of the interior oracle's mesh below the boundary; it ends
# inside every zoo entry's collar, where delta has a jet
ORACLE_DEPTH = (0.04, 0.12)
# box |c_i| <= FAMILY_BOX of the family search's basis coefficients
FAMILY_BOX = 1.0
# nodes per chart axis of the potential lattice behind the collar psi
COLLAR_RES = 9


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

    The stages are the boundary mesh (mesh), the Sigma scan on it (sigma),
    the period verdict of the generator loops (verdict), the collar
    potential (collar_psi, from potential), the criterion data
    (evaluator), the interior mesh (interior_mesh: its points and delta's
    order-3 jet there), psi's stencils around it (oracle_stencils), the
    real-curve certificate (curve: its data and its psi terms) and the
    family search's terms (family_terms).
    Each is eta-independent, built on first use and at most once, and each
    stencil differences each terms object once; decide combines the cached
    columns with each candidate psi's coefficients, and certify and
    estimate report its decision.
    """

    entry: ZooEntry
    mesh_count: int = 2000
    seed: int = 0
    oracle_count: int = 800
    slack: float | None = None
    oracle_slack: float = 1e-6
    threshold: float | None = None

    @cached_property
    def mesh(self):
        """The boundary mesh: mesh_count points drawn with seed."""
        return self.entry.boundary_mesh(self.mesh_count, self.seed)

    @cached_property
    def sigma(self):
        """The Levi scan of the mesh (detect_sigma at threshold)."""
        return detect_sigma(self.entry.domain, self.mesh, self.threshold)

    @cached_property
    def verdict(self):
        """The period verdict of the generator loops (classify's; exact when
        there are none), exact below exactness_tolerance of the loops'
        largest theta mass.  Each loop must close (check_closed), and the
        loops are grouped by chart: per chart, one integrate_theta call
        gives their periods and masses."""
        by_chart = {}
        for name, (chart_name, params) in self.entry.loops.items():
            check_closed(self.entry.charts[chart_name], params)
            by_chart.setdefault(chart_name, {})[name] = params
        periods, masses = {}, [0.0]
        for chart_name, loops in by_chart.items():
            values, mass = integrate_theta(self.entry.charts[chart_name],
                                           list(loops.values()))
            periods.update(zip(loops, values))
            masses += mass
        return classify({name: periods[name] for name in self.entry.loops},
                        exactness_tolerance(max(masses)))

    @cached_property
    def collar_psi(self):
        """Collar extension of the potential when the class is exact; None
        otherwise."""
        e = self.entry
        if e.loops and self.verdict["classification"] == "Exact" \
                and e.sigma_coords is not None:
            phi = self.potential(COLLAR_RES)
            return Psi(collar_terms(e.domain, phi, e.sigma_coords), (1.0,))
        return None

    def potential(self, res):
        """The potential of the period verdict over the entry's complex
        charts (a foliation: all its leaves) on a lattice of res nodes per
        axis; ChartMismatch when the entry has no complex chart."""
        charts = [c for c in self.entry.charts.values()
                  if c.kind == "complex"]
        if not charts:
            raise ChartMismatch("theta needs a complex chart")
        return build_potential(charts, self.verdict, res)

    @cached_property
    def evaluator(self):
        return CriterionEvaluator(self.entry.domain, self.sigma)

    @cached_property
    def interior_mesh(self):
        """(points, delta's order-3 jet) of the oracle's mesh; MeshOutside
        when it keeps no point.  The jet's order-2 blocks feed rho_terms,
        all of it the psi stencils' feet."""
        points, delta = self.entry.interior_mesh(
            self.oracle_count, self.seed + 1, depth=ORACLE_DEPTH)
        if not len(points):
            raise MeshOutside(f"the interior mesh keeps none of its "
                              f"{self.oracle_count} point(s)")
        return points, delta

    @cached_property
    def oracle_stencils(self):
        return oracle_stencils(self.entry.domain, *self.interior_mesh)

    def oracle(self, eta, psi):
        """The interior oracle on psi: each oracle stencil differences
        psi.terms once per run, and every call combines those columns with
        psi.coef."""
        diffs = [combine(st.columns(psi.terms), psi.coef)
                 for st in self.oracle_stencils]
        return interior_psh_oracle(*rho_terms(self.interior_mesh[1], diffs),
                                   eta, slack_rel=self.oracle_slack)

    @cached_property
    def curve(self):
        """The real-curve certificate: its eta-independent data and its psi
        terms, where b enters per eta as a coefficient."""
        e = self.entry
        return CurveCertificate(e.domain, e.charts.get("curve"),
                                e.sigma_distance)

    @cached_property
    def family_terms(self):
        """The family search's basis functions, one term each."""
        return ChartTerms(self.entry.sigma_coords, _family_surface)

    def family_psi(self, eta, provenance):
        """Coordinate-descent minimiser of maxLHS over psi = Psi(
        family_terms, c), scoring c as max lhs_dirs(G c, Q c, eta) on the
        criterion's columns (G, Q) of the basis; the minimum is logged in
        the provenance list."""
        G, Q = self.evaluator.columns(self.family_terms)

        def objective(coef):
            return float(self.evaluator.lhs_dirs(G @ coef, Q @ coef,
                                                  eta).max())

        box = FAMILY_BOX * np.ones(G.shape[1])
        coef, val = coordinate_descent(objective, np.zeros(G.shape[1]),
                                       -box, box, rounds=2, gold_iters=10)
        provenance.append({"eta": float(eta),
                           "family_min_maxLHS": float(val)})
        return Psi(self.family_terms, coef)

    def candidates(self, eta, provenance):
        """The psi candidates at eta in order, each (label, psi, boundary
        report) and built only when reached: the real-curve certificate
        where Sigma is a curve; otherwise the collar potential where the
        class is exact, then psi = 0, then, with no collar potential and
        where Sigma has coordinates and samples, the family search (logged
        to provenance).  Where Sigma is not empty but the scan kept no
        sample, the criterion's report is uncertified with a reason."""
        e = self.entry
        if e.sigma_kind == "RealCurve":
            crep = real_curve_certify(self.curve, eta, slack=self.slack)
            yield ("curve certificate", Psi(self.curve, (1.0, crep["b"])),
                   crep)
            return

        def checked(label, psi):
            rep = self.evaluator.report(psi, eta, slack=self.slack,
                                        psi_name=label)
            if rep["vacuous"] and e.sigma_kind != "Empty":
                rep |= {"certified": False,
                        "reason": f"the scan kept no sample of the "
                                  f"{e.sigma_kind} degenerate set"}
            return label, psi, rep

        if self.collar_psi is not None:
            yield checked("collar potential (-2 phi)", self.collar_psi)
        yield checked("zero", Psi(NO_TERMS, ()))
        if self.collar_psi is None and e.sigma_coords is not None \
                and self.sigma.size:
            yield checked("family (coordinate descent)",
                          self.family_psi(eta, provenance))

    def decide(self, eta, provenance):
        """The psi at eta: (label, psi, boundary report, oracle report or
        None) of the first candidate that passes both the boundary check
        and the interior oracle, or else of the last one tried.  The oracle
        runs only on a candidate whose boundary check certifies."""
        for label, psi, crep in self.candidates(eta, provenance):
            orep = self.oracle(eta, psi) if crep["certified"] else None
            if orep is not None and orep["certified"]:
                break
        return label, psi, crep, orep

    def certify(self, eta):
        """Report at one exponent: decide's psi with its boundary report
        (criterion, or the real-curve certificate) and the interior oracle
        on it, run here when decide did not run it."""
        label, psi, crep, orep = self.decide(eta, [])
        out = {"domain": self.entry.id, "eta": float(eta),
               "sigmaSize": self.sigma.size, "psi": label, "criterion": crep,
               "oracle": self.oracle(eta, psi) if orep is None else orep}
        if self.entry.sigma_kind != "RealCurve":
            out["verdict"] = self.verdict
            if self.verdict["classification"] != "Exact":
                out["obstruction"] = {"classification": "Obstructed",
                                      "periods": out["verdict"]["periods"]}
        out["certified"] = bool(crep["certified"]
                                and out["oracle"]["certified"])
        return out

    def estimate(self, eta_grid):
        """Largest eta on the grid that decide certifies.

        Returns {etaGrid (sorted), records (per eta: eta, certified, psi
        (decide's label when certified, else None), maxLHS and oracle (its
        report, None where decide did not run it) of decide's psi), bound
        (the largest certified eta, 0 when none), diagnostics (sigmaSize,
        psiProvenance, and verdict, obstruction and reason where they
        apply)}."""
        grid = sorted(eta_grid)
        provenance = []
        diagnostics = {"sigmaSize": self.sigma.size,
                       "psiProvenance": provenance}
        if self.entry.loops:
            diagnostics["verdict"] = self.verdict
            if self.verdict["classification"] != "Exact":
                diagnostics["obstruction"] = self.verdict
        records = []
        for eta in grid:
            label, _, crep, orep = self.decide(eta, provenance)
            certified = orep is not None and orep["certified"]
            records.append({"eta": float(eta), "certified": certified,
                            "psi": label if certified else None,
                            "maxLHS": crep["maxLHS"], "oracle": orep})
        if not any(r["certified"] for r in records):
            diagnostics["reason"] = "no eta certified"
        return {"etaGrid": [float(e) for e in grid], "records": records,
                "bound": float(max([r["eta"] for r in records
                                    if r["certified"]], default=0.0)),
                "diagnostics": diagnostics}
