"""The dfindex layers the traced run wraps, and the per-layer metrics
computed from its spans.  Metric names match BENCHMARK.json's per_layer."""

from __future__ import annotations

import numpy as np

from tracer import Tracer, under

PACKAGE = "dfindex"
MODULES = ("jets", "distance", "levi", "cohomology", "certify", "hermitian",
           "zoo")
METHODS = (
    ("jets", "DomainSpec", "jet"),
    ("cohomology", "PotentialField", "eval"),
    ("cohomology", "CollarPsi", "__call__"),
    ("certify", "CriterionEvaluator", "__init__"),
    ("certify", "CriterionEvaluator", "lhs"),
)
# the entries' interior_mesh closures all go through this helper
EXTRAS = (("zoo", "_inward_mesh"),)


def _order_tag(args, kwargs):
    order = kwargs.get("order", args[2] if len(args) > 2 else 2)
    return f".o{order}"


TAGS = {"distance.delta_jet": _order_tag}
OUT_ROWS = {
    "zoo._inward_mesh": lambda mesh: mesh.shape[0],
    "levi.detect_sigma": lambda sigma: sigma.size,
}


def install(tracer: Tracer):
    tracer.install(PACKAGE, MODULES, methods=METHODS, extras=EXTRAS,
                   tags=TAGS, out_rows=OUT_ROWS)


def _ratio(num, den, scale=1.0):
    return float(scale * num / den) if den else 0.0


def metrics(tracer: Tracer, run_first: int, run_s: float):
    """Per-layer metrics of one traced repeat.

    Spans before run_first belong to set-up (the zoo entry build); the rest
    belong to the CLI run that took run_s seconds of wall time.  A layer
    with no spans reports 0.
    """
    t = tracer.table(run_first)
    names = t["names"]

    def sel(name):
        return names == name

    def total(name, key="dur"):
        return float(t[key][sel(name)].sum())

    def calls(name):
        return int(sel(name).sum())

    def rows(name):
        return int(t["rows"][sel(name)].sum())

    def per_point(name):
        return _ratio(total(name), rows(name), 1e6)

    foot_o3 = t["rows"][under(t, "distance.foot_points",
                              "distance.delta_jet.o3")].sum()
    foot_oracle = t["rows"][under(t, "distance.foot_points",
                                  "certify.interior_psh_oracle")].sum()
    mesh = sel("zoo._inward_mesh")
    sigma = t["out_rows"][sel("levi.detect_sigma")]
    builds = [tracer.end[i] - tracer.start[i] for i in range(run_first)
              if tracer.names[i].startswith("zoo.make_")]
    top = t["parent"] < 0
    return {
        "cohomology.PotentialField.eval.points":
            rows("cohomology.PotentialField.eval"),
        "cohomology.PotentialField.eval.us_per_point":
            per_point("cohomology.PotentialField.eval"),
        "cohomology.build_potential.s": total("cohomology.build_potential"),
        "cohomology.period.s": total("cohomology.period"),
        "distance.delta_jet.o2.points": rows("distance.delta_jet.o2"),
        "distance.delta_jet.o2.us_per_point":
            per_point("distance.delta_jet.o2"),
        "distance.delta_jet.o3.points": rows("distance.delta_jet.o3"),
        "distance.delta_jet.o3.us_per_point":
            per_point("distance.delta_jet.o3"),
        "distance.projections_per_delta_point":
            _ratio(foot_o3, rows("distance.delta_jet.o3")),
        "distance.projections_per_oracle_point":
            _ratio(foot_oracle, rows("certify.interior_psh_oracle")),
        "distance.foot_points.points": rows("distance.foot_points"),
        "distance.foot_points.us_per_point":
            per_point("distance.foot_points"),
        "distance.foot_points.self_s":
            total("distance.foot_points", "self"),
        "distance.cut_locus_mask.points": rows("distance.cut_locus_mask"),
        "certify.interior_psh_oracle.calls":
            calls("certify.interior_psh_oracle"),
        "certify.interior_psh_oracle.us_per_point":
            per_point("certify.interior_psh_oracle"),
        "certify.CriterionEvaluator.builds":
            calls("certify.CriterionEvaluator.__init__"),
        "certify.CriterionEvaluator.build_s":
            total("certify.CriterionEvaluator.__init__"),
        "certify.CriterionEvaluator.lhs.calls":
            calls("certify.CriterionEvaluator.lhs"),
        "certify.CriterionEvaluator.lhs.ms_per_call":
            _ratio(total("certify.CriterionEvaluator.lhs"),
                   calls("certify.CriterionEvaluator.lhs"), 1e3),
        "certify.coordinate_descent.s": total("certify.coordinate_descent"),
        "certify.real_curve_certify.s": total("certify.real_curve_certify"),
        "zoo.interior_mesh.builds": int(mesh.sum()),
        "zoo.interior_mesh.kept_ratio":
            _ratio(t["out_rows"][mesh].sum(), t["rows"][mesh].sum()),
        "zoo.entry_build_s": builds[0] if builds else 0.0,
        "jets.rho_jet.points": rows("jets.DomainSpec.jet"),
        "jets.rho_jet.us_per_point": per_point("jets.DomainSpec.jet"),
        "jets.numeric_jet.calls": calls("jets.numeric_jet"),
        "levi.detect_sigma.s": total("levi.detect_sigma"),
        "levi.sigma_size": int(sigma[0]) if sigma.size else 0,
        "hermitian.hermitian_eigh.s": total("hermitian.hermitian_eigh"),
        "trace.coverage": _ratio(float(t["dur"][top].sum()), run_s),
        "trace.spans": len(names),
    }


def span_summary(tracer: Tracer, run_first: int):
    """Calls, rows, inclusive and self seconds per span name in the run."""
    t = tracer.table(run_first)
    out = {}
    for name in sorted(set(t["names"].tolist())):
        m = t["names"] == name
        out[name] = {"calls": int(m.sum()), "rows": int(t["rows"][m].sum()),
                     "incl_s": float(t["dur"][m].sum()),
                     "self_s": float(t["self"][m].sum())}
    return out


UNITS = {"points": "count", "calls": "count", "builds": "count",
         "spans": "count", "sigma_size": "count", "s": "s", "self_s": "s",
         "build_s": "s", "entry_build_s": "s", "us_per_point": "us",
         "ms_per_call": "ms", "kept_ratio": "ratio", "coverage": "ratio",
         "overhead": "ratio", "projections_per_delta_point": "ratio",
         "projections_per_oracle_point": "ratio"}


def unit(metric):
    return UNITS[metric.rsplit(".", 1)[-1]]


def median_metrics(samples):
    """Per-metric median over the traced repeats of one run."""
    keys = samples[0].keys()
    return {k: float(np.median([s[k] for s in samples])) for k in keys}
