"""Batch front end: configuration, pipelines, reproducible reports.

Exit codes: 0 success/certified, 2 not certified, 1 error.  Reports are
deterministic JSON (sorted keys, 12-significant-digit floats, config hash
embedded); grids go to CSV next to the report.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass, field

import numpy as np

from . import zoo
from .errors import ChartMismatch, ConfigInvalid, DfIndexError, IoFailure
from .levi import detect_sigma
from .pipelines import Run, periods_for, potential_for, sigma_scan
from .certify import PatchSpec, caccioppoli_check, real_curve_certify
from .sigma import OneFormSample
from .util import canonical_json, config_hash

_DEFAULTS = {
    "domain": "ball",
    "radius": 1.0,
    "beta": float(np.pi),
    "r": 0.7,
    "mesh": 2000,
    "interior": 800,
    "eta": 0.99,
    "eta_grid": "0.5,0.75,0.9,0.95,0.99",
    "threshold": -1.0,          # negative: automatic
    "slack": -1.0,              # negative: automatic
    "oracle_slack": 1e-6,
    "loop": "",
    "chart": "",
    "res": 17,
    "seed": 0,
    "out": "dfindex_out",
}


@dataclass
class RunConfig:
    """Flat key=value configuration with command-line overrides."""

    values: dict = field(default_factory=lambda: dict(_DEFAULTS))

    @staticmethod
    def load(path=None, overrides=None):
        return RunConfig.read(path, overrides).validate()

    @staticmethod
    def read(path=None, overrides=None):
        """Defaults, then the config file, then the non-None overrides;
        values stay as given until validate()."""
        cfg = RunConfig()
        if path:
            try:
                with open(path) as fh:
                    for line in fh:
                        line = line.split("#", 1)[0].strip()
                        if not line:
                            continue
                        if "=" not in line:
                            raise ConfigInvalid(f"bad config line: {line!r}")
                        k, v = (s.strip() for s in line.split("=", 1))
                        cfg.values[k] = v
            except OSError as exc:
                raise ConfigInvalid(f"cannot read config: {exc}")
        for k, v in (overrides or {}).items():
            if v is not None:
                cfg.values[k] = v
        return cfg

    def validate(self):
        kinds = dict.fromkeys(("mesh", "interior", "res", "seed"), int)
        kinds.update(dict.fromkeys(("radius", "beta", "r", "eta", "threshold",
                                    "slack", "oracle_slack"), float))
        for key, kind in kinds.items():
            try:
                self.values[key] = kind(self.values[key])
            except (TypeError, ValueError):
                raise ConfigInvalid(f"{key} must be {kind.__name__}, got "
                                    f"{self.values[key]!r}") from None
            if not np.isfinite(self.values[key]):
                raise ConfigInvalid(f"{key} must be finite")
        for key, least in (("mesh", 1), ("interior", 1), ("res", 2),
                           ("seed", 0)):
            if self.values[key] < least:
                raise ConfigInvalid(f"{key} must be at least {least}")
        if self.values["oracle_slack"] <= 0:
            raise ConfigInvalid("oracle_slack must be positive")
        if not 0 < self.values["eta"] < 1:
            raise ConfigInvalid("eta must be in (0, 1)")
        try:
            grid = self.eta_grid()
        except ValueError:
            raise ConfigInvalid("eta_grid must be comma-separated numbers, "
                                f"got {self.values['eta_grid']!r}") from None
        if not all(0 < e < 1 for e in grid):
            raise ConfigInvalid(f"eta_grid values must be in (0, 1): {grid}")
        return self

    def hash(self):
        # the output directory is not part of the numerical configuration
        return config_hash({k: self.values[k] for k in sorted(self.values)
                            if k != "out"})

    def eta_grid(self):
        return [float(x) for x in str(self.values["eta_grid"]).split(",")]

    def opt(self, key):
        v = self.values[key]
        return None if (isinstance(v, float) and v < 0) else v


def make_entry(cfg: RunConfig) -> zoo.ZooEntry:
    name = cfg.values["domain"]
    if name == "ball":
        return zoo.make_ball(cfg.values["radius"])
    if name == "bidisc":
        return zoo.make_fattened_bidisc(cfg.values["r"])
    if name == "worm":
        return zoo.make_worm(cfg.values["beta"])
    if name == "quartic_circle":
        return zoo.make_quartic_circle()
    raise ConfigInvalid(f"unknown domain {name!r}")


def emit_report(results: dict, cfg: RunConfig, name="report"):
    """Deterministic JSON report; IoFailure on unwritable paths."""
    out = cfg.values["out"]
    try:
        os.makedirs(out, exist_ok=True)
        payload = dict(results)
        payload["config"] = {k: cfg.values[k] for k in sorted(cfg.values)}
        payload["configHash"] = cfg.hash()
        path = os.path.join(out, f"{name}.json")
        with open(path, "w") as fh:
            fh.write(canonical_json(payload))
            fh.write("\n")
        return path
    except OSError as exc:
        raise IoFailure(f"cannot write report: {exc}")


def _cmd_zoo(args, cfg):
    if args.zoo_action == "list":
        print("\n".join(zoo.zoo_ids()))
        return 0, None
    entry = make_entry(cfg)
    desc = entry.describe()
    print(canonical_json(desc))
    return 0, {"describe": desc}


def _cmd_scan(cfg):
    entry = make_entry(cfg)
    mesh = entry.boundary_mesh(cfg.values["mesh"], cfg.values["seed"])
    sigma = detect_sigma(entry.domain, mesh, threshold=cfg.opt("threshold"))
    res = {
        "domain": entry.id,
        "meshPoints": int(mesh.shape[0]),
        "sigmaSize": sigma.size,
        "threshold": sigma.threshold,
        "leviScale": sigma.levi_scale,
        "meshPitch": sigma.mesh_pitch,
        "negativeCount": sigma.negative_count,
    }
    return 0, res


def _cmd_sigma(cfg):
    entry = make_entry(cfg)
    sigma = sigma_scan(entry, cfg.values["mesh"], cfg.values["seed"],
                       threshold=cfg.opt("threshold"))
    res = {"domain": entry.id, "sigmaSize": sigma.size,
           "threshold": sigma.threshold,
           "lambdaMin": sigma.lambda_min.tolist()[:64]}
    if entry.sigma_distance is not None and sigma.size:
        res["maxDistToDescribedSigma"] = float(
            entry.sigma_distance(sigma.points).max())
    return 0, res


def _cmd_theta(cfg):
    entry = make_entry(cfg)
    if not entry.charts:
        raise ChartMismatch(f"domain {entry.id} has no chart")
    chart_name = cfg.values["chart"] or sorted(entry.charts)[0]
    if chart_name not in entry.charts:
        raise ConfigInvalid(f"unknown chart {chart_name!r}")
    chart = entry.charts[chart_name]
    sample = OneFormSample.from_chart(chart, res=cfg.values["res"])
    out = cfg.values["out"]
    os.makedirs(out, exist_ok=True)
    csv_path = os.path.join(out, f"theta_{entry.id}_{chart_name}.csv")
    sample.to_csv(csv_path)
    res = {"domain": entry.id, "chart": chart_name,
           "maxAbsComponent": float(np.max(np.abs(sample.comps))),
           "csv": os.path.basename(csv_path)}
    if sample.closed_residual is not None:
        res["maxClosednessResidual"] = float(np.max(sample.closed_residual))
    return 0, res


def _cmd_period(cfg):
    entry = make_entry(cfg)
    verdict, values = periods_for(entry)
    res = {"domain": entry.id, "verdict": verdict.to_json(),
           "periods": {k: float(v) for k, v in values.items()}}
    if cfg.values["loop"]:
        name = cfg.values["loop"]
        if name not in values:
            raise ConfigInvalid(f"unknown loop {name!r}")
        res["loop"] = {"name": name, "period": float(values[name])}
    return 0, res


def _cmd_potential(cfg):
    entry = make_entry(cfg)
    verdict, _ = periods_for(entry)
    phi = potential_for(entry, verdict, res=max(9, cfg.values["res"] // 2))
    out = cfg.values["out"]
    os.makedirs(out, exist_ok=True)
    csv_path = os.path.join(out, f"potential_{entry.id}.csv")
    phi.to_csv(csv_path)
    res = {"domain": entry.id,
           "gradientResidual": float(phi.gradient_residual),
           "pathDisagreement": float(phi.path_disagreement),
           "maxAbsPhi": float(max(np.max(np.abs(l.values))
                                  for l in phi.leaves)),
           "csv": os.path.basename(csv_path)}
    return 0, res


def _run(cfg):
    return Run(make_entry(cfg), mesh_count=cfg.values["mesh"],
               seed=cfg.values["seed"], oracle_count=cfg.values["interior"],
               slack=cfg.opt("slack"), oracle_slack=cfg.values["oracle_slack"],
               threshold=cfg.opt("threshold"))


def _cmd_certify(cfg):
    res = _run(cfg).certify(cfg.values["eta"])
    return (0 if res["certified"] else 2), res


def _cmd_estimate(cfg):
    run = _run(cfg)
    cert = run.estimate(cfg.eta_grid())
    return 0, {"domain": run.entry.id, "certificate": cert.to_json(),
               "bound": cert.bound}


def _cmd_caccioppoli(cfg):
    rows = []
    ok = True
    for n in (1, 4, 16):
        rep = caccioppoli_check(
            PatchSpec(radius=1.0 / np.sqrt(n)),
            lambda xs: -(xs[0] * xs[0] + xs[1] * xs[1]), n)
        rows.append(rep.to_json())
        ok = ok and rep.ok
    return (0 if ok else 2), {"cases": rows}


def _cmd_curve(cfg):
    entry = make_entry(cfg)
    if entry.sigma_kind != "RealCurve":
        raise DfIndexError(f"domain {entry.id} has no real-curve "
                           "degenerate set") from None
    rep = real_curve_certify(entry.domain, entry.charts["curve"],
                             cfg.values["eta"], slack=cfg.opt("slack"))
    return (0 if rep.certified else 2), {"domain": entry.id,
                                         "curve": rep.to_json()}


def run_pipeline(command, cfg: RunConfig):
    """Dispatch one pipeline; returns (exit code, result dict)."""
    table = {
        "scan": _cmd_scan,
        "sigma": _cmd_sigma,
        "theta": _cmd_theta,
        "period": _cmd_period,
        "potential": _cmd_potential,
        "certify": _cmd_certify,
        "estimate": _cmd_estimate,
        "caccioppoli": _cmd_caccioppoli,
        "curve": _cmd_curve,
    }
    if command not in table:
        raise ConfigInvalid(f"unknown command {command!r}")
    return table[command](cfg)


def build_parser():
    p = argparse.ArgumentParser(
        prog="dfindex",
        description="Boundary geometry analysis and index certification "
                    "for smoothly bounded pseudoconvex domains")
    p.add_argument("command",
                   choices=["scan", "sigma", "theta", "period", "potential",
                            "certify", "estimate", "caccioppoli", "curve",
                            "zoo"])
    p.add_argument("zoo_action", nargs="?", default="list",
                   help="for 'zoo': list | describe")
    p.add_argument("--config", default=None, help="key=value config file")
    p.add_argument("--domain", default=None)
    p.add_argument("--radius", type=float, default=None)
    p.add_argument("--beta", type=float, default=None)
    p.add_argument("--r", type=float, default=None)
    p.add_argument("--mesh", type=int, default=None)
    p.add_argument("--interior", type=int, default=None)
    p.add_argument("--eta", type=float, default=None)
    p.add_argument("--eta-grid", dest="eta_grid", default=None)
    p.add_argument("--threshold", type=float, default=None)
    p.add_argument("--slack", type=float, default=None)
    p.add_argument("--oracle-slack", dest="oracle_slack", type=float,
                   default=None)
    p.add_argument("--loop", default=None)
    p.add_argument("--chart", default=None)
    p.add_argument("--res", type=int, default=None)
    p.add_argument("--out", default=None)
    p.add_argument("--seed", type=int, default=None)
    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    overrides = {k: getattr(args, k) for k in
                 ("domain", "radius", "beta", "r", "mesh", "interior", "eta",
                  "eta_grid", "threshold", "slack", "oracle_slack", "loop",
                  "chart", "res", "out", "seed")}
    cfg = RunConfig()
    if args.out is not None:
        cfg.values["out"] = args.out
    try:
        cfg = RunConfig.read(args.config, overrides)
        cfg.validate()
        if args.command == "zoo":
            code, res = _cmd_zoo(args, cfg)
            if res is not None:
                emit_report(res, cfg, name="zoo")
            return code
        code, res = run_pipeline(args.command, cfg)
        path = emit_report(res, cfg, name=args.command)
        print(canonical_json(res))
        print(f"report: {path}", file=sys.stderr)
        return code
    except DfIndexError as exc:
        diag = {"error": type(exc).__name__, "message": str(exc)}
        print(json.dumps(diag, sort_keys=True))
        try:
            # the configuration as read, so --out (or out= in the config
            # file) is honoured even when validation failed
            emit_report(diag, cfg, name="error")
        except DfIndexError:
            pass
        return 1


if __name__ == "__main__":
    sys.exit(main())
