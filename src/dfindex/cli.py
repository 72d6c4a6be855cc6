"""Batch front end: configuration, pipelines, reproducible reports.

Exit codes: 0 success/certified, 2 not certified, 1 error.  Every bad
input -- an unknown command, flag or config key, a value of the wrong type
or out of range, a domain or pipeline failure -- ends in a typed
DfIndexError, exit code 1 and an error.json under --out.  Reports are
deterministic JSON (sorted keys, 12-significant-digit floats, config hash
embedded); grids go to CSV next to the report.

_DEFAULTS is the one home of every setting's default (only pipelines.Run's
fields repeat some, for runs built outside the CLI): each key is a
config-file key and a --key flag (with - for _), read as text and
converted to its default's type by RunConfig.validate.  _COMMANDS is the
one list of commands, one per pipeline stage: the Levi scan (sigma), the
1-form on a chart (theta), its periods (period) and potential
(potential), the certificate at one eta (certify) and over a grid
(estimate), which both report Run.decide's psi and checks, and the zoo's
entries; all but theta and zoo read their stages from a Run.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from dataclasses import dataclass, field

import numpy as np

from . import zoo
from .errors import ChartMismatch, ConfigInvalid, DfIndexError, IoFailure
from .levi import mesh_pitch
from .pipelines import Run
from .sigma import dtheta_residual, real_one_form_at, theta_components
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
    def load(path, overrides):
        return RunConfig.read(path, overrides).validate()

    @staticmethod
    def read(path, overrides):
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
        for k, v in overrides.items():
            if v is not None:
                cfg.values[k] = v
        return cfg

    def validate(self):
        unknown = sorted(set(self.values) - set(_DEFAULTS))
        if unknown:
            raise ConfigInvalid(f"unknown setting(s) {', '.join(unknown)}")
        for key, default in _DEFAULTS.items():
            kind = type(default)
            if kind is str:
                continue
            try:
                self.values[key] = kind(self.values[key])
            except (TypeError, ValueError):
                raise ConfigInvalid(f"{key} must be {kind.__name__}, got "
                                    f"{self.values[key]!r}") from None
            value = self.values[key]
            if kind is float and not np.isfinite(value):
                raise ConfigInvalid(f"{key} must be finite")
            if kind is int and not -2 ** 63 <= value < 2 ** 63:
                raise ConfigInvalid(f"{key} must fit in int64, got {value}")
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
    """The zoo entry of --domain, built from the configuration."""
    name = cfg.values["domain"]
    if name not in zoo.REGISTRY:
        raise ConfigInvalid(f"unknown domain {name!r}")
    return zoo.REGISTRY[name](cfg.values)


def emit_report(results: dict, cfg: RunConfig, name):
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


def _write_csv(cfg, name, header, rows, formats):
    """The CSV name under --out: header, then the rows of the 2-d array
    rows, column j written with the %-format formats[j]; IoFailure on
    unwritable paths."""
    out = cfg.values["out"]
    try:
        os.makedirs(out, exist_ok=True)
        with open(os.path.join(out, name), "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(header)
            w.writerows([f % v for f, v in zip(formats, row)]
                        for row in rows)
    except OSError as exc:
        raise IoFailure(f"cannot write {name}: {exc}")
    return name


def _cmd_zoo_list(cfg):
    """the zoo's domain ids"""
    print("\n".join(sorted(zoo.REGISTRY)))
    return 0, None


def _cmd_zoo_describe(cfg):
    """--domain's charts, loops and box"""
    return 0, {"describe": make_entry(cfg).describe()}


def _run(cfg):
    return Run(make_entry(cfg), mesh_count=cfg.values["mesh"],
               seed=cfg.values["seed"], oracle_count=cfg.values["interior"],
               slack=cfg.opt("slack"), oracle_slack=cfg.values["oracle_slack"],
               threshold=cfg.opt("threshold"))


def _cmd_sigma(cfg):
    """Levi scan: Sigma, its Levi values and the mesh pitch"""
    run = _run(cfg)
    entry, mesh, sigma = run.entry, run.mesh, run.sigma
    res = {"domain": entry.id, "meshPoints": int(mesh.shape[0]),
           "sigmaSize": sigma.size, "threshold": sigma.threshold,
           "leviScale": sigma.levi_scale, "meshPitch": mesh_pitch(mesh),
           "lambdaMin": sigma.lambda_min.tolist()[:64]}
    if entry.sigma_distance is not None and sigma.size:
        res["maxDistToDescribedSigma"] = float(
            entry.sigma_distance(sigma.points).max())
    return 0, res


def _cmd_theta(cfg):
    """the 1-form theta on a chart grid (--chart, --res), with a CSV"""
    entry = make_entry(cfg)
    if not entry.charts:
        raise ChartMismatch(f"domain {entry.id} has no chart")
    chart_name = cfg.values["chart"] or sorted(entry.charts)[0]
    if chart_name not in entry.charts:
        raise ConfigInvalid(f"unknown chart {chart_name!r}")
    chart = entry.charts[chart_name]
    U, shape = chart.grid(cfg.values["res"])
    residual = None
    if chart.kind == "complex":
        comps = theta_components(chart, U)
        hstep = float(chart.hi[0] - chart.lo[0]) / (shape[0] - 1)
        interior = U[(U[:, 0] < chart.hi[0] - hstep) &
                     (U[:, 1] < chart.hi[1] - hstep)]
        if interior.size:
            residual = dtheta_residual(chart, interior, hstep)
    else:
        comps = real_one_form_at(chart, U)[:, None]
    P = chart.embed_batch(U)
    table = np.hstack([U, P, comps])
    header = [f"u{a}" for a in range(U.shape[1])] \
        + [f"pos{a}" for a in range(P.shape[1])] \
        + [f"comp{a}" for a in range(comps.shape[1])]
    res = {"domain": entry.id, "chart": chart_name,
           "maxAbsComponent": float(np.max(np.abs(comps))),
           "csv": _write_csv(cfg, f"theta_{entry.id}_{chart_name}.csv",
                             header, table, ["%.12e"] * table.shape[1])}
    if residual is not None:
        res["maxClosednessResidual"] = float(np.max(residual))
    return 0, res


def _cmd_period(cfg):
    """periods of theta around the generator loops (--loop)"""
    run = _run(cfg)
    verdict = run.verdict
    values = dict(zip(verdict["generators"], verdict["periods"]))
    res = {"domain": run.entry.id, "verdict": verdict, "periods": values}
    if cfg.values["loop"]:
        name = cfg.values["loop"]
        if name not in values:
            raise ConfigInvalid(f"unknown loop {name!r}")
        res["loop"] = {"name": name, "period": values[name]}
    return 0, res


def _cmd_potential(cfg):
    """the potential phi of an exact theta, with a CSV"""
    run = _run(cfg)
    entry = run.entry
    phi = run.potential(max(9, cfg.values["res"] // 2))
    K, p = phi.params.shape
    labels = np.zeros(len(phi.values)) if phi.labels is None else phi.labels
    table = np.column_stack([np.tile(phi.params, (len(labels), 1)),
                             np.repeat(labels, K), phi.values.ravel()])
    res = {"domain": entry.id,
           "gradientResidual": float(np.max(phi.gradient_residuals)),
           # largest lattice-cycle residual
           "pathDisagreement": float(phi.path_disagreement),
           "maxAbsPhi": float(np.max(np.abs(phi.values))),
           "csv": _write_csv(cfg, f"potential_{entry.id}.csv",
                             [f"u{a}" for a in range(p)] + ["leaf", "phi"],
                             table, ["%.12e"] * p + ["%.6f", "%.12e"])}
    return 0, res


def _cmd_certify(cfg):
    """boundary check (criterion or curve) and interior oracle at --eta"""
    res = _run(cfg).certify(cfg.values["eta"])
    return (0 if res["certified"] else 2), res


def _cmd_estimate(cfg):
    """largest certified eta on --eta-grid"""
    run = _run(cfg)
    cert = run.estimate(cfg.eta_grid())
    return 0, {"domain": run.entry.id, "certificate": cert,
               "bound": cert["bound"]}


# command -> function of the configuration returning (exit code, report or
# None); the report goes to <first word>.json under --out
_COMMANDS = {
    "sigma": _cmd_sigma,
    "theta": _cmd_theta,
    "period": _cmd_period,
    "potential": _cmd_potential,
    "certify": _cmd_certify,
    "estimate": _cmd_estimate,
    "zoo list": _cmd_zoo_list,
    "zoo describe": _cmd_zoo_describe,
}


class _Parser(argparse.ArgumentParser):
    """argparse whose usage errors raise ConfigInvalid instead of exiting."""

    def error(self, message):
        raise ConfigInvalid(message)


def build_parser():
    """One --key flag, read as text, per _DEFAULTS entry; the commands'
    help comes from _COMMANDS."""
    p = _Parser(
        prog="dfindex",
        description="Boundary geometry analysis and index certification "
                    "for smoothly bounded pseudoconvex domains",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog="commands:\n" + "\n".join(
            f"  {name:<14} {fn.__doc__}" for name, fn in _COMMANDS.items()))
    p.add_argument("command", help="a command below; zoo alone lists")
    p.add_argument("action", nargs="?", help="list | describe, for zoo")
    p.add_argument("--config", help="key=value config file")
    for key, default in _DEFAULTS.items():
        p.add_argument("--" + key.replace("_", "-"), dest=key,
                       help=f"default {default!r}")
    return p


def main(argv=None):
    cfg = RunConfig()
    try:
        # --out alone first, so that error.json goes there even when the
        # full parse fails (a flag without its value)
        out = _Parser(add_help=False)
        out.add_argument("--out", default=cfg.values["out"])
        cfg.values["out"] = out.parse_known_args(argv)[0].out
        args, extra = build_parser().parse_known_args(argv)
        cfg = RunConfig.read(args.config,
                             {k: getattr(args, k) for k in _DEFAULTS})
        if extra:
            raise ConfigInvalid(f"unrecognized arguments: {' '.join(extra)}")
        command = " ".join(filter(None, (args.command, args.action)))
        command = {"zoo": "zoo list"}.get(command, command)
        if command not in _COMMANDS:
            raise ConfigInvalid(f"unknown command {command!r}; one of "
                                f"{', '.join(_COMMANDS)}")
        cfg.validate()
        code, res = _COMMANDS[command](cfg)
        if res is not None:
            path = emit_report(res, cfg, name=command.split()[0])
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
