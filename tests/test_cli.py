"""CLI contracts: exit codes, deterministic reports, config handling."""

import json
import os

import numpy as np
import pytest

from dfindex.cli import RunConfig, build_parser, main
from dfindex.errors import ConfigInvalid
from dfindex.util import config_hash


def run(args, capsys=None):
    code = main(args)
    return code


def test_zoo_list(capsys):
    assert main(["zoo", "list"]) == 0
    out = capsys.readouterr().out
    assert "worm" in out and "ball" in out


def test_zoo_describe(tmp_path, capsys):
    code = main(["zoo", "describe", "--domain", "worm",
                 "--out", str(tmp_path)])
    assert code == 0
    assert "log_polar" in capsys.readouterr().out


def test_config_file_and_overrides(tmp_path):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("domain = worm\nmesh = 123\n# comment\nseed = 7\n")
    cfg = RunConfig.load(str(cfgfile), {"seed": 9})
    assert cfg.values["domain"] == "worm"
    assert cfg.values["mesh"] == 123
    assert cfg.values["seed"] == 9


def test_config_invalid():
    with pytest.raises(ConfigInvalid):
        RunConfig.load(None, {"eta": 2.0})


def test_config_hash_matches_independent_hash(tmp_path):
    cfg = RunConfig.load(None, {"domain": "ball"})
    expected = config_hash({k: cfg.values[k] for k in sorted(cfg.values)
                            if k != "out"})
    assert cfg.hash() == expected


def test_certify_ball_exit_zero(tmp_path):
    code = main(["certify", "--domain", "ball", "--eta", "0.99",
                 "--mesh", "400", "--interior", "300",
                 "--out", str(tmp_path)])
    assert code == 0
    rep = json.loads((tmp_path / "certify.json").read_text())
    assert rep["certified"] is True
    assert rep["configHash"]


def test_certify_worm_exit_two_with_obstruction(tmp_path):
    code = main(["certify", "--domain", "worm", "--eta", "0.99",
                 "--mesh", "900", "--interior", "250",
                 "--out", str(tmp_path)])
    assert code == 2
    rep = json.loads((tmp_path / "certify.json").read_text())
    assert rep["obstruction"]["classification"] == "Obstructed"
    assert abs(rep["verdict"]["periods"][0] + np.pi) < 0.05


def test_period_worm_nonzero(tmp_path):
    code = main(["period", "--domain", "worm", "--loop", "core",
                 "--out", str(tmp_path)])
    assert code == 0
    rep = json.loads((tmp_path / "period.json").read_text())
    assert abs(rep["loop"]["period"] + np.pi) < 0.05
    assert rep["verdict"]["classification"] == "Obstructed"


def test_theta_csv_written(tmp_path):
    code = main(["theta", "--domain", "worm", "--chart", "patch",
                 "--res", "5", "--out", str(tmp_path)])
    assert code == 0
    assert (tmp_path / "theta_worm_patch.csv").exists()


def test_caccioppoli_command(tmp_path):
    code = main(["caccioppoli", "--out", str(tmp_path)])
    assert code == 0
    rep = json.loads((tmp_path / "caccioppoli.json").read_text())
    assert all(case["ok"] for case in rep["cases"])


def test_curve_command(tmp_path):
    code = main(["curve", "--domain", "quartic_circle", "--eta", "0.99",
                 "--out", str(tmp_path)])
    assert code == 0


def test_reports_byte_identical(tmp_path):
    out = tmp_path / "rpt"
    blobs = []
    for _ in range(2):
        code = main(["scan", "--domain", "quartic_circle", "--mesh", "300",
                     "--seed", "11", "--out", str(out)])
        assert code == 0
        blobs.append((out / "scan.json").read_bytes())
    assert blobs[0] == blobs[1]


# small sizes of every command; each writes its report (and any CSV) under
# --out
EVERY_COMMAND = {
    "scan": ["scan", "--domain", "worm", "--mesh", "300"],
    "sigma": ["sigma", "--domain", "worm", "--mesh", "300"],
    "theta": ["theta", "--domain", "worm", "--res", "9"],
    "period": ["period", "--domain", "worm"],
    "potential": ["potential", "--domain", "bidisc", "--res", "9"],
    "certify": ["certify", "--domain", "bidisc", "--mesh", "300",
                "--interior", "30"],
    "estimate": ["estimate", "--domain", "quartic_circle", "--mesh", "200",
                 "--interior", "40"],
    "caccioppoli": ["caccioppoli"],
    "curve": ["curve", "--domain", "quartic_circle"],
    "zoo describe": ["zoo", "describe", "--domain", "bidisc"],
}


@pytest.mark.parametrize("command", sorted(EVERY_COMMAND))
def test_every_command_byte_identical(tmp_path, command):
    written = []
    for _ in range(2):
        code = main(EVERY_COMMAND[command] + ["--out", str(tmp_path)])
        assert code in (0, 2)
        written.append({f.name: f.read_bytes()
                        for f in sorted(tmp_path.iterdir())})
    assert len(written[0]) >= 1
    if command in ("theta", "potential"):
        assert any(name.endswith(".csv") for name in written[0])
    assert written[0] == written[1]


def test_io_failure_exit_one(tmp_path):
    bad = tmp_path / "file"
    bad.write_text("x")
    code = main(["scan", "--domain", "ball", "--mesh", "100",
                 "--out", str(bad / "sub")])
    assert code == 1


def test_unknown_domain_exit_one(tmp_path):
    code = main(["scan", "--domain", "nope", "--out", str(tmp_path)])
    assert code == 1


def test_parser_flags():
    p = build_parser()
    args = p.parse_args(["certify", "--domain", "worm", "--eta", "0.5",
                         "--beta", "3.2"])
    assert args.command == "certify"
    assert args.beta == 3.2



def test_error_json_written_under_out(tmp_path, monkeypatch):
    cwd = tmp_path / "cwd"
    cwd.mkdir()
    monkeypatch.chdir(cwd)
    out = tmp_path / "out"
    assert main(["scan", "--domain", "nope", "--out", str(out)]) == 1
    diag = json.loads((out / "error.json").read_text())
    assert diag["error"] == "ConfigInvalid"
    assert diag["config"]["domain"] == "nope"
    assert not (cwd / "dfindex_out").exists()


def _assert_config_invalid(argv, out):
    assert main(argv + ["--out", str(out)]) == 1
    diag = json.loads((out / "error.json").read_text())
    assert diag["error"] == "ConfigInvalid", diag
    return diag


def test_eta_grid_not_numeric(tmp_path):
    diag = _assert_config_invalid(
        ["estimate", "--domain", "ball", "--eta-grid", "foo"], tmp_path)
    assert "eta_grid" in diag["message"]
    with pytest.raises(ConfigInvalid):
        RunConfig.load(None, {"eta_grid": "0.5,,0.9"})


@pytest.mark.parametrize("grid", ["1.5", "0.5,1.0", "0", "-0.2,0.5", "nan"])
def test_eta_grid_outside_unit_interval(tmp_path, grid):
    _assert_config_invalid(["estimate", "--domain", "ball",
                            f"--eta-grid={grid}"], tmp_path)


def test_mesh_zero(tmp_path):
    _assert_config_invalid(["scan", "--domain", "ball", "--mesh", "0"],
                           tmp_path)


def test_interior_zero(tmp_path):
    _assert_config_invalid(["certify", "--domain", "ball", "--interior",
                            "0"], tmp_path)


def test_config_file_non_numeric(tmp_path):
    out = tmp_path / "from_file"
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text(f"domain = ball\nmesh = many\nout = {out}\n")
    code = main(["scan", "--config", str(cfgfile)])
    assert code == 1
    diag = json.loads((out / "error.json").read_text())
    assert diag["error"] == "ConfigInvalid"
    assert "mesh" in diag["message"]
    cfgfile.write_text("radius = wide\n")
    _assert_config_invalid(["scan", "--config", str(cfgfile)], tmp_path)


# (arguments, error): each ends in a typed error with error.json under --out
@pytest.mark.parametrize("flags", [
    (["scan", "--mesh", "50", "--domain", "bidisc", "--r", "1.5"],
     "ConfigInvalid"),
    (["scan", "--mesh", "50", "--domain", "ball", "--radius", "-1"],
     "ConfigInvalid"),
    (["scan", "--mesh", "50", "--domain", "worm", "--beta", "inf"],
     "ConfigInvalid"),
    (["theta", "--domain", "ball"], "ChartMismatch"),
    (["potential", "--domain", "ball"], "ChartMismatch"),
    (["theta", "--domain", "worm", "--chart", "nope"], "ConfigInvalid"),
    (["certify", "--domain", "ball", "--seed", "-1"], "ConfigInvalid"),
    (["theta", "--domain", "worm", "--res", "1"], "ConfigInvalid"),
    (["theta", "--domain", "worm", "--res", "0"], "ConfigInvalid")])
def test_bad_domain_parameter(tmp_path, flags):
    argv, error = flags
    assert main(argv + ["--out", str(tmp_path)]) == 1
    diag = json.loads((tmp_path / "error.json").read_text())
    assert diag["error"] == error, diag


def test_threshold_reaches_certify_and_estimate(tmp_path):
    flags = ["--domain", "worm", "--mesh", "800", "--interior", "20",
             "--eta-grid", "0.5"]

    def size(cmd, extra, key):
        out = tmp_path / f"{cmd}{len(extra)}"
        main([cmd] + flags + extra + ["--out", str(out)])
        rep = json.loads((out / f"{cmd}.json").read_text())
        return key(rep)

    sigma = size("sigma", ["--threshold", "1e-4"], lambda r: r["sigmaSize"])
    assert sigma != size("sigma", [], lambda r: r["sigmaSize"])
    assert size("certify", ["--threshold", "1e-4"],
                lambda r: r["sigmaSize"]) == sigma
    assert size("estimate", ["--threshold", "1e-4"], lambda r: r[
        "certificate"]["diagnostics"]["sigmaSize"]) == sigma


def test_slack_reaches_curve_certificate(tmp_path):
    def curve(cmd, extra):
        out = tmp_path / f"{cmd}{len(extra)}"
        main([cmd, "--domain", "quartic_circle", "--interior", "20",
              "--out", str(out)] + extra)
        return json.loads((out / f"{cmd}.json").read_text())["curve"]

    assert curve("curve", [])["slack"] == 1e-8
    assert curve("curve", ["--slack", "0.5"])["slack"] == 0.5
    assert curve("certify", ["--slack", "0.5"])["slack"] == 0.5


def test_oracle_slack_flag(tmp_path):
    main(["certify", "--domain", "ball", "--mesh", "100", "--interior", "20",
          "--oracle-slack", "1e-3", "--out", str(tmp_path)])
    rep = json.loads((tmp_path / "certify.json").read_text())
    assert rep["oracle"]["slackRel"] == 1e-3
    assert rep["config"]["oracle_slack"] == 1e-3
    diag = _assert_config_invalid(["certify", "--domain", "ball",
                                   "--oracle-slack", "0"], tmp_path)
    assert "oracle_slack" in diag["message"]


@pytest.mark.parametrize("domain", ["ball", "bidisc", "quartic_circle",
                                    "worm"])
def test_zoo_describe_byte_identical(tmp_path, domain):
    blobs = []
    for _ in range(2):
        assert main(["zoo", "describe", "--domain", domain,
                     "--out", str(tmp_path)]) == 0
        blobs.append((tmp_path / "zoo.json").read_bytes())
    assert blobs[0] == blobs[1]
    assert b"0x" not in blobs[0]
