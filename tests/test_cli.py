"""CLI contracts: exit codes, deterministic reports, config handling."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

import dfindex
from dfindex.cli import _COMMANDS, _DEFAULTS, RunConfig, build_parser, main
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


def test_ball_oracle_is_scale_invariant(tmp_path):
    # the ball's interior mesh takes its depths in units of the radius, and
    # minScaled is invariant under z -> s z; absolute depths would leave
    # the collar at r = 0.3 (0.12 against 0.066) and raise StencilLeak
    oracles = []
    for radius in ("0.3", "1", "3"):
        out = tmp_path / radius
        assert main(["certify", "--domain", "ball", "--radius", radius,
                     "--mesh", "300", "--interior", "100",
                     "--out", str(out)]) == 0
        rep = json.loads((out / "certify.json").read_text())
        assert rep["certified"]
        oracles.append(rep["oracle"])
    assert all(o["points"] == 100 for o in oracles)
    scaled = [o["minScaled"] for o in oracles]
    assert max(scaled) - min(scaled) <= 1e-9


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


def test_certify_quartic_oracle_at_rounding_level(tmp_path):
    # psi's stencil feet carry no projection residual for the second
    # differences to amplify by 1/h^2: minScaled is -9.2e-17 (projected
    # feet give -3.8e-10)
    code = main(["certify", "--domain", "quartic_circle",
                 "--out", str(tmp_path)])
    assert code == 0
    rep = json.loads((tmp_path / "certify.json").read_text())
    assert rep["oracle"]["minScaled"] >= -1e-12


def test_reports_byte_identical(tmp_path):
    out = tmp_path / "rpt"
    blobs = []
    for _ in range(2):
        code = main(["sigma", "--domain", "quartic_circle", "--mesh", "300",
                     "--seed", "11", "--out", str(out)])
        assert code == 0
        blobs.append((out / "sigma.json").read_bytes())
    assert blobs[0] == blobs[1]


# small sizes of every command that writes a report; each writes its report
# (and any CSV) under --out
EVERY_COMMAND = {
    "sigma": ["sigma", "--domain", "worm", "--mesh", "300"],
    "theta": ["theta", "--domain", "worm", "--res", "9"],
    "period": ["period", "--domain", "worm"],
    "potential": ["potential", "--domain", "bidisc", "--res", "9"],
    "certify": ["certify", "--domain", "bidisc", "--mesh", "300",
                "--interior", "30"],
    "estimate": ["estimate", "--domain", "quartic_circle", "--mesh", "200",
                 "--interior", "40"],
    "zoo describe": ["zoo", "describe", "--domain", "bidisc"],
}


# zoo list prints and writes no report
@pytest.mark.parametrize("command", sorted(set(_COMMANDS) - {"zoo list"}))
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


@pytest.mark.parametrize("command", ["sigma", "theta", "potential"])
def test_io_failure_exit_one(tmp_path, capsys, command):
    # an --out under a file: the report and, for theta and potential, the
    # CSV written before it end in a typed IoFailure
    bad = tmp_path / "file"
    bad.write_text("x")
    code = main(EVERY_COMMAND[command] + ["--out", str(bad / "sub")])
    assert code == 1
    assert json.loads(capsys.readouterr().out)["error"] == "IoFailure"


def test_unknown_domain_exit_one(tmp_path):
    code = main(["sigma", "--domain", "nope", "--out", str(tmp_path)])
    assert code == 1


# every setting's flag, its text and its value after validate()
FLAGS = {
    "domain": ("worm", "worm"),
    "radius": ("2.5", 2.5),
    "beta": ("3.2", 3.2),
    "r": ("0.6", 0.6),
    "mesh": ("123", 123),
    "interior": ("45", 45),
    "eta": ("0.5", 0.5),
    "eta_grid": ("0.5,0.75", "0.5,0.75"),
    "threshold": ("1e-5", 1e-5),
    "slack": ("0.25", 0.25),
    "oracle_slack": ("1e-3", 1e-3),
    "loop": ("core", "core"),
    "chart": ("patch", "patch"),
    "res": ("9", 9),
    "seed": ("7", 7),
    "out": ("rpt", "rpt"),
}


def test_parser_flags():
    assert sorted(FLAGS) == sorted(_DEFAULTS)
    argv = ["certify"]
    for key, (text, _) in FLAGS.items():
        argv += ["--" + key.replace("_", "-"), text]
    args, extra = build_parser().parse_known_args(argv)
    assert args.command == "certify" and args.action is None and not extra
    cfg = RunConfig.load(None, {k: getattr(args, k) for k in FLAGS})
    for key, (_, value) in FLAGS.items():
        assert cfg.values[key] == value, key
        assert type(cfg.values[key]) is type(_DEFAULTS[key]), key



def test_error_json_written_under_out(tmp_path, monkeypatch):
    cwd = tmp_path / "cwd"
    cwd.mkdir()
    monkeypatch.chdir(cwd)
    out = tmp_path / "out"
    assert main(["sigma", "--domain", "nope", "--out", str(out)]) == 1
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
    _assert_config_invalid(["sigma", "--domain", "ball", "--mesh", "0"],
                           tmp_path)


def test_interior_zero(tmp_path):
    _assert_config_invalid(["certify", "--domain", "ball", "--interior",
                            "0"], tmp_path)


def test_config_file_non_numeric(tmp_path):
    out = tmp_path / "from_file"
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text(f"domain = ball\nmesh = many\nout = {out}\n")
    code = main(["sigma", "--config", str(cfgfile)])
    assert code == 1
    diag = json.loads((out / "error.json").read_text())
    assert diag["error"] == "ConfigInvalid"
    assert "mesh" in diag["message"]
    cfgfile.write_text("radius = wide\n")
    _assert_config_invalid(["sigma", "--config", str(cfgfile)], tmp_path)


# (arguments, error): each ends in a typed error with error.json under --out
@pytest.mark.parametrize("flags", [
    (["sigma", "--mesh", "50", "--domain", "bidisc", "--r", "1.5"],
     "ConfigInvalid"),
    (["sigma", "--mesh", "50", "--domain", "ball", "--radius", "-1"],
     "ConfigInvalid"),
    (["sigma", "--mesh", "50", "--domain", "worm", "--beta", "inf"],
     "ConfigInvalid"),
    (["theta", "--domain", "ball"], "ChartMismatch"),
    (["potential", "--domain", "ball"], "ChartMismatch"),
    (["theta", "--domain", "worm", "--chart", "nope"], "ConfigInvalid"),
    (["certify", "--domain", "ball", "--seed", "-1"], "ConfigInvalid"),
    (["theta", "--domain", "worm", "--res", "1"], "ConfigInvalid"),
    (["theta", "--domain", "worm", "--res", "0"], "ConfigInvalid"),
    # the oracle mesh keeps none of its one point
    (["certify", "--domain", "worm", "--interior", "1", "--seed", "2"],
     "MeshOutside")])
def test_bad_domain_parameter(tmp_path, flags):
    argv, error = flags
    assert main(argv + ["--out", str(tmp_path)]) == 1
    diag = json.loads((tmp_path / "error.json").read_text())
    assert diag["error"] == error, diag


# usage errors: a flag value of the wrong type or missing, an unknown flag,
# command, zoo action or config key, and a stray positional
@pytest.mark.parametrize("argv", [
    ["certify", "--mesh", "abc"],
    ["certify", "--mesh"],
    ["certify", "--meshh", "5"],
    ["frobnicate"],
    ["zoo", "frobnicate"],
    ["sigma", "describe", "--mesh", "50"],
    ["sigma", "--mesh", "50", "--config", "{config}"],
])
def test_usage_error_exit_one(tmp_path, argv):
    config = tmp_path / "run.cfg"
    config.write_text("meshh = 100\n")
    out = tmp_path / "out"
    diag = _assert_config_invalid([a.format(config=config) for a in argv],
                                  out)
    assert diag["config"]["out"] == str(out)
    assert sorted(os.listdir(out)) == ["error.json"]


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


def test_unsampled_sigma_certifies_nothing(tmp_path):
    # --mesh 3 plants int(3 * 0.25) = 0 of the worm's Sigma points and the
    # scan keeps none: the criterion has no sample but Sigma is not empty
    flags = ["--domain", "worm", "--mesh", "3", "--eta", "0.5",
             "--eta-grid", "0.5,0.99", "--out", str(tmp_path)]
    assert main(["certify"] + flags) == 2
    rep = json.loads((tmp_path / "certify.json").read_text())
    assert rep["sigmaSize"] == 0
    assert rep["verdict"]["classification"] == "Obstructed"
    crit = rep["criterion"]
    assert crit["vacuous"] and not crit["certified"] and crit["reason"]
    assert not rep["certified"]
    assert main(["estimate"] + flags) == 0
    cert = json.loads((tmp_path / "estimate.json").read_text())["certificate"]
    assert cert["diagnostics"]["sigmaSize"] == 0
    assert not any(r["certified"] for r in cert["records"])
    assert all(r["oracle"] is None for r in cert["records"])
    assert cert["bound"] == 0.0


def test_empty_sigma_stays_vacuous_and_certified(tmp_path):
    assert main(["certify", "--domain", "ball", "--mesh", "3", "--interior",
                 "60", "--out", str(tmp_path)]) == 0
    rep = json.loads((tmp_path / "certify.json").read_text())
    assert rep["sigmaSize"] == 0
    crit = rep["criterion"]
    assert crit["vacuous"] and crit["certified"] and "reason" not in crit
    assert rep["certified"]


def test_slack_reaches_curve_certificate(tmp_path):
    def curve(extra):
        out = tmp_path / f"certify{len(extra)}"
        main(["certify", "--domain", "quartic_circle", "--interior", "20",
              "--out", str(out)] + extra)
        return json.loads((out / "certify.json").read_text())["criterion"]

    assert curve([])["slack"] == 1e-8
    assert curve(["--slack", "0.5"])["slack"] == 0.5


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


@pytest.mark.parametrize("argv", [
    ["sigma", "--domain", "worm", "--mesh", "300"],
    ["estimate", "--domain", "quartic_circle", "--interior", "400"],
    ["certify", "--domain", "bidisc", "--mesh", "400", "--interior", "40"],
])
def test_a_run_imports_no_numpy_ma(tmp_path, argv):
    # np.median's NaN check imports numpy.ma on first use, which costs a
    # fresh process about 19 ms; the Levi scale and the mesh pitch take
    # util.median instead
    script = f"""
import sys
from dfindex.cli import main
assert main({argv + ["--out", str(tmp_path)]!r}) == 0
assert "numpy.ma" not in sys.modules, "the run imported numpy.ma"
print("ok")
"""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.dirname(os.path.dirname(dfindex.__file__))]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip().splitlines()[-1] == "ok"
