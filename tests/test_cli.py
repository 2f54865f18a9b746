import argparse
import ctypes
import json
import math
import os
import resource
import stat
import subprocess
import sys
import threading

import pytest

import chordalqc
from chordalqc import cli, schwarz
from chordalqc.cli import main
from chordalqc.maps import parse_map_spec

FAST_GRID = ["--points-per-decade", "8", "--y-count", "33", "--y-max", "10"]


def run(args):
    return main(args)


def failed_run(capsys, args) -> str:
    """Stderr of a run that exits 1 with nothing on stdout, whether a flag's
    argparse type rejects a value (SystemExit) or the command fails."""
    try:
        code = run(args)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    return captured.err


def test_maps_list_text(capsys):
    assert run(["maps-list"]) == 0
    out = capsys.readouterr().out
    for name in ("identity", "cayley", "half-strip-g", "perturbed-identity:<c>"):
        assert name in out


def test_maps_list_json(tmp_path):
    out = tmp_path / "maps.json"
    assert run(["maps-list", "--format", "json", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert any(e["spec"] == "counterexample-f" for e in doc)


def test_eval_csv(tmp_path):
    out = tmp_path / "jet.csv"
    assert run(["eval", "--map", "square", "--z", "1+0i", "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "z_re,z_im,c0_re,c0_im,c1_re,c1_im,c2_re,c2_im,c3_re,c3_im"
    vals = [float(v) for v in lines[1].split(",")]
    assert vals[2::2] == [1.0, 2.0, 2.0, 0.0]


def test_eval_json(tmp_path):
    out = tmp_path / "jet.json"
    assert run(["eval", "--map", "square", "--z", "1+0i", "--format", "json",
                "--out", str(out)]) == 0
    assert json.loads(out.read_text()) == {"map": "square", "jets": [
        {"z": [1.0, 0.0], "coeffs": [[1.0, 0.0], [2.0, 0.0], [2.0, 0.0], [0.0, 0.0]]}
    ]}


def test_norms_identity_zero_rows(tmp_path):
    out = tmp_path / "norms.csv"
    code = run(["norms", "--map", "identity", "--t", "1,0.1,0.01", *FAST_GRID,
                "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0].split(",")[:3] == ["t", "beta", "sigma"]
    assert len(lines) == 4
    for line in lines[1:]:
        t, beta, sigma = (float(v) for v in line.split(",")[:3])
        assert beta == 0.0 and sigma == 0.0


def test_horizon_json_and_failure(tmp_path):
    out = tmp_path / "h.json"
    assert run(["horizon", "--map", "perturbed-identity:0.3", "--k", "0.5",
                *FAST_GRID, "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert 0 < doc["t_star"] <= 1.0

    out2 = tmp_path / "h2.json"
    code = run(["horizon", "--map", "square", "--k", "0.5", *FAST_GRID,
                "--out", str(out2)])
    assert code == 2
    assert "no horizon at level" in json.loads(out2.read_text())["error"]


def test_horizon_with_t_max_at_x_min_scans_one_level(capsys):
    assert run(["horizon", "--map", "identity", "--t-max", "1e-4"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["levels_scanned"] == 1 and doc["t_star"] == 1e-4


def test_evolve_reproducible(tmp_path):
    args = ["evolve", "--map", "perturbed-identity:0.3", "--t", "0.02",
            "--z", "1+1i", "--step", "0.005", *FAST_GRID]
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run(args + ["--out", str(out1)]) == 0
    assert run(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    lines = out1.read_text().strip().splitlines()
    assert lines[0] == "s,t,z0_re,z0_im,z_re,z_im,step,residual_estimate"
    assert len(lines) == 6  # 0.02/0.005 steps plus the start row


def test_pde_check_passes(tmp_path):
    out = tmp_path / "pde.json"
    code = run(["pde-check", "--map", "perturbed-identity:0.3", "--samples", "200",
                "--seed", "0", *FAST_GRID, "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["pass"] and doc["max_residual"] <= doc["tol"]


def test_extend_values(tmp_path):
    out = tmp_path / "ext.csv"
    code = run(["extend", "--map", "identity", "--z=-0.05+1i;0.5+0i",
                *FAST_GRID, "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 3
    r0 = [float(v) for v in lines[1].split(",")]
    assert r0 == [-0.05, 1.0, -0.05, 1.0]


def test_extend_reads_a_bare_signed_unit(capsys):
    assert run(["extend", "--map", "identity", "--z=-i;-0.5-i", "--tau", "1"]) == 0
    assert capsys.readouterr().out.splitlines()[1:] == ["0.0,-1.0,0.0,-1.0", "-0.5,-1.0,-0.5,-1.0"]


def test_verify_mu_pass_and_exit_codes(tmp_path):
    out = tmp_path / "mu.json"
    code = run(["verify-mu", "--map", "perturbed-identity:0.3", "--k", "0.5",
                "--nx", "9", "--ny", "9", *FAST_GRID, "--summary-only",
                "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["summary"]["pass"] is True
    assert doc["summary"]["max_mu_formula"] <= 0.25 + 1e-9

    out2 = tmp_path / "mu2.json"
    code = run(["verify-mu", "--map", "square", "--tau", "0.1", "--nx", "7",
                "--ny", "9", *FAST_GRID, "--summary-only", "--out", str(out2)])
    assert code == 2
    assert json.loads(out2.read_text())["summary"]["pass"] is False


def test_trace_check(tmp_path):
    out = tmp_path / "trace.json"
    code = run(["trace-check", "--map", "counterexample-f", "--nx", "9", "--ny", "9",
                *FAST_GRID, "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["pass"] and doc["max_difference"] <= 1e-12


def test_carleson_csv_and_json(tmp_path):
    base = ["carleson", "--map", "perturbed-identity:0.3", "--density", "vmoa",
            "--scales", "1,0.25", "--positions", "0", *FAST_GRID]
    out = tmp_path / "c.csv"
    assert run(base + ["--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "scale,center_y,ratio"
    assert len(lines) == 3

    out2 = tmp_path / "c.json"
    assert run(base + ["--format", "json", "--out", str(out2)]) == 0
    doc = json.loads(out2.read_text())
    assert set(doc) >= {"norm_estimate", "per_scale_max", "vanishing"}


def test_mu_tilde_decomposition(tmp_path):
    out = tmp_path / "mt.json"
    code = run(["mu-tilde", "--map", "perturbed-identity:0.3", "--t", "0.25",
                "--scales", "0.125,0.5", *FAST_GRID, "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert len(doc["boxes"]) == 2
    for box in doc["boxes"]:
        assert box["defect"] <= 1e-9


def test_mu_tilde_outer_none_defaults_to_scales_inside_the_strip(capsys):
    assert run(["mu-tilde", "--map", "perturbed-identity:0.3", "--outer", "none", *FAST_GRID]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert [b["scale"] for b in doc["boxes"]] == [doc["t"], doc["t"] / 2]
    for box in doc["boxes"]:
        assert box["outer"] == 0.0 and box["defect"] <= 1e-9


def test_config_file_defaults_and_flag_priority(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"k": 0.25, "t-max": 0.5}))
    out = tmp_path / "h.json"
    assert run(["horizon", "--map", "identity", "--config", str(cfg), *FAST_GRID,
                "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["k"] == 0.25 and doc["t_star"] == 0.5
    # explicit flag wins over the config value
    assert run(["horizon", "--map", "identity", "--config", str(cfg), "--k", "0.4",
                *FAST_GRID, "--out", str(out)]) == 0
    assert json.loads(out.read_text())["k"] == 0.4
    # an abbreviated flag wins too
    cfg.write_text(json.dumps({"points-per-decade": 16}))
    assert run(["horizon", "--map", "identity", "--config", str(cfg), "--points", "8",
                "--y-count", "33", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["levels_scanned"] == 33
    # a string value is converted like the command line's text
    cfg.write_text(json.dumps({"k": "0.25"}))
    assert run(["horizon", "--map", "identity", "--config", str(cfg), *FAST_GRID,
                "--out", str(out)]) == 0
    assert json.loads(out.read_text())["k"] == 0.25
    # null leaves the flag at its default, as false does
    cfg.write_text(json.dumps({"k": 0.25, "t-max": None}))
    assert run(["horizon", "--map", "identity", "--config", str(cfg), *FAST_GRID,
                "--out", str(out)]) == 0
    assert json.loads(out.read_text())["t_star"] == 1.0
    # and a bad value is a usage error
    cfg.write_text(json.dumps({"k": "abc"}))
    with pytest.raises(SystemExit) as exc:
        run(["horizon", "--map", "identity", "--config", str(cfg), *FAST_GRID])
    assert exc.value.code == 1
    assert "argument --k: invalid float value: 'abc'" in capsys.readouterr().err
    # the file may supply required flags: the same bytes as the flags given directly
    cfg.write_text(json.dumps({"map": "identity", "z": "1+1i"}))
    assert run(["eval", "--config", str(cfg)]) == 0
    from_file = capsys.readouterr().out
    assert run(["eval", "--map", "identity", "--z", "1+1i"]) == 0
    assert capsys.readouterr().out == from_file
    # a required flag missing from both the file and the command line
    cfg.write_text(json.dumps({"map": "identity"}))
    with pytest.raises(SystemExit) as exc:
        run(["eval", "--config", str(cfg)])
    assert exc.value.code == 1
    assert "the following arguments are required: --z" in capsys.readouterr().err
    # a file that cannot be parsed or opened is an error naming --config
    cfg.write_text("{bad")
    assert run(["eval", "--config", str(cfg)]) == 1
    assert capsys.readouterr().err == (f"chordalqc: error: --config {cfg}: Expecting property "
                                       "name enclosed in double quotes: line 1 column 2 (char 1)\n")
    missing = tmp_path / "missing.json"
    assert run(["eval", "--config", str(missing)]) == 1
    assert capsys.readouterr().err == (f"chordalqc: error: --config {missing}: [Errno 2] "
                                       f"No such file or directory: '{missing}'\n")
    # and so is valid JSON that is not an object
    cfg.write_text("[1, 2]")
    assert run(["eval", "--config", str(cfg)]) == 1
    assert capsys.readouterr().err == "chordalqc: error: --config must contain a JSON object\n"


def test_map_type_calls_the_parser_bound_when_the_command_runs(monkeypatch):
    # a tracer may rebind cli.parse_map_spec after import: --map must go through it
    seen = []

    def spy(spec):
        seen.append(spec)
        return parse_map_spec(spec)

    monkeypatch.setattr(cli, "parse_map_spec", spy)
    assert run(["eval", "--map", "identity", "--z", "1"]) == 0
    assert seen == ["identity"]


def test_usage_errors_exit_one(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["eval", "--map", "not-a-map", "--z", "1"])
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        run(["eval", "--map", "identity"])  # missing --z
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        run(["no-such-command"])
    assert exc.value.code == 1


@pytest.mark.parametrize("command", ["pde-check", "verify-mu", "trace-check", "mu-tilde"])
def test_json_only_commands_reject_format(capsys, command):
    with pytest.raises(SystemExit) as exc:
        run([command, "--map", "identity", "--format", "csv"])
    assert exc.value.code == 1
    assert "unrecognized arguments: --format csv" in capsys.readouterr().err


# every subcommand's options with (default, choices, required): a flag that the
# subcommand builder drops, adds or changes fails the flag-table test
FLAG_TABLE = {
    "maps-list": {
        "--config": (None, None, False), "--format": ("text", ("text", "json"), False),
        "--out": (None, None, False),
    },
    "eval": {
        "--config": (None, None, False), "--format": ("csv", ("csv", "json"), False),
        "--map": (None, None, True), "--out": (None, None, False), "--z": (None, None, True),
    },
    "norms": {
        "--config": (None, None, False), "--format": ("csv", ("csv", "json"), False),
        "--map": (None, None, True), "--out": (None, None, False),
        "--points-per-decade": (64, None, False), "--t": (None, None, True),
        "--x-min": (0.0001, None, False), "--y-count": (257, None, False),
        "--y-max": (20.0, None, False),
    },
    "horizon": {
        "--config": (None, None, False), "--format": ("json", ("csv", "json"), False),
        "--k": (0.5, None, False), "--map": (None, None, True), "--out": (None, None, False),
        "--points-per-decade": (64, None, False), "--t-max": (1.0, None, False),
        "--variant": ("schwarzian", ("schwarzian", "pre-schwarzian"), False),
        "--x-min": (0.0001, None, False), "--y-count": (257, None, False),
        "--y-max": (20.0, None, False),
    },
    "evolve": {
        "--config": (None, None, False), "--format": ("csv", ("csv", "json"), False),
        "--k": (0.5, None, False), "--map": (None, None, True), "--out": (None, None, False),
        "--points-per-decade": (64, None, False), "--s": (0.0, None, False),
        "--step": (0.001, None, False), "--t": (None, None, True), "--tau": (None, None, False),
        "--variant": ("schwarzian", ("schwarzian", "pre-schwarzian"), False),
        "--x-min": (0.0001, None, False), "--y-count": (257, None, False),
        "--y-max": (20.0, None, False), "--z": (None, None, True),
    },
    "pde-check": {
        "--config": (None, None, False), "--k": (0.5, None, False), "--map": (None, None, True),
        "--out": (None, None, False), "--points-per-decade": (64, None, False),
        "--samples": (10000, None, False), "--seed": (0, None, False),
        "--t-cap": (0.05, None, False), "--tol": (1e-10, None, False),
        "--variant": ("schwarzian", ("schwarzian", "pre-schwarzian"), False),
        "--x-min": (0.0001, None, False), "--y-count": (257, None, False),
        "--y-max": (20.0, None, False),
    },
    "extend": {
        "--config": (None, None, False), "--format": ("csv", ("csv", "json"), False),
        "--k": (0.5, None, False), "--map": (None, None, True), "--out": (None, None, False),
        "--points-per-decade": (64, None, False), "--tau": (None, None, False),
        "--variant": ("schwarzian", ("schwarzian", "pre-schwarzian"), False),
        "--x-min": (0.0001, None, False), "--y-count": (257, None, False),
        "--y-max": (20.0, None, False), "--z": (None, None, True),
    },
    "verify-mu": {
        "--config": (None, None, False), "--fd-step": (1e-05, None, False),
        "--fd-tol": (1e-06, None, False), "--k": (0.5, None, False), "--map": (None, None, True),
        "--nx": (None, None, False), "--ny": (None, None, False), "--out": (None, None, False),
        "--points-per-decade": (64, None, False), "--summary-only": (False, None, False),
        "--tau": (None, None, False),
        "--variant": ("schwarzian", ("schwarzian", "pre-schwarzian"), False),
        "--x-min": (0.0001, None, False), "--y-count": (257, None, False),
        "--y-max": (20.0, None, False),
    },
    "trace-check": {
        "--config": (None, None, False), "--k": (0.5, None, False), "--map": (None, None, True),
        "--nx": (None, None, False), "--ny": (None, None, False), "--out": (None, None, False),
        "--points-per-decade": (64, None, False), "--tau": (None, None, False),
        "--tol": (1e-12, None, False),
        "--variant": ("schwarzian", ("schwarzian", "pre-schwarzian"), False),
        "--x-min": (0.0001, None, False), "--y-count": (257, None, False),
        "--y-max": (20.0, None, False),
    },
    "carleson": {
        "--config": (None, None, False), "--density": ("vmoa", ("vmoa", "mu"), False),
        "--format": ("csv", ("csv", "json"), False), "--k": (0.5, None, False),
        "--map": (None, None, True), "--out": (None, None, False),
        "--points-per-decade": (64, None, False), "--positions": (None, None, False),
        "--rel-tol": (1e-06, None, False), "--scales": (None, None, False),
        "--tau": (None, None, False), "--threshold": (0.05, None, False),
        "--variant": ("schwarzian", ("schwarzian", "pre-schwarzian"), False),
        "--x-min": (0.0001, None, False), "--y-count": (257, None, False),
        "--y-max": (20.0, None, False),
    },
    "mu-tilde": {
        "--center-y": (0.0, None, False), "--config": (None, None, False),
        "--k": (0.5, None, False), "--map": (None, None, True), "--out": (None, None, False),
        "--outer": ("zero", ("none", "zero"), False), "--points-per-decade": (64, None, False),
        "--rel-tol": (1e-08, None, False), "--scales": (None, None, False),
        "--t": (None, None, False), "--x-min": (0.0001, None, False),
        "--y-count": (257, None, False), "--y-max": (20.0, None, False),
    },
}


def _flag_table(top):
    subcommands = next(a for a in top._actions if isinstance(a, argparse._SubParsersAction))
    table = {}
    for name, p in subcommands.choices.items():
        actions = [a for a in p._actions if a.dest != "help"]
        assert all(len(a.option_strings) == 1 for a in actions)  # one spelling each
        table[name] = {a.option_strings[0]: (a.default, tuple(a.choices) if a.choices else None,
                                             a.required) for a in actions}
    return table


def test_each_subcommand_keeps_its_flags_defaults_and_choices():
    assert _flag_table(cli.build_parser()) == FLAG_TABLE
    # main builds the invoked subcommand's parser only; the usage line still names them all
    usage = cli.build_parser().format_usage()
    for name in FLAG_TABLE:
        assert _flag_table(cli.build_parser(only=name)) == {name: FLAG_TABLE[name]}
        assert cli.build_parser(only=name).format_usage() == usage


SMALLEST_ARGS = {
    "maps-list": [], "eval": ["--map", "identity", "--z", "1"],
    "norms": ["--map", "identity", "--t", "1"], "horizon": ["--map", "identity"],
    "evolve": ["--map", "identity", "--t", "1", "--z", "1"], "pde-check": ["--map", "identity"],
    "extend": ["--map", "identity", "--z", "1"], "verify-mu": ["--map", "identity"],
    "trace-check": ["--map", "identity"], "carleson": ["--map", "identity"],
    "mu-tilde": ["--map", "identity"],
}


@pytest.mark.parametrize("name", list(FLAG_TABLE))
def test_subcommand_help_and_usage_errors_match_the_full_parser(capsys, monkeypatch, name):
    # main builds the invoked subcommand's parser only: its --help, a usage error of its
    # own parser and one of the top parser (whose usage line names every subcommand)
    # read as they do from the parser with every subcommand
    assert set(SMALLEST_ARGS) == set(FLAG_TABLE)
    monkeypatch.setenv("COLUMNS", "80")
    for args in ([name, "--help"], [name, "--out"], [name, *SMALLEST_ARGS[name], "--bogus"]):
        texts = []
        for parse in (main, cli.build_parser().parse_args):
            with pytest.raises(SystemExit) as exc:
                parse(args)
            texts.append((exc.value.code, *capsys.readouterr()))
        assert texts[0] == texts[1]
        assert texts[0][0] == (0 if "--help" in args else 1)
        if "--bogus" in args:
            assert texts[0][2].endswith("chordalqc: error: unrecognized arguments: --bogus\n")


def test_config_value_is_checked_by_the_flag_type(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"samples": 0}))
    err = failed_run(capsys, ["pde-check", "--map", "identity", "--config", str(cfg)])
    assert err == failed_run(capsys, ["pde-check", "--map", "identity", "--samples", "0"])
    assert err.startswith("usage: ")
    assert err.endswith("chordalqc pde-check: error: argument --samples: count below 1 '0'\n")


def test_flags_are_checked_against_each_other_after_the_config_file(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"x_min": 1e-5, "points_per_decade": 4}))
    assert run(["horizon", "--map", "identity", "--t-max", "5e-5", "--config", str(cfg)]) == 0
    capsys.readouterr()
    cfg.write_text(json.dumps({"t_max": 5e-5}))
    err = failed_run(capsys, ["horizon", "--map", "identity", "--config", str(cfg)])
    assert err.startswith("usage: ")
    assert err.endswith("chordalqc horizon: error: argument --t-max: 5e-05 below --x-min 0.0001\n")


@pytest.mark.parametrize("args", [
    ["carleson", "--map", "identity", "--scales", "1", "--positions", "0"],
    ["mu-tilde", "--map", "identity", "--t", "0.25", "--scales", "0.25"],
    ["extend", "--map", "identity", "--z", "1", "--tau", "0.5"],
    ["evolve", "--map", "identity", "--t", "0.01", "--z", "1+1i", "--tau", "0.5", "--step", "0.005"],
], ids=["carleson-vmoa", "mu-tilde-t", "extend-tau", "evolve-tau"])
def test_x_min_above_the_scan_range_is_no_error_without_a_scan(capsys, args):
    # the horizon is given (or not needed), so no scan reads the grid's levels
    assert run([*args, "--x-min", "2"]) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("args", [
    ["verify-mu", "--map", "identity", "--x-min", "0.1", "--tau", "0.10003", "--summary-only"],
    ["trace-check", "--map", "identity", "--x-min", "0.1", "--tau", "0.1000001"],
], ids=["verify-mu", "trace-check"])
def test_tau_just_clear_of_its_pull_in_above_x_min_is_no_error(capsys, args):
    # --tau less twice the pull-in (--fd-step 1e-5; the trace check's 1e-9) stays above --x-min
    assert run([*args, "--nx", "3", "--ny", "3"]) == 0
    assert capsys.readouterr().err == ""


def test_evolve_past_the_horizon_is_a_computed_failure(capsys):
    # a negative time is a usage error (see test_bad_parameter_exit_one_naming_it);
    # t beyond the horizon tau0 is the flow's failure, exit 2
    assert run(["evolve", "--map", "identity", "--t", "0.6", "--z", "1+1i", "--tau", "0.5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "chordalqc: need 0 <= s <= t <= tau0=0.5, got s=0.0, t=0.6\n"


def test_help_lists_module_defaults(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["verify-mu", "--help"])
    assert exc.value.code == 0
    text = capsys.readouterr().out
    assert "1e-05" in text and "1e-06" in text  # fd defaults
    with pytest.raises(SystemExit):
        run(["horizon", "--help"])
    text = capsys.readouterr().out
    assert "0.5" in text and "257" in text and "0.0001" in text


def test_evaluation_error_exit_one(capsys):
    # jet evaluation outside the domain is an evaluation error, not a crash
    assert run(["eval", "--map", "identity", "--z=-1+0i"]) == 1
    err = capsys.readouterr().err
    assert "error" in err


def test_nonfinite_point_exit_one(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["extend", "--map", "identity", "--z", "inf"])
    assert exc.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "non-finite number 'inf'" in captured.err


@pytest.mark.parametrize("flag, value, field", [
    ("--y-count", "0", "y_count"),
    ("--x-min", "0", "x_min"),
    ("--x-min", "-1", "x_min"),
    ("--x-min", "nan", "x_min"),
    ("--y-max", "-1", "y_max"),
    ("--y-max", "inf", "y_max"),
    ("--points-per-decade", "-1", "points_per_decade"),
])
def test_bad_grid_exit_one_naming_field(capsys, flag, value, field):
    # the flag's type rejects each value before a grid exists: the usage error names
    # the flag, where the grid's own check would name the field
    err = failed_run(capsys, ["horizon", "--map", "counterexample-f", flag, value])
    complaint = {"--y-count": "count below 1", "--x-min": "nonpositive number",
                 "--y-max": "negative number", "--points-per-decade": "negative integer"}[flag]
    if not math.isfinite(float(value)):
        complaint = "non-finite number"
    assert err.startswith("usage: ") and field not in err
    assert err.endswith(f"chordalqc horizon: error: argument {flag}: {complaint} {value!r}\n")


def test_domain_error_names_map_and_point(capsys):
    # the first grid point, Re z = 1e-4 and Im z = -10, lies outside the unit disk
    assert run(["horizon", "--map", "cayley", *FAST_GRID]) == 1
    err = capsys.readouterr().err
    assert "outside domain D of map 'cayley' at z=(0.0001-10j)" in err


def test_evaluation_error_names_map_and_point(capsys):
    assert run(["horizon", "--map", "moebius:1,0,1,-1", *FAST_GRID]) == 1
    err = capsys.readouterr().err
    assert "moebius:1,0,1,-1" in err
    assert "z=(1+0j)" in err


@pytest.mark.parametrize("args, name", [
    (["verify-mu", "--map", "square", "--tau", "0.3", "--nx", "0", "--summary-only"], "--nx"),
    (["verify-mu", "--map", "square", "--tau", "0.3", "--ny", "0", "--summary-only"], "--ny"),
    (["trace-check", "--map", "square", "--tau", "0.3", "--nx", "0"], "--nx"),
    (["pde-check", "--map", "identity", "--samples", "0"], "--samples"),
], ids=["verify-mu-nx", "verify-mu-ny", "trace-check-nx", "pde-check-samples"])
def test_zero_sample_count_exit_one_naming_flag(capsys, args, name):
    err = failed_run(capsys, args)
    assert err.startswith("usage: ")
    assert err.endswith(f"chordalqc {args[0]}: error: argument {name}: count below 1 '0'\n")


@pytest.mark.parametrize("args, message", [
    (["verify-mu", "--map", "identity", "--fd-step", "0", "--summary-only", "--nx", "3",
      "--ny", "3"], "argument --fd-step: nonpositive number '0'"),
    (["verify-mu", "--map", "identity", "--k", "1.5", "--tau", "0.1", "--summary-only",
      "--nx", "3", "--ny", "3"], "argument --k: level outside (0,1) '1.5'"),
    (["pde-check", "--map", "identity", "--t-cap", "-1"], "argument --t-cap: negative number '-1'"),
    (["pde-check", "--map", "identity", "--t-cap", "nan"],
     "argument --t-cap: non-finite number 'nan'"),
    (["carleson", "--map", "counterexample-f", "--density", "mu", "--tau", "1e-6"],
     "horizon 1e-06 is smaller than the smallest default scale 0.0009765625: "
     "give --scales or a larger --tau"),
    (["carleson", "--map", "identity", "--scales", "0"],
     "box at center_y=-8.0, |I|=0.0, x in (0.0, 0.0) is not finite and nonempty"),
    (["carleson", "--map", "identity", "--scales=-0.5"],
     "box at center_y=-8.0, |I|=-0.5, x in (0.0, -0.5) is not finite and nonempty"),
    (["mu-tilde", "--map", "identity", "--t", "0.25", "--scales=-0.5"],
     "box at center_y=0.0, |I|=-0.5, x in (0.0, -0.5) is not finite and nonempty"),
    (["verify-mu", "--map", "identity", "--fd-tol", "-1"],
     "argument --fd-tol: negative tolerance '-1'"),
    (["trace-check", "--map", "identity", "--tol", "-1"],
     "argument --tol: negative tolerance '-1'"),
    (["pde-check", "--map", "identity", "--tol", "-1"],
     "argument --tol: negative tolerance '-1'"),
    (["carleson", "--map", "identity", "--rel-tol", "-1"],
     "argument --rel-tol: negative tolerance '-1'"),
    (["mu-tilde", "--map", "identity", "--t", "0.25", "--rel-tol=-1e-8"],
     "argument --rel-tol: negative tolerance '-1e-8'"),
    (["verify-mu", "--map", "identity", "--fd-tol", "inf"],
     "argument --fd-tol: non-finite number 'inf'"),
    (["eval", "--map", "identity", "--z", ";"], "argument --z: no points in ';'"),
    (["extend", "--map", "identity", "--tau", "0.5", "--z", " ; "],
     "argument --z: no points in ' ; '"),
    (["extend", "--map", "identity", "--z=-0.1+1i", "--tau", "-1"],
     "argument --tau: nonpositive horizon '-1'"),
    (["extend", "--map", "identity", "--z=-0.1+1i", "--tau", "0"],
     "argument --tau: nonpositive horizon '0'"),
    (["evolve", "--map", "identity", "--t", "0.1", "--z", "1+1i", "--tau", "-0.5"],
     "argument --tau: nonpositive horizon '-0.5'"),
    (["verify-mu", "--map", "identity", "--tau", "-1"],
     "argument --tau: nonpositive horizon '-1'"),
    (["trace-check", "--map", "identity", "--tau", "-1"],
     "argument --tau: nonpositive horizon '-1'"),
    (["carleson", "--map", "identity", "--density", "mu", "--tau", "-1"],
     "argument --tau: nonpositive horizon '-1'"),
    (["mu-tilde", "--map", "identity", "--t", "-1"], "argument --t: nonpositive horizon '-1'"),
    (["mu-tilde", "--map", "identity", "--t", "0"], "argument --t: nonpositive horizon '0'"),
    (["horizon", "--map", "identity", "--k", "1"], "argument --k: level outside (0,1) '1'"),
    (["mu-tilde", "--map", "identity", "--k", "0"], "argument --k: level outside (0,1) '0'"),
    (["eval", "--map", "nope", "--z", "1"], "argument --map: unknown map spec 'nope'"),
    (["eval", "--map", "identity", "--z", "abc"], "argument --z: invalid number 'abc'"),
    (["evolve", "--map", "identity", "--t", "0.1", "--z=1+2j"],
     "argument --z: invalid number '1+2j'"),
    (["pde-check", "--map", "identity", "--samples", "0"], "argument --samples: count below 1 '0'"),
    (["pde-check", "--map", "identity", "--samples", "1.5"],
     "argument --samples: invalid int value: '1.5'"),
    (["pde-check", "--map", "identity", "--seed", "-1"], "argument --seed: negative integer '-1'"),
    (["norms", "--map", "identity", "--t", "1", "--points-per-decade", "-1"],
     "argument --points-per-decade: negative integer '-1'"),
    (["trace-check", "--map", "identity", "--y-count", "0"], "argument --y-count: count below 1 '0'"),
    (["extend", "--map", "identity", "--z", "1", "--x-min", "0"],
     "argument --x-min: nonpositive number '0'"),
    (["carleson", "--map", "identity", "--y-max", "-1"], "argument --y-max: negative number '-1'"),
    (["evolve", "--map", "identity", "--t", "0.1", "--z", "1", "--step", "0"],
     "argument --step: nonpositive number '0'"),
    (["horizon", "--map", "identity", "--t-max", "0"], "argument --t-max: nonpositive number '0'"),
    (["evolve", "--map", "identity", "--s", "-1", "--t", "0.01", "--z", "1+1i", "--tau", "0.5"],
     "argument --s: negative number '-1'"),
    (["evolve", "--map", "identity", "--t=-0.01", "--z", "1+1i", "--tau", "0.5"],
     "argument --t: negative number '-0.01'"),
    (["horizon", "--map", "identity", "--t-max", "5e-5"],
     "argument --t-max: 5e-05 below --x-min 0.0001"),
    (["norms", "--map", "identity", "--t", "1,1e-5", "--x-min", "1e-3"],
     "argument --t: smallest t 1e-05 below --x-min 0.001"),
    (["norms", "--map", "identity", "--t", "1e-6,1e-5"],
     "argument --t: t values not strictly decreasing (1e-05 after 1e-06)"),
    (["norms", "--map", "identity", "--t", "1,1"],
     "argument --t: t values not strictly decreasing (1.0 after 1.0)"),
    (["norms", "--map", "identity", "--t", "1,-1"], "argument --t: nonpositive t -1.0"),
    (["norms", "--map", "identity", "--t", "0"], "argument --t: nonpositive t 0.0"),
    (["verify-mu", "--map", "identity", "--x-min", "2", "--summary-only"],
     "argument --x-min: 2.0 above the horizon scan's last level 1.0"),
    (["trace-check", "--map", "identity", "--x-min", "1.5"],
     "argument --x-min: 1.5 above the horizon scan's last level 1.0"),
    (["extend", "--map", "identity", "--z", "1", "--x-min", "2"],
     "argument --x-min: 2.0 above the horizon scan's last level 1.0"),
    (["evolve", "--map", "identity", "--t", "0.1", "--z", "1", "--x-min", "2"],
     "argument --x-min: 2.0 above the horizon scan's last level 1.0"),
    (["pde-check", "--map", "identity", "--x-min", "2"],
     "argument --x-min: 2.0 above the horizon scan's last level 1.0"),
    (["carleson", "--map", "identity", "--density", "mu", "--x-min", "2"],
     "argument --x-min: 2.0 above the horizon scan's last level 1.0"),
    (["mu-tilde", "--map", "identity", "--x-min", "2"],
     "argument --x-min: 2.0 above the horizon scan's last level 1.0"),
    (["verify-mu", "--map", "identity", "--x-min", "2", "--tau", "0.5", "--summary-only"],
     "argument --tau: 0.5 leaves no room above --x-min 2.0"),
    (["trace-check", "--map", "identity", "--x-min", "2", "--tau", "0.5"],
     "argument --tau: 0.5 leaves no room above --x-min 2.0"),
    # above --x-min, but by less than twice --fd-step
    (["verify-mu", "--map", "identity", "--x-min", "0.1", "--tau", "0.10001"],
     "argument --tau: 0.10001 leaves no room above --x-min 0.1"),
], ids=["verify-mu-fd-step-0", "verify-mu-k-with-tau", "pde-check-t-cap-negative",
        "pde-check-t-cap-nan", "carleson-mu-tau-below-default-scales", "carleson-scale-0",
        "carleson-scale-negative", "mu-tilde-scale-negative", "verify-mu-fd-tol-negative",
        "trace-check-tol-negative", "pde-check-tol-negative", "carleson-rel-tol-negative",
        "mu-tilde-rel-tol-negative", "verify-mu-fd-tol-inf", "eval-no-points",
        "extend-no-points", "extend-tau-negative", "extend-tau-0", "evolve-tau-negative",
        "verify-mu-tau-negative", "trace-check-tau-negative", "carleson-tau-negative",
        "mu-tilde-t-negative", "mu-tilde-t-0", "horizon-k-1", "mu-tilde-k-0", "eval-map-nope",
        "eval-z-abc", "evolve-z-j-suffix", "pde-check-samples-0", "pde-check-samples-float",
        "pde-check-seed-negative", "norms-points-per-decade-negative", "trace-check-y-count-0",
        "extend-x-min-0", "carleson-y-max-negative", "evolve-step-0", "horizon-t-max-0",
        "evolve-s-negative", "evolve-t-negative", "horizon-t-max-below-x-min",
        "norms-t-below-x-min", "norms-t-increasing-below-x-min", "norms-t-repeated",
        "norms-t-negative", "norms-t-0", "verify-mu-x-min-above-scan", "trace-check-x-min-above-scan",
        "extend-x-min-above-scan", "evolve-x-min-above-scan", "pde-check-x-min-above-scan",
        "carleson-mu-x-min-above-scan", "mu-tilde-x-min-above-scan", "verify-mu-tau-below-x-min",
        "trace-check-tau-below-x-min", "verify-mu-tau-within-two-fd-steps-of-x-min"])
def test_bad_parameter_exit_one_naming_it(capsys, args, message):
    err = failed_run(capsys, args)
    if message.startswith("argument "):  # the flag's type: usage line, then the subcommand
        assert err.startswith("usage: ")
        assert err.endswith(f"chordalqc {args[0]}: error: {message}\n")
    else:
        assert err == f"chordalqc: error: {message}\n"


def test_verify_mu_horizon_is_the_horizon_command_t_star(capsys):
    base = ["--map", "perturbed-identity:0.3", *FAST_GRID]
    assert run(["horizon", *base]) == 0
    t_star = json.loads(capsys.readouterr().out)["t_star"]
    verify = ["verify-mu", *base, "--nx", "5", "--ny", "5", "--summary-only"]
    assert run(verify) == 0
    scanned = capsys.readouterr().out
    assert run([*verify, "--tau", repr(t_star)]) == 0
    assert capsys.readouterr().out == scanned
    assert json.loads(scanned)["tau"] == t_star


# one case per subcommand, plus a FAIL exit and horizon's JSON failure under --format csv
SINGLE_WRITER_CASES = {
    "maps-list": ["maps-list"],
    "eval": ["eval", "--map", "square", "--z", "1+0i;2+1i"],
    "norms": ["norms", "--map", "perturbed-identity:0.3", "--t", "1,0.1", *FAST_GRID],
    "norms-json": ["norms", "--map", "perturbed-identity:0.3", "--t", "1,0.1", "--format", "json",
                   *FAST_GRID],
    "horizon": ["horizon", "--map", "perturbed-identity:0.3", "--format", "csv", *FAST_GRID],
    "horizon-fail": ["horizon", "--map", "square", "--format", "csv", *FAST_GRID],
    "evolve": ["evolve", "--map", "perturbed-identity:0.3", "--t", "0.01", "--z", "1+1i",
               "--step", "0.005", *FAST_GRID],
    "evolve-json": ["evolve", "--map", "perturbed-identity:0.3", "--t", "0.01", "--z", "1+1i",
                    "--step", "0.005", "--format", "json", *FAST_GRID],
    "pde-check": ["pde-check", "--map", "perturbed-identity:0.3", "--samples", "50", *FAST_GRID],
    "extend": ["extend", "--map", "perturbed-identity:0.3", "--z=-0.01+1i", "--format", "json",
               *FAST_GRID],
    "verify-mu": ["verify-mu", "--map", "perturbed-identity:0.3", "--nx", "3", "--ny", "3",
                  *FAST_GRID],
    "verify-mu-fail": ["verify-mu", "--map", "square", "--tau", "0.1", "--nx", "3", "--ny", "3",
                       *FAST_GRID],
    "trace-check": ["trace-check", "--map", "counterexample-f", "--nx", "5", "--ny", "5",
                    *FAST_GRID],
    "carleson": ["carleson", "--map", "perturbed-identity:0.3", "--scales", "1,0.25",
                 "--positions", "0", *FAST_GRID],
    "mu-tilde": ["mu-tilde", "--map", "perturbed-identity:0.3", "--t", "0.25", "--scales", "0.25",
                 *FAST_GRID],
}


def _stdout_and_out_file_bytes(tmp_path, capsys, args) -> bytes:
    code = run(args)
    stdout = capsys.readouterr().out.encode()
    out = tmp_path / "report"
    assert run([*args, "--out", str(out)]) == code
    assert capsys.readouterr().out == ""
    assert out.read_bytes() == stdout
    return stdout


@pytest.mark.parametrize("args", SINGLE_WRITER_CASES.values(), ids=SINGLE_WRITER_CASES.keys())
def test_out_file_holds_the_stdout_bytes(tmp_path, capsys, args):
    _stdout_and_out_file_bytes(tmp_path, capsys, args)


@pytest.mark.parametrize("command, columns, rows", [
    ("norms", ("t", "beta", "sigma"), lambda doc: zip(doc["t"], doc["beta"], doc["sigma"])),
    ("evolve", ("s", "t", "z0_re", "z0_im", "z_re", "z_im", "step", "residual_estimate"),
     lambda doc: (r.values() for r in doc["trace"])),
])
def test_json_report_holds_the_numbers_of_the_csv_columns(capsys, command, columns, rows):
    args = SINGLE_WRITER_CASES[command]
    assert run(args) == 0
    header, *lines = capsys.readouterr().out.splitlines()
    at = [header.split(",").index(c) for c in columns]
    want = [[float(line.split(",")[i]) for i in at] for line in lines]
    assert run([*args, "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["map"] == "perturbed-identity:0.3"
    assert [list(r) for r in rows(doc)] == want


def test_out_file_holds_the_stdout_bytes_across_sample_chunks(tmp_path, capsys, monkeypatch):
    # 15 samples in chunks of 4: the report is written as 6 chunks, head and tail included
    args = ["verify-mu", "--map", "perturbed-identity:0.3", "--nx", "3", "--ny", "5", *FAST_GRID]
    assert run(args) == 0
    one_chunk = capsys.readouterr().out.encode()
    monkeypatch.setattr(cli, "_SAMPLE_CHUNK", 4)
    assert _stdout_and_out_file_bytes(tmp_path, capsys, args) == one_chunk
    assert len(json.loads(one_chunk)["samples"]) == 15


# one report of each kind: CSV, a small JSON document, the maps-list text, a full verify-mu
WRITE_SIZE_CASES = {
    "norms": ["norms", "--map", "perturbed-identity:0.3", "--t", "1,0.1", *FAST_GRID],
    "horizon": ["horizon", "--map", "perturbed-identity:0.3", *FAST_GRID],
    "maps-list": ["maps-list"],
    "verify-mu": ["verify-mu", "--map", "perturbed-identity:0.3", *FAST_GRID],
}


@pytest.mark.parametrize("args", WRITE_SIZE_CASES.values(), ids=WRITE_SIZE_CASES.keys())
def test_written_report_length_is_the_out_file_size(tmp_path, monkeypatch, args):
    # a wrapper around the writer may size each write by len() of the report it is
    # given, taken once the write has returned
    sizes, write = [], cli._atomic_write

    def recording_write(data, path):
        write(data, path)
        sizes.append(len(data))

    monkeypatch.setattr(cli, "_atomic_write", recording_write)
    out = tmp_path / "report"
    assert run([*args, "--out", str(out)]) == 0
    assert sizes == [out.stat().st_size] and sizes[0] > 0


def test_report_failing_partway_leaves_the_out_file_untouched(tmp_path, monkeypatch):
    # the samples' second chunk raises after the head and the first chunk are written
    # to the temporary file: it is removed, and the existing report keeps its bytes.
    # On one CPU every chunk is made in this process, where the spy counts them
    monkeypatch.setattr(schwarz, "_cpu_count", lambda: 1)
    out = tmp_path / "mu.json"
    out.write_bytes(b"old report\n")
    made, samples = [], cli._json_samples

    def failing_samples(columns, start, stop):
        made.append(start)
        if len(made) == 2:
            raise MemoryError("second chunk")
        return samples(columns, start, stop)

    monkeypatch.setattr(cli, "_SAMPLE_CHUNK", 4)
    monkeypatch.setattr(cli, "_json_samples", failing_samples)
    args = ["verify-mu", "--map", "perturbed-identity:0.3", "--nx", "3", "--ny", "5", *FAST_GRID]
    with pytest.raises(MemoryError, match="second chunk"):
        run([*args, "--out", str(out)])
    assert made == [0, 4]
    assert out.read_bytes() == b"old report\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["mu.json"]


CHUNKED_REPORT = ["verify-mu", "--map", "perturbed-identity:0.3", "--nx", "3", "--ny", "5",
                  *FAST_GRID]  # 15 samples: 4 chunks of at most 4


def _forks(monkeypatch, cpus: int, chunk: int = 4) -> list:
    """Give the process ``cpus`` CPUs and reports chunks of ``chunk`` samples; the list
    gets an entry per ``os.fork`` call."""
    forks, fork = [], os.fork

    def counted_fork():
        forks.append(cpus)
        return fork()

    monkeypatch.setattr(schwarz, "_cpu_count", lambda: cpus)
    monkeypatch.setattr(os, "fork", counted_fork)
    monkeypatch.setattr(cli, "_SAMPLE_CHUNK", chunk)
    return forks


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_two_process_report_has_the_serial_bytes_and_leaves_no_child(tmp_path, monkeypatch):
    outs = []
    for cpus in (1, 2):
        forks = _forks(monkeypatch, cpus)
        outs.append(tmp_path / f"mu-{cpus}.json")
        assert run([*CHUNKED_REPORT, "--out", str(outs[-1])]) == 0
        assert len(forks) == (cpus > 1)
        _no_child_left()
    assert outs[0].read_bytes() == outs[1].read_bytes()
    assert len(json.loads(outs[1].read_bytes())["samples"]) == 15


class _TwoArgError(Exception):  # pickles, but does not unpickle
    def __init__(self, a, b):
        super().__init__(f"{a} {b}")


@pytest.mark.parametrize("error, raised", [
    (MemoryError("second chunk"), (MemoryError, "second chunk")),
    (_TwoArgError("second", "chunk"), (RuntimeError, "_TwoArgError: second chunk")),
], ids=["pickled", "named"])
def test_chunk_failing_in_the_child_leaves_the_out_file_untouched(tmp_path, monkeypatch,
                                                                 error, raised):
    # the second chunk is the child's first; its error is raised here at its place, after
    # the head and the first chunk are written, so the temporary file is removed.  Both
    # processes log the chunks they start: this one the first, the child the second only
    out, log = tmp_path / "out" / "mu.json", tmp_path / "made.txt"
    out.parent.mkdir()
    out.write_bytes(b"old report\n")
    samples = cli._json_samples

    def failing_samples(columns, start, stop):
        with open(log, "a") as fh:
            fh.write(f"{os.getpid()} {start}\n")
        if start == 4:
            raise error
        return samples(columns, start, stop)

    forks = _forks(monkeypatch, 2)
    monkeypatch.setattr(cli, "_json_samples", failing_samples)
    with pytest.raises(raised[0]) as exc:
        run([*CHUNKED_REPORT, "--out", str(out)])
    assert type(exc.value) is raised[0] and str(exc.value) == raised[1]
    made = [line.split() for line in log.read_text().splitlines()]
    assert len(forks) == 1 and sorted(int(start) for _, start in made) == [0, 4]
    assert [int(start) for pid, start in made if int(pid) == os.getpid()] == [0]
    assert out.read_bytes() == b"old report\n"
    assert sorted(p.name for p in out.parent.iterdir()) == ["mu.json"]
    _no_child_left()


def test_writer_stopping_partway_leaves_no_child(monkeypatch):
    # 4,200 samples in 3 chunks: the writer takes the head and the first chunk and is
    # interrupted while the child waits to send the second, which is larger than a pipe
    # holds; the traceback keeps main's frame, and so the report, alive
    forks = _forks(monkeypatch, 2, chunk=2048)
    taken = []

    def interrupted_write(report, path):
        for chunk in report:
            taken.append(chunk)
            if len(taken) == 2:
                raise KeyboardInterrupt

    monkeypatch.setattr(cli, "_atomic_write", interrupted_write)
    with pytest.raises(KeyboardInterrupt) as exc:
        run(["verify-mu", "--map", "perturbed-identity:0.3", "--nx", "3", "--ny", "1400",
             *FAST_GRID])
    assert len(forks) == 1 and len(taken) == 2
    _no_child_left()
    assert exc.tb is not None  # held until here


@pytest.mark.parametrize("case", ["one-cpu", "second-thread", "one-chunk"])
def test_report_forks_only_when_it_pays(tmp_path, monkeypatch, case):
    forks = _forks(monkeypatch, 1 if case == "one-cpu" else 2)
    if case == "one-chunk":
        monkeypatch.setattr(cli, "_SAMPLE_CHUNK", 15)
    done = threading.Event()
    thread = threading.Thread(target=done.wait)
    if case == "second-thread":
        thread.start()
    try:
        assert run([*CHUNKED_REPORT, "--out", str(tmp_path / "mu.json")]) == 0
    finally:
        done.set()
    if case == "second-thread":
        thread.join(timeout=10)
        assert not thread.is_alive()
    assert forks == []
    assert len(json.loads((tmp_path / "mu.json").read_bytes())["samples"]) == 15


def test_out_file_mode_follows_umask(tmp_path):
    fresh, existing = tmp_path / "fresh.txt", tmp_path / "existing.txt"
    existing.write_text("old")
    existing.chmod(0o644)
    old = os.umask(0o022)
    try:
        assert run(["maps-list", "--out", str(fresh)]) == 0
        assert run(["maps-list", "--out", str(existing)]) == 0
    finally:
        os.umask(old)
    assert stat.S_IMODE(fresh.stat().st_mode) == 0o644
    assert stat.S_IMODE(existing.stat().st_mode) == 0o644


@pytest.mark.parametrize("args, blank", [
    (["norms", "--map", "identity", *FAST_GRID, "--t"], "1,0.1,"),
    (["carleson", "--map", "identity", *FAST_GRID, "--positions", "0", "--scales"], ",1, ,0.5,"),
    (["carleson", "--map", "identity", *FAST_GRID, "--scales", "1", "--positions"], "0,,1"),
    (["mu-tilde", "--map", "identity", "--t", "0.25", *FAST_GRID, "--scales"], "0.25,"),
], ids=["norms-t", "carleson-scales", "carleson-positions", "mu-tilde-scales"])
def test_number_lists_skip_blank_items(capsys, args, blank):
    assert run([*args, blank]) == 0
    with_blanks = capsys.readouterr().out
    assert run([*args, ",".join(v for v in blank.split(",") if v.strip())]) == 0
    assert capsys.readouterr().out == with_blanks


@pytest.mark.parametrize("args, message", [
    (["norms", "--map", "identity", "--t", ","], "argument --t: no values in ','"),
    (["carleson", "--map", "identity", "--scales", ","], "argument --scales: no values in ','"),
    (["carleson", "--map", "identity", "--density", "mu", "--scales", " "],
     "argument --scales: no values in ' '"),
    (["carleson", "--map", "identity", "--positions", "0,x"],
     "argument --positions: invalid number list '0,x'"),
    (["mu-tilde", "--map", "identity", "--scales", ""], "argument --scales: no values in ''"),
    (["extend", "--map", "identity", "--z", "1", "--tau", "nan"],
     "argument --tau: non-finite number 'nan'"),
    (["pde-check", "--map", "identity", "--tol", "nan"], "argument --tol: non-finite number 'nan'"),
    (["carleson", "--map", "identity", "--threshold", "nan"],
     "argument --threshold: non-finite number 'nan'"),
    (["mu-tilde", "--map", "identity", "--t", "inf"], "argument --t: non-finite number 'inf'"),
    (["norms", "--map", "identity", "--t", "nan,0.5"], "argument --t: non-finite number 'nan'"),
    (["evolve", "--map", "identity", "--t", "1", "--z", "1", "--step", "nan"],
     "argument --step: non-finite number 'nan'"),
    (["carleson", "--map", "identity", "--positions", "0,-inf"],
     "argument --positions: non-finite number '-inf'"),
], ids=["norms-t-empty", "carleson-scales-empty", "carleson-mu-scales-blank",
        "carleson-positions-bad", "mu-tilde-scales-empty", "extend-tau-nan", "pde-check-tol-nan",
        "carleson-threshold-nan", "mu-tilde-t-inf", "norms-t-nan", "evolve-step-nan",
        "carleson-positions-inf"])
def test_number_list_errors_name_the_flag(capsys, args, message):
    with pytest.raises(SystemExit) as exc:
        run(args)
    assert exc.value.code == 1
    assert capsys.readouterr().err.endswith(f": error: {message}\n")


def _is_glibc() -> bool:
    try:
        return bool(os.confstr("CS_GNU_LIBC_VERSION"))
    except (AttributeError, ValueError, OSError):
        return False


@pytest.mark.skipif(not _is_glibc(), reason="the CLI sets a heap policy under glibc only")
def test_strip_scan_reuses_its_heap_pages():
    # about 60k minor faults when glibc hands each block's freed temporaries
    # back to the kernel and the next block faults them in again; about 8k kept
    src = os.path.dirname(os.path.dirname(chordalqc.__file__))
    before = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt
    subprocess.run([sys.executable, "-m", "chordalqc.cli", "horizon", "--map", "counterexample-f",
                    "--points-per-decade", "512"], env={**os.environ, "PYTHONPATH": src},
                   stdout=subprocess.DEVNULL, check=True, timeout=120)
    assert resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt - before < 25_000


def test_main_without_glibc_makes_no_allocator_call(tmp_path, monkeypatch):
    args = ["horizon", "--map", "counterexample-f", *FAST_GRID, "--format", "csv"]
    assert run([*args, "--out", str(tmp_path / "default.csv")]) == 0

    def not_glibc(name):  # as os.confstr does where glibc's name is unknown
        raise ValueError(f"unrecognized configuration name {name!r}")

    def no_allocator(*args, **kwargs):
        raise AssertionError("C library loaded without glibc")

    monkeypatch.setattr(os, "confstr", not_glibc)
    monkeypatch.setattr(ctypes, "CDLL", no_allocator)
    cli._glibc_heap.cache_clear()
    try:
        assert run([*args, "--out", str(tmp_path / "no-glibc.csv")]) == 0
        assert cli._glibc_heap() is None
    finally:
        cli._glibc_heap.cache_clear()
    assert (tmp_path / "no-glibc.csv").read_bytes() == (tmp_path / "default.csv").read_bytes()
