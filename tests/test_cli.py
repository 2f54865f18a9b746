import ctypes
import json
import math
import os
import resource
import stat
import subprocess
import sys

import pytest

import chordalqc
from chordalqc import cli
from chordalqc.cli import main

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


def test_usage_errors_exit_one(capsys):
    assert run(["eval", "--map", "not-a-map", "--z", "1"]) == 1
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
    assert run(["extend", "--map", "identity", "--z", "inf"]) == 1
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
    err = failed_run(capsys, ["horizon", "--map", "counterexample-f", flag, value])
    if math.isfinite(float(value)):
        assert err.startswith(f"chordalqc: error: grid {field} must be")
    else:  # the flag's type rejects it before a grid exists
        assert err.endswith(f"chordalqc horizon: error: argument {flag}: non-finite number {value!r}\n")


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
    (["verify-mu", "--map", "square", "--tau", "0.3", "--nx", "0", "--summary-only"], "nx"),
    (["verify-mu", "--map", "square", "--tau", "0.3", "--ny", "0", "--summary-only"], "ny"),
    (["trace-check", "--map", "square", "--tau", "0.3", "--nx", "0"], "nx"),
    (["pde-check", "--map", "identity", "--samples", "0"], "--samples"),
], ids=["verify-mu-nx", "verify-mu-ny", "trace-check-nx", "pde-check-samples"])
def test_zero_sample_count_exit_one_naming_flag(capsys, args, name):
    assert run(args) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"chordalqc: error: {name} must be at least 1, got 0\n"


@pytest.mark.parametrize("args, message", [
    (["verify-mu", "--map", "identity", "--fd-step", "0", "--summary-only", "--nx", "3",
      "--ny", "3"], "fd_step must be finite and positive, got 0.0"),
    (["verify-mu", "--map", "identity", "--k", "1.5", "--tau", "0.1", "--summary-only",
      "--nx", "3", "--ny", "3"], "k must lie in (0,1), got 1.5"),
    (["pde-check", "--map", "identity", "--t-cap", "-1"],
     "--t-cap must be finite and nonnegative, got -1.0"),
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
    (["eval", "--map", "identity", "--z", ";"], "no points in ';'"),
    (["extend", "--map", "identity", "--tau", "0.5", "--z", " ; "], "no points in ' ; '"),
], ids=["verify-mu-fd-step-0", "verify-mu-k-with-tau", "pde-check-t-cap-negative",
        "pde-check-t-cap-nan", "carleson-mu-tau-below-default-scales", "carleson-scale-0",
        "carleson-scale-negative", "mu-tilde-scale-negative", "verify-mu-fd-tol-negative",
        "trace-check-tol-negative", "pde-check-tol-negative", "carleson-rel-tol-negative",
        "mu-tilde-rel-tol-negative", "verify-mu-fd-tol-inf", "eval-no-points",
        "extend-no-points"])
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
    "horizon": ["horizon", "--map", "perturbed-identity:0.3", "--format", "csv", *FAST_GRID],
    "horizon-fail": ["horizon", "--map", "square", "--format", "csv", *FAST_GRID],
    "evolve": ["evolve", "--map", "perturbed-identity:0.3", "--t", "0.01", "--z", "1+1i",
               "--step", "0.005", *FAST_GRID],
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


@pytest.mark.parametrize("args", SINGLE_WRITER_CASES.values(), ids=SINGLE_WRITER_CASES.keys())
def test_out_file_holds_the_stdout_bytes(tmp_path, capsys, args):
    code = run(args)
    stdout = capsys.readouterr().out.encode()
    out = tmp_path / "report"
    assert run([*args, "--out", str(out)]) == code
    assert capsys.readouterr().out == ""
    assert out.read_bytes() == stdout


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
