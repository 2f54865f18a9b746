"""Each output check accepts the program's answer and rejects a perturbed one.

Small grids keep this fast; the checked subsets cover every row here, so a
single perturbed value must be caught.
"""

import csv
import json
import random

import pytest

from chordalqc import cli

import checks
from workloads import CF, PI, Op

COARSE = (("points-per-decade", 4), ("y-count", 9))


def _run(op, tmp_path):
    path = str(tmp_path / (op.name + op.ext))
    assert cli.main(op.argv(path)) == 0
    return path


def _problems(op, path):
    return checks.check_op(op, path, random.Random(0))


def _perturb_csv(path, row, column, factor):
    with open(path) as fh:
        rows = list(csv.DictReader(fh))
    rows[row][column] = repr(float(rows[row][column]) * factor)
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]), lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)


@pytest.mark.parametrize("spec", [CF, PI])
def test_norms_sigma(tmp_path, spec):
    op = Op("norms", "norms", (("map", spec), ("t", "1,0.1")) + COARSE, ".csv")
    path = _run(op, tmp_path)
    assert _problems(op, path) == []
    _perturb_csv(path, 1, "sigma", 1 + 1e-7)
    assert any("sigma(t=0.1)" in p for p in _problems(op, path))


def test_horizon_level(tmp_path):
    op = Op("horizon", "horizon", (("map", CF), ("variant", "pre-schwarzian")) + COARSE, ".json")
    path = _run(op, tmp_path)
    assert _problems(op, path) == []
    with open(path) as fh:
        doc = json.load(fh)
    doc["t_star"] = 1e-4
    with open(path, "w") as fh:
        json.dump(doc, fh)
    assert _problems(op, path)


def test_carleson_box_ratio(tmp_path):
    op = Op("box", "carleson", (("map", PI), ("scales", "0.5"), ("positions", "1")), ".csv")
    path = _run(op, tmp_path)
    assert _problems(op, path) == []
    _perturb_csv(path, 0, "ratio", 1 + 1e-5)
    assert any("mpmath" in p for p in _problems(op, path))


def test_mu_tilde_split(tmp_path):
    op = Op("split", "mu-tilde", (("map", PI),) + COARSE, ".json")
    path = _run(op, tmp_path)
    assert _problems(op, path) == []
    with open(path) as fh:
        doc = json.load(fh)
    for box in doc["boxes"]:
        box["total"] *= 1 + 1e-6
    with open(path, "w") as fh:
        json.dump(doc, fh)
    assert any("total" in p for p in _problems(op, path))


@pytest.mark.parametrize("variant", ["schwarzian", "pre-schwarzian"])
def test_verify_mu_sample(tmp_path, variant):
    op = Op("mu", "verify-mu", (("map", CF), ("variant", variant)) + COARSE, ".json")
    path = _run(op, tmp_path)
    assert _problems(op, path) == []
    with open(path) as fh:
        doc = json.load(fh)
    assert len(doc["samples"]) <= checks.MU_SUBSET
    sample = doc["samples"][7]
    sample["mu_formula"][0] += 1e-6 * abs(complex(*sample["mu_formula"]))
    with open(path, "w") as fh:
        json.dump(doc, fh)
    assert any("mu_formula at" in p for p in _problems(op, path))


@pytest.mark.parametrize("spec", [CF, PI])
def test_evolve_row(tmp_path, spec):
    op = Op("evolve", "evolve",
            (("map", spec), ("t", 0.001), ("step", 1e-4), ("z", "0.8-1.5i")) + COARSE, ".csv")
    path = _run(op, tmp_path)
    assert _problems(op, path) == []
    _perturb_csv(path, 5, "z_im", 1 + 1e-7)
    assert any("row 5" in p for p in _problems(op, path))
