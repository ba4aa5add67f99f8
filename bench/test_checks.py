"""Each benchmark check accepts the program's real output and rejects a corrupted one.

    python3 -m pytest bench/test_checks.py
"""

import copy
import json
import math
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import checks  # noqa: E402
import workloads  # noqa: E402

CheckError = checks.CheckError


def _kcf_report(tmp_path, lead, const):
    path = str(tmp_path / "pencil.json")
    workloads.write_pencil(path, lead, const)
    code, _, err = workloads.run_cli(["kcf", path, "--out", path + ".out"])
    assert code == 0, err
    with open(path + ".out", encoding="utf-8") as fh:
        return json.load(fh)["results"]["kcf"]


@pytest.fixture
def assembled(tmp_path):
    rng = np.random.default_rng([7, 1, 1])
    lead, const, truth = workloads.assembled_pencil(rng, workloads.KCF_TEMPLATES[1])
    kcf = _kcf_report(tmp_path, lead, const)
    checks.check_kcf_structure(kcf, truth)
    return kcf, truth


def test_kcf_rejects_moved_eigenvalue(assembled):
    kcf, truth = assembled
    bad = copy.deepcopy(kcf)
    bad["finite"][0]["eigenvalue"][0] += 1e-3
    with pytest.raises(CheckError):
        checks.check_kcf_structure(bad, truth)


def test_kcf_rejects_changed_minimal_index(assembled):
    kcf, truth = assembled
    bad = copy.deepcopy(kcf)
    bad["right_minimal_indices"][-1] += 1
    with pytest.raises(CheckError):
        checks.check_kcf_structure(bad, truth)


def test_kcf_simple_rejects_moved_eigenvalue(tmp_path):
    mats = workloads.generic_posh(np.random.default_rng(3), 12)
    path = str(tmp_path / "posh.json")
    workloads.write_posh(path, mats)
    assert workloads.run_cli(["kcf", path, "--out", path + ".out"])[0] == 0
    with open(path + ".out", encoding="utf-8") as fh:
        kcf = json.load(fh)["results"]["kcf"]
    eigs = checks.pencil_eigenvalues(*mats)
    checks.check_kcf_simple(kcf, eigs)
    kcf["finite"][-1]["eigenvalue"][1] -= 1e-3
    with pytest.raises(CheckError):
        checks.check_kcf_simple(kcf, eigs)


def _report(tmp_path, mats, seed=5):
    path = str(tmp_path / "report.json")
    workloads.write_posh(path, mats)
    code, _, err = workloads.run_cli(
        ["report", path, "--seed", str(seed), "--samples", "500", "--out", path + ".out"]
    )
    assert code == 0, err
    with open(path + ".out", encoding="utf-8") as fh:
        return fh.read()


def test_certificate_rejects_non_violating_witness(tmp_path):
    mats = workloads.report_pencil(np.random.default_rng(11), "falsified", 10)
    cert = json.loads(_report(tmp_path, mats))["results"]["certify"]
    assert cert["eejjx_status"] == "falsified"
    reference = workloads._report_reference(mats, 11)
    checks.check_certificate(cert, mats, "falsified", reference)
    # the minimizer of a random search gives a nonpositive form value
    rng = np.random.default_rng(0)
    X = checks.unit_vectors(rng, 2000, 10)
    x = X[int(np.argmin(checks.quadform_values(mats, X)))]
    assert checks.quadform_values(mats, x[None, :])[0] <= 0.0
    cert["witness"] = [[float(v.real), float(v.imag)] for v in x]
    with pytest.raises(CheckError):
        checks.check_certificate(cert, mats, "falsified", reference)


def test_certificate_rejects_norm_input_reported_unknown(tmp_path):
    mats = workloads.report_pencil(np.random.default_rng(12), "norms", 8)
    cert = json.loads(_report(tmp_path, mats))["results"]["certify"]
    reference = workloads._report_reference(mats, 12)
    checks.check_certificate(cert, mats, "norms", reference)
    cert["eejjx_status"] = "unknown"
    with pytest.raises(CheckError):
        checks.check_certificate(cert, mats, "norms", reference)


def test_report_bytes_must_repeat(tmp_path):
    mats = workloads.report_pencil(np.random.default_rng(13), "spectral", 8)
    first = _report(tmp_path, mats)
    again = _report(tmp_path, mats)
    checks.check_same_bytes(first, again)
    with pytest.raises(CheckError):
        checks.check_same_bytes(first, _report(tmp_path, mats, seed=6))


def test_numrange_rejects_point_in_pacman(tmp_path):
    mats = workloads.generic_posh(np.random.default_rng(14), 8)
    path = str(tmp_path / "range.json")
    workloads.write_posh(path, mats)
    code, out, err = workloads.run_cli(
        ["numrange", path, "--samples", "3000", "--seed", "2",
         "--out", path + ".csv", "--regions", path + ".regions.json"]
    )
    assert code == 0, err
    with open(path + ".csv", encoding="utf-8") as fh:
        points = checks.parse_points_csv(fh.read())
    with open(path + ".regions.json", encoding="utf-8") as fh:
        regions = checks.parse_regions(json.load(fh))
    summary = workloads._parse_numrange_message(out)
    checks.check_numrange(points, summary, 3000, regions, mats)
    beta, sign = regions[0]
    angle = math.atan(beta) / 2.0
    im = 1.0 if math.isinf(beta) else beta / 2.0
    inside = complex(im / math.tan(angle), im)
    if sign == "minus":
        inside = inside.conjugate()
    assert checks.in_pacman([inside], beta, sign)[0]
    moved = points.copy()
    moved[0] = inside
    with pytest.raises(CheckError):
        checks.check_numrange(moved, summary, 3000, regions, mats)


def test_rayleigh_roots_reject_root_in_sector():
    coeffs = workloads.report_polynomial(np.random.default_rng(15), 4, 3, "random")
    op = workloads._roots_op("roots", coeffs, 200, 1)
    roots = op.call()
    assert op.check(roots)
    moved = list(roots)
    moved[0] = abs(moved[0]) * complex(math.cos(0.5), math.sin(0.5))
    with pytest.raises(CheckError):
        checks.check_rayleigh_roots(moved, 3, 200)
