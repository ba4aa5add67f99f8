"""Seeded `report` outputs pinned against stored goldens.

The corpus below is rebuilt from fixed seeds on every run; each `report`
JSON is compared with tests/data/report_golden.json.  Strings, booleans,
integers and nulls must match exactly and floats to a relative 1e-9.  The
input path in the fingerprint is replaced by the case name.  A verdict
change that is intended is recorded by rewriting the goldens with

    PYTHONPATH=src python tests/test_report_golden.py --write

and naming the change in CHANGES.md.
"""

import json
import math
import os
import sys
import tempfile

import numpy as np
import pytest

from pencillab.cli import main
from pencillab.core import PoshPencil
from pencillab.matpoly import mgt_polynomial
from pencillab.oracles import (
    named_example,
    random_posh_pencil,
    random_psd_matrix,
    random_psd_polynomial,
    random_singular_posh_pencil,
)

GOLDEN = os.path.join(os.path.dirname(__file__), "data", "report_golden.json")
SEED = 11
SAMPLES = 500


def _mat(m):
    return [[[float(v.real), float(v.imag)] for v in row] for row in np.asarray(m, dtype=complex)]


def _posh_doc(pp):
    return {"j1": _mat(pp.j1), "r1": _mat(pp.r1), "j2": _mat(pp.j2), "r2": _mat(pp.r2)}


def _poly_doc(poly):
    return {"coefficients": [_mat(a) for a in poly.coefficients]}


def _real_posh(seed, n):
    rng = np.random.default_rng(seed)
    g1, g2 = rng.standard_normal((n, n)), rng.standard_normal((n, n))
    b = rng.standard_normal((n, n - 1))
    return PoshPencil((g1 - g1.T) / 2, b @ b.T, (g2 - g2.T) / 2, np.eye(n))


def _shared_kernel_docs(n=6):
    """posH and minus-convention plain documents of one pencil on the skew-structure route.

    J2 = J1/2 real skew, and PSD R1 and R2 share one kernel vector, so
    condition (d) fails and the certificate reads the pencil's regularity.
    """
    rng = np.random.default_rng(n)
    g = rng.standard_normal((n, n))
    j1 = (g - g.T) / 2.0
    k = rng.standard_normal(n)
    proj = np.eye(n) - np.outer(k, k) / (k @ k)

    def psd_killing_k():
        f = proj @ rng.standard_normal((n, n))
        m = f @ f.T / n
        return (m + m.T) / 2.0

    r1, r2 = psd_killing_k(), psd_killing_k()
    posh = {"j1": _mat(j1), "r1": _mat(r1), "j2": _mat(j1 / 2.0), "r2": _mat(r2)}
    plain = {"n": n, "convention": "minus", "lead": _mat(j1 + r1), "const": _mat(-(j1 / 2.0 + r2))}
    return posh, plain


def corpus() -> dict:
    """Case name to input document, all drawn from fixed seeds."""
    cases = {
        "ex_unstable": _posh_doc(named_example("ex_unstable")),
        "ex_jjb": _posh_doc(named_example("ex_jjb", 1.0, 0.5)),
        "conjecture_0.5": _posh_doc(named_example("conjecture", 0.5)),
        "real_n5": _posh_doc(_real_posh(3, 5)),
        "singular_n4": _posh_doc(random_singular_posh_pencil(np.random.default_rng(4), 4)),
    }
    for n, pd_sum in ((1, False), (2, True), (4, False), (6, True), (8, False)):
        pp = random_posh_pencil(np.random.default_rng(20 + n), n, pd_sum=pd_sum)
        cases[f"random_n{n}"] = _posh_doc(pp)
    for degree in (2, 3, 4):
        poly = random_psd_polynomial(np.random.default_rng(30 + degree), 3, degree)
        cases[f"poly_d{degree}"] = _poly_doc(poly)
    t = random_psd_matrix(np.random.default_rng(40), 3) + 0.5 * np.eye(3)
    cases["mgt_cubic"] = _poly_doc(mgt_polynomial(2.0, 3.0, 1.0, t))
    cases["shared_kernel_posh"], cases["shared_kernel_plain"] = _shared_kernel_docs()
    return cases


CASES = corpus()


def _report(directory, name, doc) -> dict:
    path = os.path.join(str(directory), f"{name}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    out = os.path.join(str(directory), f"{name}.report.json")
    code = main(["report", path, "--seed", str(SEED), "--samples", str(SAMPLES), "--out", out])
    assert code == 0, name
    with open(out, encoding="utf-8") as fh:
        rep = json.load(fh)
    rep["fingerprint"]["file"] = name
    return rep


def _assert_matches(got, want, where):
    if isinstance(want, float):
        assert isinstance(got, float), f"{where}: {got!r} is not a float"
        assert math.isclose(got, want, rel_tol=1e-9), f"{where}: {got!r} != {want!r}"
    elif isinstance(want, dict):
        assert isinstance(got, dict) and sorted(got) == sorted(want), where
        for key in want:
            _assert_matches(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), where
        for k, (g, w) in enumerate(zip(got, want)):
            _assert_matches(g, w, f"{where}[{k}]")
    else:
        assert type(got) is type(want) and got == want, f"{where}: {got!r} != {want!r}"


@pytest.fixture(scope="module")
def goldens():
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_golden(name, goldens, tmp_path):
    _assert_matches(_report(tmp_path, name, CASES[name]), goldens[name], name)


def _write_goldens():
    with tempfile.TemporaryDirectory() as tmp:
        reports = {name: _report(tmp, name, doc) for name, doc in CASES.items()}
    os.makedirs(os.path.dirname(GOLDEN), exist_ok=True)
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(reports, fh, sort_keys=True, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_report_golden.py --write")
    _write_goldens()
