import json

import numpy as np
import pytest

from pencillab.cli import main
from pencillab.matpoly import mgt_polynomial
from pencillab.oracles import named_example, random_posh_pencil


def mat(m):
    return [
        [[float(v.real), float(v.imag)] for v in row]
        for row in np.asarray(m, dtype=complex)
    ]


@pytest.fixture
def unstable_pencil(tmp_path):
    p = named_example("ex_unstable").pencil()
    doc = {
        "n": 3,
        "convention": "plus",
        "lead": mat(p.lead),
        "const": mat(p.constant),
    }
    path = tmp_path / "unstable.pencil.json"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture
def dissipative_posh(tmp_path):
    pp = random_posh_pencil(np.random.default_rng(7), 4, pd_sum=True)
    doc = {"j1": mat(pp.j1), "r1": mat(pp.r1), "j2": mat(pp.j2), "r2": mat(pp.r2)}
    path = tmp_path / "dissipative.posh.json"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture
def mgt_poly(tmp_path):
    poly = mgt_polynomial(2.0, 2.0, 1.0, np.eye(3))
    doc = {
        "n": 3,
        "degree": 3,
        "coefficients": [mat(a) for a in poly.coefficients],
    }
    path = tmp_path / "mgt.poly.json"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture
def stable_posh(tmp_path):
    doc = {
        "j1": mat(np.zeros((2, 2))),
        "r1": mat(np.eye(2)),
        "j2": mat(np.array([[0.0, 1.0], [-1.0, 0.0]])),
        "r2": mat(np.eye(2)),
    }
    path = tmp_path / "stable.posh.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_eig_prints_eigenvalues(unstable_pencil, capsys):
    assert main(["eig", unstable_pencil]) == 0
    lines = [l for l in capsys.readouterr().out.splitlines() if l.strip()]
    assert len(lines) == 3
    values = [complex(l.replace("j", "j")) for l in lines]
    assert sum(1 for z in values if z.real > 0) == 2


def test_polystab_mgt_detection(mgt_poly, tmp_path, capsys):
    out = tmp_path / "rep.json"
    assert main(["polystab", mgt_poly, "--out", str(out)]) == 0
    assert "lhp_certified" in capsys.readouterr().out
    doc = json.loads(out.read_text())
    assert doc["results"]["cubic_stability"]["conclusion"] == "lhp_certified"
    assert doc["results"]["mgt"]["detected"]
    assert doc["results"]["mgt"]["verdict"] == "lhp_certified"
    assert abs(doc["results"]["mgt"]["a"] - 2.0) < 1e-9
    assert abs(doc["results"]["mgt"]["c_over_b"] - 0.5) < 1e-9


def test_numrange_outputs(dissipative_posh, tmp_path, capsys):
    csv = tmp_path / "pts.csv"
    regions = tmp_path / "regions.json"
    svg = tmp_path / "plot.svg"
    code = main(
        [
            "numrange",
            dissipative_posh,
            "--samples",
            "200",
            "--seed",
            "42",
            "--out",
            str(csv),
            "--regions",
            str(regions),
            "--svg",
            str(svg),
        ]
    )
    assert code == 0
    lines = csv.read_text().splitlines()
    assert lines[0] == "re,im"
    assert len(lines) == 201
    parsed = json.loads(regions.read_text())
    assert all(r["type"] == "pacman" for r in parsed)
    assert svg.read_text().startswith("<svg")


def test_numrange_deterministic_for_seed(dissipative_posh, tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    main(["numrange", dissipative_posh, "--samples", "100", "--seed", "5", "--out", str(a)])
    main(["numrange", dissipative_posh, "--samples", "100", "--seed", "5", "--out", str(b)])
    assert a.read_text() == b.read_text()


def test_seed_precedence(dissipative_posh, tmp_path, monkeypatch):
    flag = tmp_path / "flag.csv"
    env = tmp_path / "env.csv"
    monkeypatch.setenv("PENCIL_LAB_SEED", "5")
    main(["numrange", dissipative_posh, "--samples", "50", "--out", str(env)])
    monkeypatch.setenv("PENCIL_LAB_SEED", "99")
    main(["numrange", dissipative_posh, "--samples", "50", "--seed", "5", "--out", str(flag)])
    assert flag.read_text() == env.read_text()


def test_bad_env_seed_is_parse_error(dissipative_posh, monkeypatch, capsys):
    monkeypatch.setenv("PENCIL_LAB_SEED", "not-a-number")
    assert main(["certify", dissipative_posh]) == 2
    capsys.readouterr()


def test_beta_refuses_an_overflowing_hermitian_part(tmp_path, capsys):
    # i*J1 is finite, but its Hermitian part (k + k*)/2 overflows
    j1 = -1e308j * np.array([[0.5, 0.3], [0.3, -0.9]])
    doc = {"j1": mat(j1), "r1": mat(np.eye(2)), "j2": mat(np.zeros((2, 2))), "r2": mat(np.eye(2))}
    path = tmp_path / "huge.posh.json"
    path.write_text(json.dumps(doc))
    assert main(["beta", str(path)]) == 3
    assert "not finite" in capsys.readouterr().err


def test_validate_and_exit_codes(stable_posh, tmp_path, capsys):
    assert main(["validate", stable_posh]) == 0
    capsys.readouterr()
    broken = tmp_path / "broken.json"
    broken.write_text("{oops")
    assert main(["eig", str(broken)]) == 2
    capsys.readouterr()
    notpsd = tmp_path / "notpsd.json"
    notpsd.write_text(
        json.dumps(
            {
                "j1": mat(np.zeros((1, 1))),
                "r1": mat(-np.eye(1)),
                "j2": mat(np.zeros((1, 1))),
                "r2": mat(np.eye(1)),
            }
        )
    )
    assert main(["validate", str(notpsd)]) == 3
    capsys.readouterr()
    assert main(["eig", str(tmp_path / "missing.json")]) == 2
    capsys.readouterr()


def test_kcf_and_dh_check(stable_posh, tmp_path, capsys):
    out = tmp_path / "kcf.json"
    assert main(["kcf", stable_posh, "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["results"]["kcf"]["regular"]
    assert doc["results"]["kcf"]["evidence"] == "exact"
    capsys.readouterr()
    assert main(["dh-check", stable_posh]) == 0
    assert "holds" in capsys.readouterr().out


def test_kcf_stdout_is_the_out_document(stable_posh, tmp_path, capsys):
    out = tmp_path / "kcf.json"
    assert main(["kcf", stable_posh, "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert main(["kcf", stable_posh]) == 0
    assert capsys.readouterr().out.encode() == out.read_bytes()


def test_dh_realize_output(stable_posh, tmp_path, capsys):
    out = tmp_path / "dh.json"
    assert main(["dh-realize", stable_posh, "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert set(doc) >= {"e", "j", "r", "q", "n", "variant"}
    capsys.readouterr()


def test_dh_realize_refuses_unstable(unstable_pencil, capsys):
    assert main(["dh-realize", unstable_pencil]) == 3
    capsys.readouterr()


def test_beta_subcommand(stable_posh, tmp_path, capsys):
    out = tmp_path / "beta.json"
    assert main(["beta", stable_posh, "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    # J1 = 0 here, so both thresholds are unbounded
    assert doc["results"]["beta"]["beta_plus"] == "inf"
    capsys.readouterr()


def test_certify_subcommand(stable_posh, tmp_path, capsys):
    out = tmp_path / "cert.json"
    assert main(["certify", stable_posh, "--budget", "200", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    cert = doc["results"]["certify"]
    assert cert["eejjx_status"].startswith("proved_by_")
    assert cert["conclusion"] in ("numrange_in_lhp", "eigenvalues_in_lhp")
    capsys.readouterr()


def test_lin_forms(mgt_poly, tmp_path, capsys):
    for form in ("auto", "odd", "cubic"):
        out = tmp_path / f"lin-{form}.json"
        assert main(["lin", mgt_poly, "--form", form, "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["n"] == 9
    capsys.readouterr()


def test_polystab_rejects_other_degrees(tmp_path, capsys):
    doc = {"coefficients": [mat(np.eye(1)), mat(np.eye(1)), mat(np.eye(1))]}
    path = tmp_path / "quad.json"
    path.write_text(json.dumps(doc))
    assert main(["polystab", str(path)]) == 3
    capsys.readouterr()


def test_report_byte_identical(dissipative_posh, tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    args = ["report", dissipative_posh, "--samples", "300", "--seed", "11"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    doc = json.loads(a.read_text())
    assert doc["seed"] == 11
    assert doc["fingerprint"]["sha256"]
    assert doc["results"]["numrange"]["evidence"] == "sampled"
    assert doc["tool_version"]
    capsys.readouterr()


def test_report_on_polynomial(mgt_poly, tmp_path, capsys):
    out = tmp_path / "polyrep.json"
    assert main(["report", mgt_poly, "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["results"]["polynomial_index"]["computed"] == 0
    assert doc["results"]["cubic_stability"]["conclusion"] == "lhp_certified"
    capsys.readouterr()
