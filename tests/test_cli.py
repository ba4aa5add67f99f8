import argparse
import builtins
import hashlib
import json
import math

import numpy as np
import orjson
import pytest

from pencillab import cli, kcf, numrange
from pencillab.cli import main
from pencillab.fileio import load_pencil_file
from pencillab.matpoly import mgt_polynomial
from pencillab.oracles import (
    named_example,
    random_posh_pencil,
    random_psd_matrix,
    random_skew_matrix,
)


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


def test_numrange_takes_only_the_pencil_norms(dissipative_posh, tmp_path, monkeypatch, capsys):
    # the regions need beta_plus and beta_minus only: no SVD of R1 + R2 for
    # the lower bound, and no norm of J1
    pp = load_pencil_file(dissipative_posh)[0]
    svd, inputs = np.linalg.svd, []

    def recording_svd(a, *args, **kwargs):
        inputs.append(np.array(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recording_svd)
    regions = tmp_path / "regions.json"
    assert main(["numrange", dissipative_posh, "--samples", "50", "--regions", str(regions)]) == 0
    capsys.readouterr()
    p = pp.pencil()
    assert len(inputs) == 2
    assert all(any(np.array_equal(a, m) for a in inputs) for m in (p.lead, p.constant))
    assert [r["type"] for r in json.loads(regions.read_text())] == ["pacman", "pacman"]


def test_numrange_deterministic_for_seed(dissipative_posh, tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    main(["numrange", dissipative_posh, "--samples", "100", "--seed", "5", "--out", str(a)])
    main(["numrange", dissipative_posh, "--samples", "100", "--seed", "5", "--out", str(b)])
    assert a.read_text() == b.read_text()


def test_numrange_csv_is_the_repr_of_each_sampled_point(tmp_path, capsys):
    pp = random_posh_pencil(np.random.default_rng(32), 32)
    path = tmp_path / "n32.posh.json"
    path.write_text(json.dumps({name: mat(getattr(pp, name)) for name in ("j1", "r1", "j2", "r2")}))
    out = tmp_path / "pts.csv"
    assert main(["numrange", str(path), "--samples", "5000", "--seed", "9", "--out", str(out)]) == 0
    capsys.readouterr()
    # the reference is sampled here, not read from a stored hash, so it
    # holds whatever BLAS rounds the sampler's products
    loaded, _ = load_pencil_file(str(path))
    sample = numrange.sample_numerical_range(loaded.pencil(), 5000, 9)
    assert len(sample.points) > 4000
    expected = "re,im\n" + "".join(f"{z.real!r},{z.imag!r}\n" for z in sample.points)
    assert out.read_bytes() == expected.encode("utf-8")


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


def test_beta_near_the_float_limit_of_j1(tmp_path, capsys):
    # k + k* overflows for k = i*J1, but its Hermitian part, halved first, is finite
    s = np.array([[0.5, 0.3], [0.3, -0.9]])
    doc = {
        "j1": mat(-1e308j * s),
        "r1": mat(np.eye(2)),
        "j2": mat(np.zeros((2, 2))),
        "r2": mat(np.eye(2)),
    }
    path = tmp_path / "huge.posh.json"
    path.write_text(json.dumps(doc))
    assert main(["beta", str(path)]) == 0
    fields = dict(word.split("=") for word in capsys.readouterr().out.split())
    want = 2.0 / (-np.linalg.eigvalsh(s)[0] * 1e308)  # h0 = R1 + R2 = 2I
    assert math.isclose(float(fields["beta_plus"]), want, rel_tol=1e-12)


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


@pytest.mark.parametrize(
    "doc, message",
    [
        (
            {"coefficients": [[[[1, 0]]], [[[1, "x"]]]]},
            "coefficients[1][0][0]: expected a [re, im] pair, got [1, 'x']",
        ),
        (
            {"degree": 3, "coefficients": [[[[1, 0]]], [[[1, 0]]]]},
            "declared degree 3 but found 1",
        ),
    ],
)
def test_report_names_the_fault_of_a_broken_polynomial(doc, message, tmp_path, capsys):
    path = tmp_path / "broken.poly.json"
    path.write_text(json.dumps(doc))
    for command in ("report", "polystab"):
        assert main([command, str(path)]) == 2
        err = capsys.readouterr().err
        assert message in err, command
        assert "lead/const" not in err


def test_report_decodes_a_pencil_file_once(dissipative_posh, tmp_path, monkeypatch, capsys):
    decoded = []
    loads = orjson.loads

    def counting_loads(data):
        decoded.append(data)
        return loads(data)

    monkeypatch.setattr(orjson, "loads", counting_loads)
    out = tmp_path / "rep.json"
    assert main(["report", dissipative_posh, "--samples", "50", "--out", str(out)]) == 0
    assert len(decoded) == 1
    monkeypatch.undo()
    assert json.loads(out.read_text())["fingerprint"]["kind"] == "posh_pencil"
    capsys.readouterr()


def test_report_decides_the_kernel_conditions_once_per_file(
    stable_posh, dissipative_posh, monkeypatch, capsys
):
    calls = []
    kernel_with_gap = numrange._kernel_with_gap

    def counting(matrices):
        calls.append(matrices)
        return kernel_with_gap(matrices)

    monkeypatch.setattr(numrange, "_kernel_with_gap", counting)
    # a proved certificate reads condition (d) from the verdicts kept on the
    # pencil, which the chain reads again; a falsified one never reaches them
    for path, status in ((stable_posh, "proved_by_"), (dissipative_posh, "falsified")):
        calls.clear()
        assert main(["report", path, "--samples", "50"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["results"]["certify"]["eejjx_status"].startswith(status), path
        assert len(calls) == 1, path


def test_report_reads_its_input_once(unstable_pencil, tmp_path, monkeypatch, capsys):
    opened = []
    real_open = builtins.open

    def counting_open(file, *args, **kwargs):
        opened.append(file)
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", counting_open)
    out = tmp_path / "rep.json"
    assert main(["report", unstable_pencil, "--samples", "50", "--out", str(out)]) == 0
    monkeypatch.undo()
    assert opened.count(unstable_pencil) == 1
    with open(unstable_pencil, "rb") as fh:
        digest = hashlib.sha256(fh.read()).hexdigest()
    assert json.loads(out.read_text())["fingerprint"]["sha256"] == digest
    capsys.readouterr()


def _count_extractions(monkeypatch) -> list:
    """The pencils whose Kronecker structure is extracted, not read from a kept one."""
    calls = []
    extract = kcf._escalated_structure

    def counting(p):
        calls.append(p)
        return extract(p)

    monkeypatch.setattr(kcf, "_escalated_structure", counting)
    return calls


def _shared_kernel_file(tmp_path, kind: str, n: int = 6):
    """A posH or minus-convention plain file, and its J1.

    J2 = J1/2 real skew and PSD R1, R2 with one common kernel vector: the
    spectral prover proves the condition and (d) fails on W, so the
    certificate reads the pencil's regularity and takes the skew-structure
    route.
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
    if kind == "posh":
        doc = {"j1": mat(j1), "r1": mat(r1), "j2": mat(j1 / 2.0), "r2": mat(r2)}
    else:
        doc = {"n": n, "convention": "minus", "lead": mat(j1 + r1), "const": mat(-(j1 / 2.0 + r2))}
    path = tmp_path / f"shared.{kind}.json"
    path.write_text(json.dumps(doc))
    return str(path), j1


def test_report_extracts_one_structure_from_a_plain_file(unstable_pencil, monkeypatch, capsys):
    calls = _count_extractions(monkeypatch)
    assert main(["report", unstable_pencil, "--samples", "50"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["fingerprint"]["kind"] == "pencil"
    # the certificate is falsified, so its skew-structure route never runs
    assert doc["results"]["certify"]["eejjx_status"] == "falsified"
    assert doc["results"]["nocommon_chain"]["pencil_regular"]["detail"] == "Kronecker structure"
    assert len(calls) == 1


@pytest.mark.parametrize("kind", ["posh", "plain"])
def test_report_reads_the_pencil_structure_through_every_analysis_once(
    kind, tmp_path, monkeypatch, capsys
):
    path, j1 = _shared_kernel_file(tmp_path, kind)
    calls = _count_extractions(monkeypatch)
    assert main(["report", path, "--samples", "200"]) == 0
    results = json.loads(capsys.readouterr().out)["results"]
    assert results["certify"]["hypothesis_route"] == "skew_structure"
    assert results["nocommon_chain"]["pencil_regular"]["detail"] == "Kronecker structure"
    # the file's pencil, then lambda*J1 + J2 for the skew-structure route
    assert len(calls) == 2
    assert calls[0].convention == ("plus" if kind == "posh" else "minus")
    assert np.allclose(calls[1].lead, j1)


def test_certify_and_report_agree_on_a_plain_file(tmp_path, capsys):
    # certify reads regularity from the file's pencil, as report does
    path, _ = _shared_kernel_file(tmp_path, "plain")
    out = tmp_path / "cert.json"
    assert main(["certify", path, "--seed", "4", "--budget", "200", "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(["report", path, "--seed", "4", "--samples", "200"]) == 0
    report = json.loads(capsys.readouterr().out)
    certify = json.loads(out.read_text())
    assert certify["results"]["certify"]["hypothesis_route"] == "skew_structure"
    assert certify["results"]["certify"] == report["results"]["certify"]


def test_report_takes_each_coefficient_norm_once(tmp_path, spectral_norm_calls, capsys):
    # J2 = J1/2 with R's of rank n/2: the spectral prover runs after the
    # norm prover and the falsifier's threshold, and all of them read norms
    rng = np.random.default_rng(3)
    j1 = random_skew_matrix(rng, 6)
    mats = {
        "j1": j1,
        "r1": random_psd_matrix(rng, 6, rank=3),
        "j2": j1 / 2.0,
        "r2": random_psd_matrix(rng, 6, rank=3),
    }
    path = tmp_path / "spectral.posh.json"
    path.write_text(json.dumps({name: mat(m) for name, m in mats.items()}))
    assert main(["report", str(path), "--samples", "200"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["results"]["certify"]["eejjx_status"] == "proved_by_spectral"
    # the fingerprint reports all four, so each is taken exactly once
    for name, m in mats.items():
        taken = sum(a.shape == m.shape and np.array_equal(a, m) for a in spectral_norm_calls)
        assert taken == 1, name


def test_report_takes_the_norm_of_each_pencil_coefficient_once(
    tmp_path, spectral_norm_calls, capsys
):
    # kronecker_structure and sample_numerical_range both read the norms of
    # J1+R1 and J2+R2, through the one Pencil that PoshPencil.pencil() keeps
    pp = random_posh_pencil(np.random.default_rng(4), 6, pd_sum=True)
    path = tmp_path / "sum.posh.json"
    path.write_text(json.dumps({k: mat(getattr(pp, k)) for k in ("j1", "r1", "j2", "r2")}))
    assert main(["report", str(path), "--samples", "200"]) == 0
    capsys.readouterr()
    for m in (pp.j1 + pp.r1, pp.j2 + pp.r2):
        assert sum(a.shape == m.shape and np.array_equal(a, m) for a in spectral_norm_calls) == 1


def test_main_builds_its_parser_once(unstable_pencil, monkeypatch, capsys):
    assert main(["kcf", unstable_pencil]) == 0
    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    assert main(["kcf", unstable_pencil]) == 0
    assert built == []
    capsys.readouterr()


def test_main_dispatches_through_the_module_binding(unstable_pencil, monkeypatch, capsys):
    # the parser outlives the call, but a rebound handler is still the one run
    assert main(["kcf", unstable_pencil]) == 0
    monkeypatch.setattr(cli, "cmd_kcf", lambda args: 7)
    assert main(["kcf", unstable_pencil]) == 7
    capsys.readouterr()
