import math

import numpy as np
import pytest
import scipy.linalg

from pencillab import kcf, localization
from pencillab.core import EPS, PoshPencil
from pencillab.errors import PreconditionError, RankAmbiguityError
from pencillab.localization import (
    KRONECKER_SIZE_CAP,
    _random_phase,
    _symmetric_kronecker_form,
    eejjx_by_kronecker,
    eejjx_by_norms,
    eejjx_by_spectral,
    eejjx_falsify,
    eejjx_value,
    lhp_certificate,
    regularity_conditions_report,
    sector_membership,
)
from pencillab.oracles import (
    finite_eigenvalues,
    named_example,
    random_posh_pencil,
    random_psd_matrix,
    random_skew_matrix,
)


def strongly_damped(n, scale=3.0):
    j = np.zeros((n, n))
    for k in range(n - 1):
        j[k, k + 1] = 1.0
        j[k + 1, k] = -1.0
    r = scale * np.eye(n)
    return PoshPencil(j, r, j.copy(), r.copy())


def test_eejjx_value_sign():
    # J's zero: condition value is -(x*R1x)(x*R2x) <= 0
    pp = PoshPencil(np.zeros((2, 2)), np.eye(2), np.zeros((2, 2)), np.eye(2))
    x = np.array([1.0, 2.0])
    assert eejjx_value(pp, x) < 0


def test_norms_prover_on_heavy_damping():
    pp = strongly_damped(3)
    assert eejjx_by_norms(pp)
    assert eejjx_by_kronecker(pp)
    assert eejjx_by_spectral(pp)


def test_provers_reject_unstable_example():
    pp = named_example("ex_unstable")
    assert not eejjx_by_norms(pp)
    assert not eejjx_by_kronecker(pp)
    witness = eejjx_falsify(pp, budget=2000, seed=0)
    assert witness is not None
    assert eejjx_value(pp, witness) > 0


def test_falsifier_never_contradicts_provers():
    rng = np.random.default_rng(31)
    for k in range(60):
        n = int(rng.integers(2, 5))
        pp = random_posh_pencil(rng, n)
        proved = (
            eejjx_by_norms(pp)
            or eejjx_by_kronecker(pp)
            or eejjx_by_spectral(pp)
        )
        if proved:
            witness = eejjx_falsify(pp, budget=1000, seed=k)
            assert witness is None, f"iteration {k}"


def _full_kronecker(pp):
    return np.kron(pp.j1, pp.j2) - np.kron(pp.r1, pp.r2)


def _symmetric_isometry(n):
    """Columns e_i (x) e_i and (e_i (x) e_j + e_j (x) e_i)/sqrt(2), i < j, from np.kron."""
    eye = np.eye(n)
    cols = []
    for i in range(n):
        for j in range(i, n):
            if i == j:
                cols.append(np.kron(eye[i], eye[i]))
            else:
                cols.append((np.kron(eye[i], eye[j]) + np.kron(eye[j], eye[i])) / math.sqrt(2.0))
    return np.array(cols).T


def _criterion_13_pencil(k):
    rng = np.random.default_rng(13_000 + k)
    n = 1 + k % 6
    pp = random_posh_pencil(rng, n, pd_sum=(k % 3 == 0))
    if k % 10 == 0:
        pp = PoshPencil(0.01 * pp.j1, pp.r1 + np.eye(n), 0.01 * pp.j2, pp.r2 + np.eye(n))
    return pp


def test_symmetric_kronecker_form_is_the_compressed_product():
    for n in range(1, 6):
        pp = random_posh_pencil(np.random.default_rng(40 + n), n, pd_sum=(n % 2 == 0))
        p = _symmetric_isometry(n)
        expected = p.T @ _full_kronecker(pp) @ p
        got = _symmetric_kronecker_form(pp)
        assert got.shape == (n * (n + 1) // 2,) * 2
        assert np.linalg.norm(got - expected) <= 1e-13 * np.linalg.norm(expected)
    pp = random_posh_pencil(np.random.default_rng(46), 1)
    value = pp.j1[0, 0] * pp.j2[0, 0] - pp.r1[0, 0] * pp.r2[0, 0]
    assert _symmetric_kronecker_form(pp) == pytest.approx(np.array([[value]]), rel=1e-15)
    empty = np.zeros((0, 0))
    assert eejjx_by_kronecker(PoshPencil(empty, empty, empty, empty))


def test_kronecker_prover_on_the_symmetric_subspace_proves_more():
    # the full-space K has lambda_max near +1.57, its compression near -0.43
    pp = random_posh_pencil(np.random.default_rng(13_069), 4, pd_sum=True)
    assert np.linalg.eigvalsh(_full_kronecker(pp))[-1] > 1.0
    assert eejjx_by_kronecker(pp)
    cert = lhp_certificate(pp, 500, 69)
    assert cert.eejjx_status == "proved_by_kronecker"
    assert cert.conclusion == "numrange_in_lhp"
    assert eejjx_falsify(pp, 10_000, 69) is None


def test_kronecker_prover_proves_a_zero_form():
    # a Cholesky of the zero matrix fails, so K = 0 is accepted by its norm
    zero = np.zeros((3, 3))
    for pp in (
        PoshPencil(zero, zero, zero, zero),
        PoshPencil(zero, zero, zero, np.eye(3)),
    ):
        assert not np.any(_symmetric_kronecker_form(pp))
        assert eejjx_by_kronecker(pp)


def _reference_kronecker_rule(pp):
    """The eigenvalue rule the Cholesky test replaced: lambda_max <= 64*eps*max|lambda|."""
    if pp.n == 0:
        return True
    w = np.linalg.eigvalsh(_symmetric_kronecker_form(pp))
    return bool(w[-1] <= 64.0 * EPS * max(abs(w[0]), abs(w[-1])))


def _rank_deficient_psd(rng, n):
    return random_psd_matrix(rng, n, rank=int(rng.integers(0, n)))


def test_kronecker_cholesky_rule_agrees_with_the_eigenvalue_rule():
    cases = [(f"criterion 13 #{k}", _criterion_13_pencil(k)) for k in range(200)]
    empty = np.zeros((0, 0))
    cases.append(("n = 0", PoshPencil(empty, empty, empty, empty)))
    for k in range(60):
        rng = np.random.default_rng([4_100, k])
        n = 1 + k % 8
        # J1 = 0: K = -R1 (x) R2 is negative semidefinite with a kernel
        cases.append((
            f"J1 = 0 #{k}",
            PoshPencil(
                np.zeros((n, n)), _rank_deficient_psd(rng, n),
                random_skew_matrix(rng, n), _rank_deficient_psd(rng, n),
            ),
        ))
        # J_k = i K_k, K_k PSD: K = -K1 (x) K2 - R1 (x) R2, semidefinite too
        cases.append((
            f"J = iK #{k}",
            PoshPencil(
                1j * _rank_deficient_psd(rng, n), _rank_deficient_psd(rng, n),
                1j * _rank_deficient_psd(rng, n), _rank_deficient_psd(rng, n),
            ),
        ))
    rng = np.random.default_rng(4_164)
    n = KRONECKER_SIZE_CAP
    cases.append((
        "J = iK at the cap",
        PoshPencil(
            1j * random_psd_matrix(rng, n, rank=n // 2), random_psd_matrix(rng, n, rank=n // 2),
            1j * random_psd_matrix(rng, n, rank=n // 2), random_psd_matrix(rng, n, rank=n // 2),
        ),
    ))
    assert any(pp.n == 1 for _, pp in cases)
    verdicts = set()
    for label, pp in cases:
        expected = _reference_kronecker_rule(pp)
        assert eejjx_by_kronecker(pp) == expected, label
        verdicts.add(expected)
    assert verdicts == {True, False}


def test_kronecker_prover_runs_no_eigensolver(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("eigensolver called")

    damped, unstable = strongly_damped(5), named_example("ex_unstable")
    for module, name in (
        (np.linalg, "eigvalsh"), (np.linalg, "eigh"), (np.linalg, "eigvals"),
        (scipy.linalg, "eigh"), (scipy.linalg, "eigvalsh"), (scipy.linalg, "eig"),
    ):
        monkeypatch.setattr(module, name, refuse)
    assert eejjx_by_kronecker(damped)
    assert not eejjx_by_kronecker(unstable)


def test_certificate_gate_matches_provers_then_falsifier():
    # reference: every prover (Kronecker on the full space) first, then the
    # whole falsifier; the gated pipeline may differ only by proving with
    # the compressed Kronecker prover what the full-space one could not
    budget = 500
    witness_phases = set()
    for k in range(200):
        pp = _criterion_13_pencil(k)
        cert = lhp_certificate(pp, budget, k)
        w = np.linalg.eigvalsh(_full_kronecker(pp))
        full_kronecker = w[-1] <= 64.0 * EPS * max(abs(w[0]), abs(w[-1]))
        witness = None
        if eejjx_by_norms(pp):
            expected = "proved_by_norms"
        elif full_kronecker:
            expected = "proved_by_kronecker"
        elif eejjx_by_spectral(pp):
            expected = "proved_by_spectral"
        else:
            witness = eejjx_falsify(pp, budget, k)
            expected = "unknown" if witness is None else "falsified"
        if expected == "unknown" and cert.eejjx_status != "unknown":
            assert cert.eejjx_status == "proved_by_kronecker", f"instance {k}"
            assert eejjx_by_kronecker(pp)
            continue
        assert cert.eejjx_status == expected, f"instance {k}"
        if expected == "falsified":
            assert cert.witness.tobytes() == witness.tobytes(), f"instance {k}"
            first, _ = _random_phase(pp, budget, k)
            witness_phases.add("random" if first is not None else "ascent")
    assert witness_phases == {"random", "ascent"}


def test_certificate_routes_stable_case():
    pp = strongly_damped(4)
    cert = lhp_certificate(pp, seed=0)
    assert cert.eejjx_status.startswith("proved_by_")
    assert cert.conclusion in ("numrange_in_lhp", "eigenvalues_in_lhp")
    assert cert.evidence in ("exact", "sampled")


def test_certificate_falsified_on_unstable():
    pp = named_example("ex_unstable")
    cert = lhp_certificate(pp, seed=0)
    assert cert.eejjx_status == "falsified"
    assert cert.conclusion == "none"
    assert cert.witness is not None


def test_certificate_consistent_with_spectrum():
    # whenever the certificate concludes, eigenvalues must confirm it
    rng = np.random.default_rng(17)
    concluded = 0
    for k in range(40):
        n = int(rng.integers(2, 5))
        pp = random_posh_pencil(rng, n, pd_sum=(k % 3 == 0))
        if k % 4 == 0:
            # push damping up so some instances are provable
            pp = PoshPencil(
                pp.j1,
                pp.r1 + 3.0 * np.eye(n),
                pp.j2,
                pp.r2 + 3.0 * np.eye(n),
            )
        cert = lhp_certificate(pp, falsify_budget=400, seed=k)
        if cert.conclusion == "none":
            continue
        concluded += 1
        for z in finite_eigenvalues(pp.pencil()):
            assert z.real <= 1e-8 * (1.0 + abs(z)), f"iteration {k}: {z}"
    assert concluded >= 5


def test_sector_membership_filters():
    pts = [1.0 + 0.01j, -1.0, 1j, 0.5 * math.e ** (1j * 0.1), 1e-12 + 0j]
    bad = sector_membership(pts, d=3)
    # pi/3 sector: 1+0.01j and the 0.1-radian point violate; origin exempt
    assert 1.0 + 0.01j in bad
    assert not any(abs(z + 1.0) < 1e-9 for z in bad)
    assert not any(abs(z - 1j) < 1e-9 for z in bad)
    assert len(bad) == 2
    with pytest.raises(PreconditionError):
        sector_membership(pts, d=0)


def test_regularity_report_on_definite_pencil():
    pp = strongly_damped(3)
    rep = regularity_conditions_report(pp)
    assert rep.p_regular
    assert rep.rr_regular
    assert len(rep.items) == 5
    for item in rep.items:
        if item.hypothesis and item.verified is not None:
            assert item.verified, item.label


def test_regularity_report_raises_when_the_extraction_refuses(monkeypatch):
    def refuse(p):
        raise RankAmbiguityError("gap too small to call")

    monkeypatch.setattr(localization, "kronecker_structure", refuse)
    with pytest.raises(RankAmbiguityError, match="gap too small to call"):
        regularity_conditions_report(strongly_damped(3))


def _shared_kernel_posh(n=6):
    """J2 = J1/2 real skew, and PSD R1, R2 with one common kernel vector.

    The spectral prover proves the condition and (d) fails on W, so the
    certificate takes the skew-structure route.
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

    return PoshPencil(j1, psd_killing_k(), j1 / 2.0, psd_killing_k())


def test_skew_pencil_structure_serves_every_later_call(monkeypatch):
    calls = []
    extract = kcf._escalated_structure

    def counting(p):
        calls.append(p)
        return extract(p)

    monkeypatch.setattr(kcf, "_escalated_structure", counting)
    pp = _shared_kernel_posh()
    certs = [lhp_certificate(pp, seed=s) for s in (1, 2, 3)]
    assert {c.hypothesis_route for c in certs} == {"skew_structure"}
    # the pencil and lambda*J1 + J2, each extracted once
    assert len(calls) == 2
    assert calls[1] is pp.half_pencil("j1", "j2")
    rep = regularity_conditions_report(pp)
    # only the three half pencils other than lambda*J1 + J2 are new
    assert len(calls) == 5
    assert all(p is not pp.half_pencil("j1", "j2") for p in calls[2:])
    assert rep.jj_regular
    # a second report reads every structure it needs from the kept ones
    assert regularity_conditions_report(pp) == rep
    assert len(calls) == 5


def test_half_pencils_are_kept():
    pp = _shared_kernel_posh()
    rr = pp.half_pencil("r1", "r2")
    assert pp.half_pencil("r1", "r2") is rr
    assert rr.convention == "plus"
    assert np.array_equal(rr.lead, pp.r1) and np.array_equal(rr.constant, pp.r2)
    assert pp.half_pencil("r2", "r1") is not rr


def test_regularity_report_labels():
    rng = np.random.default_rng(5)
    pp = random_posh_pencil(rng, 3)
    rep = regularity_conditions_report(pp)
    labels = [item.label for item in rep.items]
    assert labels == ["i", "ii", "iii", "iv", "v"]
