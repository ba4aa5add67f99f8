import math

import numpy as np
import pytest

from pencillab.core import EPS, PoshPencil
from pencillab.errors import PreconditionError
from pencillab.localization import (
    _random_phase,
    _symmetric_kronecker_form,
    eejjx_by_kronecker,
    eejjx_by_norms,
    eejjx_by_spectral,
    eejjx_falsify,
    eejjx_real_form,
    eejjx_value,
    lhp_certificate,
    regularity_conditions_report,
    sector_membership,
)
from pencillab.oracles import named_example, random_posh_pencil


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


def test_real_form_falsifier_requires_real_data():
    pp = PoshPencil(
        np.array([[1j]]), np.zeros((1, 1)), np.array([[-1j]]), np.eye(1)
    )
    with pytest.raises(PreconditionError):
        eejjx_real_form(pp, budget=10, seed=0)


def test_real_form_witness_maps_to_complex_violation():
    pp = named_example("ex_unstable")
    witness = eejjx_real_form(pp, budget=4000, seed=2)
    assert witness is not None
    xi, eta = witness
    assert eejjx_value(pp, xi + 1j * eta) > 0


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
    from pencillab.core import finite_eigenvalues

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


def test_regularity_report_labels():
    rng = np.random.default_rng(5)
    pp = random_posh_pencil(rng, 3)
    rep = regularity_conditions_report(pp)
    labels = [item.label for item in rep.items]
    assert labels == ["i", "ii", "iii", "iv", "v"]
