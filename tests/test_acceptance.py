"""Acceptance gate: each test pins one shipped guarantee with fixed budgets.

Every test carries its own wall-clock ceiling; a failure here means either a
broken guarantee or a performance regression, and the test name says which
guarantee it is.
"""

import math
import time

import numpy as np

from pencillab.core import (
    Pencil,
    PoshPencil,
    posh_from_parts,
    spectral_norm,
)
from pencillab.dh import (
    GENERAL_Q,
    Q_IDENTITY,
    check_dh_equivalence,
    realize_dh,
)
from pencillab.kcf import kronecker_structure, structures_match
from pencillab.localization import (
    KRONECKER_SIZE_CAP,
    _positive_real_eigenpairs,
    eejjx_by_kronecker,
    eejjx_by_norms,
    eejjx_by_spectral,
    eejjx_falsify,
    sector_membership,
)
from pencillab.matpoly import (
    MatrixPolynomial,
    cubic_stability,
    linearize_cubic,
    mgt_polynomial,
    mgt_stability,
    polynomial_index,
    sample_rayleigh_roots,
)
from pencillab.numrange import (
    PacmanRegion,
    beta_thresholds,
    pacman_excludes,
    sample_numerical_range,
)
from pencillab.oracles import (
    BlockSpec,
    assemble_pencil,
    finite_eigenvalues,
    named_example,
    random_admissible_structure,
    random_posh_pencil,
    random_positive_cubic,
    random_psd_matrix,
    random_psd_polynomial,
    random_singular_posh_pencil,
    random_skew_matrix,
    random_skew_pair_with_index,
    random_unitary,
    routh_hurwitz,
)


def greedy_match(got, expected, tol):
    """Pair each expected value with a distinct computed one within tol."""
    pool = list(got)
    for want in expected:
        best = min(pool, key=lambda z: abs(z - want))
        assert abs(best - want) <= tol, f"no match for {want}: nearest {best}"
        pool.remove(best)


def test_criterion_01_unstable_example_spectrum():
    t0 = time.perf_counter()
    pp = named_example("ex_unstable")
    eigs = finite_eigenvalues(pp.pencil())
    assert len(eigs) == 3
    root = math.sqrt(3.0) / 2.0
    greedy_match(eigs, [-1.0, 0.5 + root * 1j, 0.5 - root * 1j], 1e-8)
    assert sum(1 for z in eigs if z.real > 0) == 2
    assert time.perf_counter() - t0 < 1.0


def test_criterion_02_linearization_index_bound():
    t0 = time.perf_counter()
    # the constant polynomial padded to formal degree d hits the bound exactly
    for d in (3, 4, 5):
        coeffs = [np.array([[1.0]])] + [np.array([[0.0]])] * d
        index, bound = polynomial_index(MatrixPolynomial(coeffs))
        assert index == d
        assert bound == d
    for k in range(100):
        rng = np.random.default_rng(2000 + k)
        n = 1 + k % 3
        d = 1 + k % 5
        p = random_psd_polynomial(rng, n, d)
        index, _ = polynomial_index(p)
        assert 0 <= index <= d
    assert time.perf_counter() - t0 < 30.0


def test_criterion_03_rayleigh_roots_respect_sector():
    t0 = time.perf_counter()
    for k in range(200):
        rng = np.random.default_rng(3000 + k)
        d = 1 + k % 5
        n = 1 + k % 3
        p = random_psd_polynomial(rng, n, d)
        roots = sample_rayleigh_roots(p, 1000, seed=k)
        assert sector_membership(roots, d) == []
    assert time.perf_counter() - t0 < 60.0


def test_criterion_04_pacman_regions_exclude_samples():
    t0 = time.perf_counter()
    shrink = 1.0 - 1e-6
    for k in range(100):
        rng = np.random.default_rng(4000 + k)
        n = 3 + k % 6
        pp = random_posh_pencil(rng, n, pd_sum=True)
        bt = beta_thresholds(pp)
        floor = float(np.linalg.eigvalsh(pp.r1 + pp.r2)[0]) / spectral_norm(pp.j1)
        regions = []
        for beta, sign in ((bt.beta_plus, "plus"), (bt.beta_minus, "minus")):
            assert beta is not None
            assert beta >= floor - 1e-8
            if math.isinf(beta):
                regions.append(PacmanRegion(math.inf, sign))
            elif beta > 0.0:
                regions.append(PacmanRegion(beta * shrink, sign))
        sample = sample_numerical_range(pp.pencil(), 10_000, seed=k)
        for region in regions:
            hits = [z for z in sample.points if pacman_excludes(region, z)]
            assert hits == [], f"pencil {k}: {len(hits)} points inside {region}"
    assert time.perf_counter() - t0 < 120.0


def _random_block_soup(rng):
    pool = [complex(re, im) for re in range(-2, 3) for im in range(-2, 3)]
    order = rng.permutation(len(pool))
    eigs = [pool[int(i)] for i in order[:3]]
    blocks = []
    rows = cols = 0
    for _ in range(int(rng.integers(1, 5))):
        kind = int(rng.integers(0, 4))
        if kind == 0:
            size = int(rng.integers(1, 4))
            spec = BlockSpec("finite_jordan", size, eigs[int(rng.integers(0, 3))])
            dr = dc = size
        elif kind == 1:
            size = int(rng.integers(1, 4))
            spec = BlockSpec("infinite", size)
            dr = dc = size
        elif kind == 2:
            size = int(rng.integers(0, 3))
            spec = BlockSpec("right_singular", size)
            dr, dc = size, size + 1
        else:
            size = int(rng.integers(0, 3))
            spec = BlockSpec("left_singular", size)
            dr, dc = size + 1, size
        if max(rows + dr, cols + dc) > 10:
            break
        blocks.append(spec)
        rows += dr
        cols += dc
    if not blocks:
        blocks.append(BlockSpec("finite_jordan", 1, eigs[0]))
    return blocks


def test_criterion_05_kronecker_recovery_against_oracle():
    t0 = time.perf_counter()
    for k in range(500):
        rng = np.random.default_rng(5000 + k)
        blocks = _random_block_soup(rng)
        cap = float(10.0 ** rng.uniform(0.0, 2.0))
        p, truth = assemble_pencil(blocks, transform_condition_cap=cap, seed=k)
        got = kronecker_structure(p)
        assert structures_match(got, truth), f"soup {k}: {got} != {truth}"
    assert time.perf_counter() - t0 < 120.0


def test_criterion_06_singular_part_is_symmetric():
    t0 = time.perf_counter()
    for k in range(200):
        rng = np.random.default_rng(6000 + k)
        n = 2 + k % 6
        pp = random_singular_posh_pencil(rng, n)
        ks = kronecker_structure(pp.pencil())
        assert ks.right_minimal_indices == ks.left_minimal_indices
        assert not ks.regular
    assert time.perf_counter() - t0 < 60.0


def test_criterion_07_dh_realization_roundtrip():
    t0 = time.perf_counter()
    for k in range(300):
        rng = np.random.default_rng(7000 + k)
        variant = GENERAL_Q if k % 2 == 0 else Q_IDENTITY
        ks = random_admissible_structure(rng, variant)
        verdict = check_dh_equivalence(ks, variant=variant)
        assert verdict.holds, f"structure {k}: {verdict.violated_conditions}"
        dh = realize_dh(ks, variant)
        assert np.array_equal(dh.j, -dh.j.conj().T)
        r_scale = max(spectral_norm(dh.r), 1.0)
        herm_r = (dh.r + dh.r.conj().T) / 2.0
        assert np.linalg.norm(dh.r - herm_r) <= 1e-10 * r_scale
        assert float(np.linalg.eigvalsh(herm_r)[0]) >= -1e-10 * r_scale
        qe = dh.q.conj().T @ dh.e
        qe_scale = max(float(np.linalg.norm(qe)), 1.0)
        assert np.linalg.norm(qe - qe.conj().T) <= 1e-10 * qe_scale
        herm_qe = (qe + qe.conj().T) / 2.0
        assert float(np.linalg.eigvalsh(herm_qe)[0]) >= -1e-10 * qe_scale
        if variant == Q_IDENTITY:
            assert np.array_equal(dh.q, np.eye(dh.q.shape[0]))
        assert structures_match(kronecker_structure(dh.pencil()), ks)
    assert time.perf_counter() - t0 < 60.0


def test_criterion_08_cubic_certificates_match_routh():
    t0 = time.perf_counter()
    certified = 0
    for k in range(1000):
        coeffs = random_positive_cubic(np.random.default_rng(8000 + k))
        p = MatrixPolynomial([np.array([[c]]) for c in coeffs])
        report = cubic_stability(p)
        if report.conclusion == "lhp_certified":
            certified += 1
            assert routh_hurwitz(coeffs) in ("strict_lhp", "closed_lhp_marginal")
    assert certified > 0
    for a in (1.0, 1.01, 2.0):
        p = MatrixPolynomial([np.array([[c]]) for c in (1.0, a, a, 1.0)])
        assert cubic_stability(p).conclusion == "lhp_certified"
    for a in (0.5, 0.9):
        p = MatrixPolynomial([np.array([[c]]) for c in (1.0, a, a, 1.0)])
        assert cubic_stability(p).conclusion != "lhp_certified"
        assert routh_hurwitz((1.0, a, a, 1.0)) == "unstable"
    assert time.perf_counter() - t0 < 30.0


def test_criterion_09_mgt_certificates():
    t0 = time.perf_counter()
    rng = np.random.default_rng(90)
    g = rng.standard_normal((4, 4))
    spd = g @ g.T + 0.5 * np.eye(4)
    for t_mat in (np.eye(3), spd):
        assert mgt_stability(2.0, 2.0, 1.0, t_mat) == "lhp_certified"
        pp = linearize_cubic(mgt_polynomial(2.0, 2.0, 1.0, t_mat))
        eigs = finite_eigenvalues(pp.pencil())
        assert max(z.real for z in eigs) <= 1e-8
        assert mgt_stability(0.5, 2.0, 1.0, t_mat) == "inconclusive"
    assert time.perf_counter() - t0 < 10.0


def test_criterion_10_conjecture_family_spectrum():
    t0 = time.perf_counter()
    pp = named_example("conjecture", 0.0)
    ks = kronecker_structure(pp.pencil())
    assert ks.finite_eigenstructure, "expected finite spectrum at t=0"
    reps = [lam for lam, _ in ks.finite_eigenstructure]
    nearest = min(reps, key=lambda z: abs(z - (-0.1)))
    assert abs(nearest - (-0.1)) <= 1e-10
    crossed = False
    for step in range(1, 31):
        t = 0.1 * step
        eigs = finite_eigenvalues(named_example("conjecture", t).pencil())
        if any(z.real > 1e-8 for z in eigs):
            crossed = True
            break
    assert crossed, "no eigenvalue crossed the axis on the scanned range"
    assert time.perf_counter() - t0 < 10.0


def test_criterion_11_index_bound_over_skew_pairs():
    t0 = time.perf_counter()
    for k in range(100):
        rng = np.random.default_rng(11_000 + k)
        kappa = 1 + k % 3
        pair = random_skew_pair_with_index(rng, kappa)
        n = pair.j1.shape[0]
        assert pair.max_right_minimal <= kappa - 1
        pp = PoshPencil(pair.j1, random_psd_matrix(rng, n), pair.j2, random_psd_matrix(rng, n))
        ks = kronecker_structure(pp.pencil())
        assert ks.index <= 2 * kappa, f"pair {k}: index {ks.index} > {2 * kappa}"

    # two hand-built pencils showing the bound is tight for kappa = 2
    e = np.eye(3)
    j1 = np.array([[0, 0, 0], [0, 0, 1], [0, -1, 0]], dtype=float)
    j2 = np.array([[0, 0, 1], [0, 0, 0], [-1, 0, 0]], dtype=float)
    r2 = np.diag([0.0, 1.0, 0.0])
    pp3 = PoshPencil(j1, np.zeros((3, 3)), j2, r2)
    for vec in (e[0],):
        assert np.linalg.norm(pp3.r1 @ vec) <= 1e-12
        assert np.linalg.norm(pp3.r2 @ vec) <= 1e-12
    assert np.linalg.norm(pp3.r1 @ e[1]) <= 1e-12
    assert np.linalg.norm(pp3.r2 @ e[1]) > 1e-12
    ks3 = kronecker_structure(pp3.pencil())
    assert ks3.regular
    assert ks3.infinite_block_sizes == (3,)
    assert ks3.index == 3
    pair3 = kronecker_structure(Pencil(j1, j2, convention="plus"))
    assert not pair3.regular
    assert pair3.right_minimal_indices == (1,)

    e = np.eye(4)
    j1 = np.zeros((4, 4))
    j1[1, 3] = 1.0
    j1[3, 1] = -1.0
    r1 = np.diag([0.0, 0.0, 1.0, 0.0])
    j2 = np.array(
        [[0, 0, 0, 1], [0, 0, 1, 0], [0, -1, 0, 0], [-1, 0, 0, 0]], dtype=float
    )
    pp4 = PoshPencil(j1, r1, j2, np.zeros((4, 4)))
    for vec in (e[0], e[1]):
        assert np.linalg.norm(pp4.r1 @ vec) <= 1e-12
        assert np.linalg.norm(pp4.r2 @ vec) <= 1e-12
    assert np.linalg.norm(pp4.r1 @ e[2]) > 1e-12
    ks4 = kronecker_structure(pp4.pencil())
    assert ks4.regular
    assert ks4.index == 4
    pair4 = kronecker_structure(Pencil(j1, j2, convention="plus"))
    assert pair4.regular
    assert pair4.infinite_block_sizes == (2, 2)
    assert time.perf_counter() - t0 < 60.0


def _lemma_residuals(pp, lam, x):
    x = np.asarray(x, dtype=np.complex128)
    x = x / np.linalg.norm(x)
    return (
        float(np.linalg.norm(pp.r1 @ x)),
        float(np.linalg.norm(pp.r2 @ x)),
        float(np.linalg.norm((lam * pp.j1 + pp.j2) @ x)),
    )


def _lemma_scale(pp, lam):
    norms = [spectral_norm(m) for m in (pp.j1, pp.r1, pp.j2, pp.r2)]
    return (1.0 + abs(lam)) * max(1.0, *norms)


def test_criterion_12_positive_real_eigenpairs_annihilate():
    t0 = time.perf_counter()
    checked = 0
    # constructed pencils with a planted eigenpair at a known positive lam0
    for k in range(20):
        rng = np.random.default_rng(12_000 + k)
        n = int(rng.integers(3, 7))
        lam0 = float(np.exp(rng.uniform(-0.5, 1.0)))
        j1 = random_skew_matrix(rng, n)
        extra = random_skew_matrix(rng, n)
        extra[0, :] = 0.0
        extra[:, 0] = 0.0
        j2 = -lam0 * j1 + extra
        r1 = np.zeros((n, n), dtype=np.complex128)
        r2 = np.zeros((n, n), dtype=np.complex128)
        r1[1:, 1:] = random_psd_matrix(rng, n - 1)
        r2[1:, 1:] = random_psd_matrix(rng, n - 1)
        u = random_unitary(rng, n)
        pp = posh_from_parts(
            u @ j1 @ u.conj().T,
            u @ r1 @ u.conj().T,
            u @ j2 @ u.conj().T,
            u @ r2 @ u.conj().T,
        )
        pairs = _positive_real_eigenpairs(pp)
        assert any(abs(lam - lam0) <= 1e-6 * (1 + lam0) for lam, _ in pairs)
        for lam, x in pairs:
            tol = 1e-8 * _lemma_scale(pp, lam)
            for res in _lemma_residuals(pp, lam, x):
                assert res <= tol
            checked += 1
    # random sweep: any incidental positive real eigenpair obeys the same law
    for k in range(40):
        rng = np.random.default_rng(12_500 + k)
        pp = random_posh_pencil(rng, 2 + k % 5)
        for lam, x in _positive_real_eigenpairs(pp):
            tol = 1e-8 * _lemma_scale(pp, lam)
            for res in _lemma_residuals(pp, lam, x):
                assert res <= tol
            checked += 1
    assert checked >= 20
    assert time.perf_counter() - t0 < 120.0


def test_criterion_13_provers_never_contradicted():
    t0 = time.perf_counter()
    proved = 0
    for k in range(200):
        rng = np.random.default_rng(13_000 + k)
        n = 1 + k % 6
        pp = random_posh_pencil(rng, n, pd_sum=(k % 3 == 0))
        if k % 10 == 0:
            # damp heavily so a visible share of instances is provable
            pp = PoshPencil(
                0.01 * pp.j1, pp.r1 + np.eye(n), 0.01 * pp.j2, pp.r2 + np.eye(n)
            )
        claims = [
            eejjx_by_norms(pp),
            eejjx_by_kronecker(pp),
            eejjx_by_spectral(pp),
        ]
        if any(claims):
            proved += 1
            witness = eejjx_falsify(pp, budget=10_000, seed=k)
            assert witness is None, f"instance {k}: prover contradicted"
    assert proved >= 10
    assert time.perf_counter() - t0 < 60.0


def test_kronecker_prover_proves_at_the_size_cap():
    # the benchmark's kronecker family: J_k = i K_k with K_k PSD makes
    # J1 (x) J2 - R1 (x) R2 negative semidefinite, and rank-deficient R's
    # defeat the norm bound
    rng = np.random.default_rng(6_400)
    n = KRONECKER_SIZE_CAP
    pp = PoshPencil(
        1j * random_psd_matrix(rng, n), random_psd_matrix(rng, n, rank=n // 2),
        1j * random_psd_matrix(rng, n), random_psd_matrix(rng, n, rank=n // 2),
    )
    assert not eejjx_by_norms(pp)
    t0 = time.perf_counter()
    assert eejjx_by_kronecker(pp)
    assert time.perf_counter() - t0 < 5.0
