import numpy as np
import pytest

from pencillab.core import validate_posh
from pencillab.errors import (
    InputFormatError,
    PreconditionError,
    SingularPencilError,
)
from pencillab.kcf import kronecker_structure, structures_match
from pencillab.matpoly import MatrixPolynomial
from pencillab.oracles import (
    BlockSpec,
    assemble_pencil,
    finite_eigenvalues,
    named_example,
    random_admissible_structure,
    random_posh_pencil,
    random_psd_polynomial,
    random_singular_posh_pencil,
    random_skew_pair_with_index,
    routh_hurwitz,
    scalarized_roots,
)


def test_block_spec_shapes():
    assert BlockSpec("right_singular", 1).shape == (1, 2)
    assert BlockSpec("left_singular", 2).shape == (3, 2)
    assert BlockSpec("finite_jordan", 3, eigenvalue=2.0).shape == (3, 3)
    assert BlockSpec("infinite", 2).shape == (2, 2)
    with pytest.raises(InputFormatError):
        BlockSpec("finite_jordan", 2)  # eigenvalue required
    with pytest.raises(InputFormatError):
        BlockSpec("diagonal", 2)


def test_assemble_identity_transform_is_canonical():
    blocks = [BlockSpec("finite_jordan", 2, eigenvalue=1.5)]
    p, truth = assemble_pencil(blocks, transform_condition_cap=1.0, seed=0)
    assert np.allclose(p.lead, np.eye(2))
    assert truth.finite_eigenstructure == ((1.5 + 0j, (2,)),)


def test_assemble_mixed_block_dimensions():
    # right L_1 (1x2) + left L_1^T (2x1): 3x3 overall
    blocks = [BlockSpec("right_singular", 1), BlockSpec("left_singular", 1)]
    p, truth = assemble_pencil(blocks, seed=1)
    assert p.shape == (3, 3)
    assert truth.right_minimal_indices == (1,)
    assert truth.left_minimal_indices == (1,)


def test_assemble_recovery_under_transforms():
    for seed in range(30):
        rng = np.random.default_rng(seed)
        blocks = [
            BlockSpec(
                "finite_jordan",
                int(rng.integers(1, 3)),
                eigenvalue=complex(
                    float(rng.integers(-3, 4)), float(rng.integers(-3, 4))
                ),
            ),
            BlockSpec("infinite", int(rng.integers(1, 3))),
        ]
        p, truth = assemble_pencil(blocks, transform_condition_cap=100.0, seed=seed)
        assert structures_match(kronecker_structure(p), truth), f"seed {seed}"


def test_routh_reference_cases():
    assert routh_hurwitz([1.0, 2.0, 2.0, 1.0]) == "strict_lhp"
    assert routh_hurwitz([1.0, 1.0]) == "strict_lhp"
    assert routh_hurwitz([1.0, 0.0, 1.0]) == "closed_lhp_marginal"
    assert routh_hurwitz([-1.0, 1.0, 1.0]) == "unstable"
    with pytest.raises(PreconditionError):
        routh_hurwitz([1.0, 2.0, -1e-30])  # leading below the zero floor
    with pytest.raises(PreconditionError):
        routh_hurwitz([])


def test_routh_marginal_families():
    # (s^2 + 1)(s + 2) = s^3 + 2 s^2 + s + 2, ascending (2, 1, 2, 1)
    assert routh_hurwitz([2.0, 1.0, 2.0, 1.0]) == "closed_lhp_marginal"
    # s(s + 1): root at origin
    assert routh_hurwitz([0.0, 1.0, 1.0]) == "closed_lhp_marginal"
    # (s^2 + 1)^2: repeated imaginary pair is not strictly stable
    assert routh_hurwitz([1.0, 0.0, 2.0, 0.0, 1.0]) != "strict_lhp"


def test_routh_agrees_with_companion_roots():
    rng = np.random.default_rng(6)
    for k in range(2000):
        deg = 3 if k % 2 == 0 else 4
        coeffs = np.exp(rng.uniform(-2.0, 2.0, deg + 1))
        signs = rng.choice([-1.0, 1.0], deg + 1)
        signs[-1] = 1.0
        asc = (coeffs * signs).tolist()
        verdict = routh_hurwitz(asc)
        roots = np.roots(asc[::-1])
        max_re = float(np.max(roots.real))
        if verdict == "strict_lhp":
            assert max_re < 1e-8, f"iteration {k}"
        elif verdict == "unstable":
            assert max_re > -1e-8, f"iteration {k}"


def test_scalarized_roots_known_cubic():
    p = MatrixPolynomial(tuple(np.array([[c]]) for c in (1.0, 0.0, 0.0, 1.0)))
    roots = scalarized_roots(p)
    assert len(roots) == 3
    for want in (-1.0, 0.5 + 0.8660254037844386j, 0.5 - 0.8660254037844386j):
        assert min(abs(z - want) for z in roots) < 1e-8


def test_scalarized_roots_refuses_identically_singular():
    z = np.zeros((2, 2))
    sing = MatrixPolynomial((np.diag([1.0, 0.0]), np.diag([1.0, 0.0])))
    with pytest.raises(SingularPencilError):
        scalarized_roots(sing)
    big = MatrixPolynomial(tuple(np.eye(9) for _ in range(9)))
    with pytest.raises(PreconditionError):
        scalarized_roots(big)
    del z


def test_named_example_unstable():
    pp = named_example("ex_unstable")
    ev = finite_eigenvalues(pp.pencil())
    assert len(ev) == 3
    assert sum(1 for z in ev if z.real > 0) == 2
    for want in (-1.0, 0.5 + 0.8660254037844386j, 0.5 - 0.8660254037844386j):
        assert min(abs(z - want) for z in ev) < 1e-8


def test_named_example_parameter_families():
    for alpha, beta in ((0.7, 0.3), (-1.2, 2.0)):
        pp = named_example("ex_jja", alpha, beta)
        ev = finite_eigenvalues(pp.pencil())
        assert len(ev) == 1
        assert abs(ev[0] - (alpha + 1j * beta)) < 1e-10
        ppb = named_example("ex_jjb", alpha, beta)
        evb = finite_eigenvalues(ppb.pencil())
        for want in (alpha + 1j * beta, alpha - 1j * beta):
            assert min(abs(z - want) for z in evb) < 1e-10


def test_conjecture_transcription():
    pp = named_example("conjecture", 1.0)
    n = 4
    assert np.allclose(pp.r2, 4.0 * np.eye(n) + np.ones((n, n)))
    assert np.allclose(pp.r1, np.ones((n, n)))
    jmat = np.array([[-0.1, 1.0], [0.0, -0.1]])
    top = np.hstack([np.zeros((2, 2)), np.eye(2)])
    bot = np.hstack([-np.eye(2), np.zeros((2, 2))])
    assert np.allclose(pp.j1, np.vstack([top, bot]))
    j2 = np.vstack(
        [
            np.hstack([np.zeros((2, 2)), -jmat]),
            np.hstack([jmat.conj().T, np.zeros((2, 2))]),
        ]
    )
    assert np.allclose(pp.j2, j2)


def test_conjecture_valid_posh_for_all_t():
    for t in (0.0, 0.5, 1.0, 2.7):
        pp = named_example("conjecture", t)
        validate_posh(pp.pencil())
    with pytest.raises(PreconditionError):
        named_example("conjecture", -0.1)


def test_named_example_brake_is_posh():
    rng = np.random.default_rng(1)
    m = np.eye(2)
    d = np.diag([1.0, 0.5])
    g = np.array([[0.0, 1.0], [-1.0, 0.0]])
    k = np.diag([2.0, 3.0])
    nmat = np.array([[0.0, 0.2], [-0.2, 0.0]])
    pp = named_example("brake", m, d, g, k, nmat)
    assert pp.n == 4
    validate_posh(pp.pencil())
    del rng


def test_named_example_mgt_certified_case():
    pp = named_example("mgt", 2.0, 2.0, 1.0, np.eye(2))
    for z in finite_eigenvalues(pp.pencil()):
        assert z.real <= 1e-8
    with pytest.raises(PreconditionError):
        named_example("unknown_example")


def test_random_posh_pencil_is_valid():
    rng = np.random.default_rng(2)
    for k in range(20):
        pp = random_posh_pencil(rng, int(rng.integers(1, 6)))
        validate_posh(pp.pencil())


def test_random_singular_posh_left_equals_right():
    rng = np.random.default_rng(3)
    for k in range(15):
        n = int(rng.integers(2, 6))
        pp = random_singular_posh_pencil(rng, n)
        ks = kronecker_structure(pp.pencil())
        assert not ks.regular
        assert ks.left_minimal_indices == ks.right_minimal_indices, f"iteration {k}"


def test_random_skew_pair_index_is_known():
    rng = np.random.default_rng(4)
    for k in range(15):
        kappa = int(rng.integers(1, 4))
        sample = random_skew_pair_with_index(rng, kappa)
        assert np.allclose(sample.j1.conj().T, -sample.j1)
        assert np.allclose(sample.j2.conj().T, -sample.j2)
        from pencillab.core import Pencil

        ks = kronecker_structure(Pencil(sample.j1, sample.j2))
        got_index = ks.index
        assert got_index == sample.index, f"iteration {k}"
        if sample.max_right_minimal >= 0:
            assert (
                max(ks.right_minimal_indices, default=-1)
                == sample.max_right_minimal
            )


def test_random_admissible_structure_admits():
    from pencillab.dh import check_dh_equivalence

    rng = np.random.default_rng(5)
    for k in range(20):
        variant = "general_q" if k % 2 == 0 else "q_identity"
        ks = random_admissible_structure(rng, variant)
        assert check_dh_equivalence(ks, variant).holds, f"iteration {k}"


def test_random_psd_polynomial_properties():
    rng = np.random.default_rng(6)
    for k in range(20):
        d = int(rng.integers(1, 6))
        p = random_psd_polynomial(rng, 2, d)
        assert p.degree == d
        for a in p.coefficients:
            evs = np.linalg.eigvalsh((a + a.conj().T) / 2)
            assert evs.min() >= -1e-10 * max(1.0, evs.max())


def test_generators_accept_plain_int_seed():
    pp1 = random_posh_pencil(123, 3)
    pp2 = random_posh_pencil(123, 3)
    assert np.allclose(pp1.j1, pp2.j1)
    assert np.allclose(pp1.r2, pp2.r2)
