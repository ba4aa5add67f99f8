import numpy as np
import pytest

from pencillab import core
from pencillab.core import (
    EPS,
    DhPencil,
    Pencil,
    PoshPencil,
    hermitian_part,
    is_positive_definite,
    posh_from_parts,
    quadratic_forms,
    skew_part,
    spectral_norm,
    svdvals,
    validate_posh,
)
from pencillab.errors import (
    DimensionError,
    PoshValidationError,
    PreconditionError,
)


def test_pencil_conventions():
    lead = np.eye(2)
    const = np.diag([1.0, 2.0])
    p = Pencil(lead, const)
    assert p.convention == "plus"
    m = p.to_minus()
    assert m.convention == "minus"
    # same polynomial, evaluated anywhere
    for z in (0.3, -1.7 + 0.4j, 2j):
        assert np.allclose(p.value_at(z), m.value_at(z))
    assert p.to_plus() is p


def test_pencil_shape_mismatch():
    with pytest.raises(DimensionError):
        Pencil(np.eye(2), np.eye(3))
    with pytest.raises(PreconditionError):
        Pencil(np.eye(2), np.eye(2), "times")


def test_pencil_arrays_frozen():
    p = Pencil(np.eye(2), np.zeros((2, 2)))
    with pytest.raises((ValueError, RuntimeError)):
        p.lead[0, 0] = 5.0


def test_hermitian_and_skew_parts_are_exact_and_finite():
    rng = np.random.default_rng(0)
    for scale in (1.0, 1.7e308):
        for _ in range(20):
            m = rng.uniform(-1.0, 1.0, (4, 4)) + 1j * rng.uniform(-1.0, 1.0, (4, 4))
            m *= scale
            herm, skew = hermitian_part(m), skew_part(m)
            assert np.array_equal(herm.conj().T, herm)
            assert np.array_equal(skew.conj().T, -skew)
            assert np.all(np.isfinite(herm)) and np.all(np.isfinite(skew))
            assert np.allclose(skew / scale + herm / scale, m / scale)


def test_posh_pencil_validation():
    j = np.array([[0.0, 1.0], [-1.0, 0.0]])
    r = np.eye(2)
    pp = PoshPencil(j, r, j, r)
    assert pp.n == 2
    # skew part must be exact
    with pytest.raises(PreconditionError):
        PoshPencil(j + 1e-8 * np.eye(2), r, j, r)
    # indefinite Hermitian part rejected with the coefficient named
    with pytest.raises(PoshValidationError, match="r2"):
        PoshPencil(j, r, j, -r)


def test_posh_pencil_validation_runs_no_svd(monkeypatch):
    j = np.array([[0.0, 1.0], [-1.0, 0.0]])
    r1 = np.diag([2.0, 0.0])
    r2 = np.array([[1.0, 1j], [-1j, 1.0]])

    def no_svd(a):
        raise AssertionError("validation took a spectral norm")

    monkeypatch.setattr(core, "spectral_norm", no_svd)
    pp = PoshPencil(j, r1, j, r2)
    assert pp.n == 2


@pytest.mark.parametrize("name", ["r1", "r2"])
def test_posh_pencil_psd_boundary(name):
    # one eigvalsh per R gives lambda_min and the slack 64*eps*max|eig|
    rng = np.random.default_rng(5)
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
    j = np.zeros((3, 3))
    slack = 64.0 * EPS * 3.0

    def pencil(lam_min):
        h = q @ np.diag([3.0, 1.0, lam_min]) @ q.conj().T
        parts = {"r1": np.eye(3), "r2": np.eye(3), name: 0.5 * (h + h.conj().T)}
        return PoshPencil(j, parts["r1"], j, parts["r2"])

    assert pencil(-0.5 * slack).n == 3
    with pytest.raises(PoshValidationError, match=name) as info:
        pencil(-2.0 * slack)
    err = info.value
    assert err.coefficient == name
    assert err.lambda_min == pytest.approx(-2.0 * slack, rel=0.05)
    assert err.tolerance == pytest.approx(slack, rel=1e-12)
    assert "smallest eigenvalue" in str(err) and f"{err.tolerance:.6e}" in str(err)


def test_posh_pencil_round_trip():
    j1 = np.array([[0.0, 2.0], [-2.0, 0.0]])
    r1 = np.diag([1.0, 0.0])
    j2 = np.array([[1j, 0.0], [0.0, -1j]])
    r2 = np.diag([0.0, 3.0])
    pp = PoshPencil(j1, r1, j2, r2)
    p = pp.pencil()
    assert np.allclose(p.lead, j1 + r1)
    assert np.allclose(p.constant, j2 + r2)
    back = validate_posh(p)
    assert np.allclose(back.j1, j1)
    assert np.allclose(back.r2, r2)


def test_validate_posh_accepts_minus_convention():
    j = np.array([[0.0, 1.0], [-1.0, 0.0]])
    p_plus = Pencil(np.eye(2), j + np.eye(2))
    p_minus = p_plus.to_minus()
    a = validate_posh(p_plus)
    b = validate_posh(p_minus)
    assert np.allclose(a.j2, b.j2)
    assert np.allclose(a.r2, b.r2)


def test_a_split_pencil_keeps_the_pencil_it_came_from():
    j = np.array([[0.0, 1.0], [-1.0, 0.0]])
    p_minus = Pencil(np.eye(2), -(j + np.eye(2)), "minus")
    pp = validate_posh(p_minus)
    assert pp.source() is p_minus
    assert pp.pencil() is not p_minus
    # a PoshPencil built from parts stands for its own pencil
    built = PoshPencil(pp.j1, pp.r1, pp.j2, pp.r2)
    assert built.source() is built.pencil()


def test_posh_from_parts_projects_noise():
    rng = np.random.default_rng(3)
    j = np.array([[0.0, 1.0], [-1.0, 0.0]])
    r = np.eye(2)
    noise = 1e-13 * rng.standard_normal((2, 2))
    pp = posh_from_parts(j + noise, r + noise, j, r)
    assert np.allclose(pp.j1.conj().T, -pp.j1)
    with pytest.raises(PreconditionError):
        posh_from_parts(j + 1e-3 * np.eye(2), r, j, r)


def test_dh_pencil_structure_checks():
    e = np.eye(2)
    j = np.array([[0.0, 1.0], [-1.0, 0.0]])
    r = np.eye(2)
    q = np.eye(2)
    dh = DhPencil(e, j, r, q)
    p = dh.pencil()
    assert p.convention == "minus"
    assert np.allclose(p.constant, (j - r) @ q)
    with pytest.raises(PreconditionError):
        DhPencil(e, j, -r, q)
    with pytest.raises(PreconditionError):
        # Q*E far from Hermitian
        DhPencil(e, j, r, np.array([[1.0, 5.0], [0.0, 1.0]]))


def test_is_positive_definite():
    assert is_positive_definite(np.eye(3))
    assert not is_positive_definite(np.diag([1.0, 0.0, 1.0]))
    assert not is_positive_definite(np.diag([1.0, -1.0]))


def test_spectral_norm_matches_numpy():
    rng = np.random.default_rng(11)
    for _ in range(10):
        m = rng.standard_normal((3, 5))
        assert abs(spectral_norm(m) - np.linalg.norm(m, 2)) < 1e-12


def test_coefficient_norms_are_the_bits_of_numpy():
    # norm(name) is the first of the kept singular values, one SVD without
    # vectors; np.linalg.norm(., 2) takes the largest value of the same SVD
    def numpy_norm(m):
        return np.linalg.norm(m, 2) if m.size else 0.0

    rng = np.random.default_rng(12)
    for rows, cols in [(0, 0), (0, 3), (1, 1), (4, 4), (5, 3), (3, 7), (30, 30)]:
        for is_complex in (False, True):
            lead, constant = rng.standard_normal((2, rows, cols))
            if is_complex:
                lead, constant = lead + 1j * rng.standard_normal((rows, cols)), constant + 1j * lead
            assert svdvals(lead)[:1].tolist() == ([np.linalg.norm(lead, 2)] if lead.size else [])
            p = Pencil(lead, constant)
            for name in ("lead", "constant"):
                assert p.norm(name) == numpy_norm(getattr(p, name))
            if rows == cols:
                pp = posh_from_parts(lead - lead.T.conj(), lead @ lead.T.conj(), constant - constant.T.conj(), np.eye(rows))
                for name in ("j1", "r1", "j2", "r2"):
                    assert pp.norm(name) == numpy_norm(getattr(pp, name))
                    assert not pp.singular_values(name).flags.writeable


@pytest.mark.parametrize("n", [0, 1, 5])
def test_quadratic_forms_match_three_operand_einsum(n):
    rng = np.random.default_rng(40 + n)
    X = rng.standard_normal((7, n)) + 1j * rng.standard_normal((7, n))
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    for mat in (a, np.zeros((n, n), dtype=complex)):
        got = quadratic_forms(X, mat)
        want = np.einsum("ni,ij,nj->n", X.conj(), mat, X)
        assert got.shape == (7,)
        scale = spectral_norm(mat) * np.sum(np.abs(X) ** 2, axis=1)
        assert np.all(np.abs(got - want) <= 1e-12 * scale)
