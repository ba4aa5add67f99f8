import math

import numpy as np
import pytest

from pencillab.core import is_positive_definite, spectral_norm
from pencillab.errors import (
    DimensionError,
    InputFormatError,
    PoshValidationError,
    PreconditionError,
)
from pencillab.kcf import kronecker_structure
from pencillab.matpoly import (
    MatrixPolynomial,
    cubic_stability,
    linearize_cubic,
    linearize_even,
    linearize_odd,
    mgt_polynomial,
    mgt_stability,
    polynomial_index,
    psd_validated,
    sample_rayleigh_roots,
)
from pencillab.oracles import finite_eigenvalues, random_psd_polynomial, scalarized_roots


def scalar_poly(*coeffs):
    return MatrixPolynomial(tuple(np.array([[c]], dtype=float) for c in coeffs))


def test_polynomial_basics():
    p = scalar_poly(1.0, 0.0, 1.0)
    assert p.degree == 2
    assert p.n == 1
    assert abs(p.value_at(2.0)[0, 0] - 5.0) < 1e-14
    with pytest.raises(InputFormatError):
        MatrixPolynomial((np.eye(2),))
    with pytest.raises(DimensionError):
        MatrixPolynomial((np.eye(2), np.eye(3)))


def test_psd_validated_projects_and_rejects():
    drift = np.array([[1.0, 1e-12], [0.0, 1.0]])
    p = psd_validated(MatrixPolynomial((drift, np.eye(2))))
    assert np.allclose(p.coefficients[0], p.coefficients[0].conj().T)
    with pytest.raises(PoshValidationError, match="coefficient 1"):
        psd_validated(MatrixPolynomial((np.eye(2), -np.eye(2))))


def test_odd_linearization_matches_roots():
    # lambda^3 + 1: roots -1, (1 +/- i sqrt(3))/2
    p = scalar_poly(1.0, 0.0, 0.0, 1.0)
    pp = linearize_odd(p)
    ev = finite_eigenvalues(pp.pencil())
    expect = [-1.0, 0.5 + 0.8660254037844386j, 0.5 - 0.8660254037844386j]
    assert len(ev) == 3
    for want in expect:
        assert min(abs(z - want) for z in ev) < 1e-8


def test_even_linearization_matches_roots():
    # lambda^2 + 1 with positive definite constant coefficient
    p = scalar_poly(1.0, 0.0, 1.0)
    pp = linearize_even(p)
    ev = finite_eigenvalues(pp.pencil())
    for want in (1j, -1j):
        assert min(abs(z - want) for z in ev) < 1e-8


def test_linearization_degree_refusals():
    odd = scalar_poly(1.0, 1.0, 1.0, 1.0)
    even = scalar_poly(1.0, 1.0, 1.0)
    with pytest.raises(PreconditionError, match="even"):
        linearize_odd(even)
    with pytest.raises(PreconditionError, match="odd"):
        linearize_even(odd)
    singular_const = MatrixPolynomial(
        (np.diag([0.0, 1.0]), np.eye(2), np.eye(2))
    )
    with pytest.raises(PreconditionError, match="positive definite"):
        linearize_even(singular_const)


def test_cubic_linearization_eigenvalues():
    p = scalar_poly(1.0, 1.0, 1.0, 1.0)
    pp = linearize_cubic(p)
    ev = finite_eigenvalues(pp.pencil())
    for want in (-1.0, 1j, -1j):
        assert min(abs(z - want) for z in ev) < 1e-8
    with pytest.raises(PreconditionError):
        linearize_cubic(scalar_poly(1.0, 1.0, 1.0))


def test_linearizations_reproduce_scalarized_roots():
    rng = np.random.default_rng(40)
    for k in range(8):
        n = int(rng.integers(1, 3))
        d = int(rng.integers(2, 5))
        p = random_psd_polynomial(rng, n, d, pd_constant=True)
        pp = linearize_odd(p) if d % 2 == 1 else linearize_even(p)
        got = finite_eigenvalues(pp.pencil())
        want = scalarized_roots(p)
        assert len(got) >= len(want)
        for z in want:
            assert min(abs(g - z) for g in got) < 1e-6 * (1.0 + abs(z)), (
                f"iteration {k}"
            )


def test_polynomial_index_identity():
    for d in (3, 4, 5):
        p = MatrixPolynomial(tuple(
            np.eye(2) if k == 0 else np.zeros((2, 2)) for k in range(d + 1)
        ))
        idx, bound = polynomial_index(p)
        assert bound == d
        assert idx == d


def test_polynomial_index_pd_leading():
    p = scalar_poly(2.0, 1.0, 1.0, 1.0)
    idx, _ = polynomial_index(p)
    assert idx == 0


def test_cubic_stability_certified_families():
    # coefficients 1, a, a, 1: Routh boundary at a = 1
    for a in (1.0, 1.01, 2.0):
        rep = cubic_stability(scalar_poly(1.0, a, a, 1.0))
        assert rep.hypotheses_hold
        assert rep.conclusion == "lhp_certified", a
    for a in (0.5, 0.9):
        rep = cubic_stability(scalar_poly(1.0, a, a, 1.0))
        assert rep.conclusion != "lhp_certified", a


def test_cubic_stability_beta_star_value():
    # leading 1, middle pair summing to 2: threshold sqrt(2)
    rep = cubic_stability(scalar_poly(1.0, 1.0, 1.0, 1.0))
    assert rep.beta_star is not None
    assert abs(rep.beta_star - math.sqrt(2.0)) < 1e-6
    assert len(rep.excluded_regions) == 2
    signs = sorted(r.sign for r in rep.excluded_regions)
    assert signs == ["minus", "plus"]


def test_cubic_stability_inconclusive_on_failed_hypotheses():
    rep = cubic_stability(scalar_poly(0.0, 1.0, 1.0, 1.0))
    assert not rep.hypotheses_hold
    assert rep.conclusion == "inconclusive"
    assert rep.beta_star is None


def test_cubic_stability_on_the_empty_cubic():
    # every hypothesis holds vacuously, and no finite beta breaks definiteness
    z = np.zeros((0, 0))
    rep = cubic_stability(MatrixPolynomial((z, z, z, z)))
    assert rep.hypotheses_hold and rep.beta_star == math.inf
    assert rep.conclusion == "lhp_certified"


def test_mgt_stability_verdicts():
    t = np.eye(3)
    assert mgt_stability(2.0, 2.0, 1.0, t) == "lhp_certified"
    assert mgt_stability(0.5, 2.0, 1.0, t) == "inconclusive"
    assert mgt_stability(2.0, 1.0, 1.0, t) == "inconclusive"
    with pytest.raises(PreconditionError):
        mgt_stability(-1.0, 2.0, 1.0, t)
    with pytest.raises(PreconditionError):
        mgt_stability(2.0, 2.0, 1.0, np.diag([1.0, 0.0]))


def test_mgt_polynomial_layout():
    t = np.diag([2.0, 3.0])
    p = mgt_polynomial(1.5, 2.0, 0.5, t)
    assert p.degree == 3
    assert np.allclose(p.coefficients[3], np.eye(2))
    assert np.allclose(p.coefficients[2], 1.5 * np.eye(2))
    assert np.allclose(p.coefficients[1], 2.0 * t)
    assert np.allclose(p.coefficients[0], 0.5 * t)


def test_mgt_certified_linearization_is_stable():
    p = mgt_polynomial(2.0, 2.0, 1.0, np.eye(3))
    pp = linearize_cubic(p)
    for z in finite_eigenvalues(pp.pencil()):
        assert z.real <= 1e-8


def test_sample_rayleigh_roots_deterministic():
    rng = np.random.default_rng(3)
    p = random_psd_polynomial(rng, 2, 3, pd_constant=True)
    r1 = sample_rayleigh_roots(p, 50, seed=4)
    r2 = sample_rayleigh_roots(p, 50, seed=4)
    assert r1 == r2
    assert len(r1) > 0


def test_rayleigh_roots_respect_sector():
    from pencillab.localization import sector_membership

    rng = np.random.default_rng(12)
    for k in range(10):
        d = int(rng.integers(1, 6))
        n = int(rng.integers(1, 4))
        p = random_psd_polynomial(rng, n, d, pd_constant=True)
        roots = sample_rayleigh_roots(p, 200, seed=k)
        assert sector_membership(roots, d) == []


def _rayleigh_roots_per_vector(p, n_samples, seed):
    """The one-vector-at-a-time sampler that sample_rayleigh_roots batches."""
    n = p.n
    rng = np.random.default_rng(seed)
    scale = max(spectral_norm(a) for a in p.coefficients)
    roots = []
    if scale == 0.0 or n_samples <= 0:
        return roots
    for _ in range(int(n_samples)):
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        x /= np.linalg.norm(x)
        coeffs = np.array([float(np.real(x.conj() @ a @ x)) for a in p.coefficients])
        if np.all(np.abs(coeffs) <= 1e-14 * scale):
            continue
        roots.extend(complex(z) for z in np.roots(coeffs[::-1]))
    return roots


def _zeroed(p, *ks):
    mats = list(p.coefficients)
    for k in ks:
        mats[k] = np.zeros_like(mats[k])
    return MatrixPolynomial(tuple(mats))


def test_rayleigh_roots_match_the_per_vector_loop():
    rng = np.random.default_rng(20)
    full = random_psd_polynomial(rng, 3, 4, pd_constant=True)
    scalar = random_psd_polynomial(rng, 1, 5, pd_constant=True)
    assert all(spectral_norm(a) > 0.0 for a in full.coefficients)
    # n = 1 with rank-0 middle coefficients A_2, A_3, A_4
    assert [spectral_norm(a) > 0.0 for a in scalar.coefficients] == [
        True, True, False, False, False, True
    ]
    cases = [
        full,
        _zeroed(full, 0),  # A_0 = 0: a zero root per sample
        _zeroed(full, 4),  # A_d = 0: one root fewer per sample
        _zeroed(full, 0, 1, 4),
        scalar,
        _zeroed(scalar, 0, 1),  # only A_d left: d zero roots per sample
        _zeroed(scalar, 1, 5),  # only A_0 left: every sample skipped
    ]
    for k, p in enumerate(cases):
        got = sample_rayleigh_roots(p, 300, seed=k)
        want = _rayleigh_roots_per_vector(p, 300, k)
        assert len(got) == len(want), f"case {k}"
        assert all(type(z) is complex for z in got)
        gap = np.abs(np.array(got) - np.array(want))
        assert np.all(gap <= 1e-12 * np.abs(want)), f"case {k}"
    assert sample_rayleigh_roots(cases[0], 0) == []
