import numpy as np
import pytest

from pencillab.core import psd_spectrum, spectral_norm
from pencillab.dh import GENERAL_Q, Q_IDENTITY, check_dh_equivalence, realize_dh
from pencillab.errors import PreconditionError
from pencillab.kcf import KroneckerStructure, kronecker_structure, structures_match
from pencillab.oracles import random_admissible_structure


def regular_structure(finite=(), infinite=(), right=(), left=()):
    total = sum(sum(m) for _, m in finite) + sum(infinite)
    rows = total + sum(left) + len(left) + sum(right)
    cols = total + sum(right) + len(right) + sum(left)
    return KroneckerStructure(
        right_minimal_indices=tuple(sorted(right)),
        left_minimal_indices=tuple(sorted(left)),
        finite_eigenstructure=tuple(finite),
        infinite_block_sizes=tuple(sorted(infinite)),
        rows=rows,
        cols=cols,
    )


def test_stable_spectrum_accepted():
    ks = regular_structure(finite=(((-2.0 + 0j), (1, 1)), ((-0.5 + 3j), (1,))))
    for variant in (GENERAL_Q, Q_IDENTITY):
        v = check_dh_equivalence(ks, variant)
        assert v.holds, v.violated_conditions


def test_rhp_eigenvalue_rejected():
    ks = regular_structure(finite=(((0.5 + 0j), (1,)),))
    v = check_dh_equivalence(ks)
    assert not v.holds
    assert "spectrum_lhp" in v.violated_conditions


def test_imaginary_jordan_block_rejected():
    # nonzero imaginary eigenvalue with a 2-block is never admissible
    ks = regular_structure(finite=(((2j), (2,)),))
    v = check_dh_equivalence(ks)
    assert "imaginary_semisimple" in v.violated_conditions


def test_zero_blocks_variant_split():
    # zero eigenvalue with a 2-block: fine for general_q, not q_identity
    ks = regular_structure(finite=(((0j), (2,)),))
    assert check_dh_equivalence(ks, GENERAL_Q).holds
    v = check_dh_equivalence(ks, Q_IDENTITY)
    assert not v.holds
    assert "imaginary_semisimple" in v.violated_conditions
    # a 3-block at zero fails both
    ks3 = regular_structure(finite=(((0j), (3,)),))
    assert "zero_multiplicity" in check_dh_equivalence(ks3).violated_conditions


def test_index_bound():
    ks = regular_structure(infinite=(3,))
    v = check_dh_equivalence(ks)
    assert "index_bound" in v.violated_conditions
    assert check_dh_equivalence(regular_structure(infinite=(2, 1))).holds


def test_minimal_index_rules():
    ks = regular_structure(right=(1,), left=(0,))
    assert check_dh_equivalence(ks, GENERAL_Q).holds
    v = check_dh_equivalence(ks, Q_IDENTITY)
    assert "minimal_indices" in v.violated_conditions
    # left index 1 fails both variants
    ks_bad = regular_structure(right=(0,), left=(1,))
    assert "minimal_indices" in check_dh_equivalence(ks_bad).violated_conditions


def dh_invariants(dh):
    assert np.allclose(dh.j.conj().T, -dh.j)
    scale = max(spectral_norm(dh.r), 1.0)
    assert psd_spectrum((dh.r + dh.r.conj().T) / 2)[0] >= -1e-10 * scale
    qe = dh.q.conj().T @ dh.e
    assert spectral_norm(qe - qe.conj().T) <= 1e-10 * max(spectral_norm(qe), 1.0)
    assert (
        psd_spectrum((qe + qe.conj().T) / 2)[0]
        >= -1e-10 * max(spectral_norm(qe), 1.0)
    )


def test_realize_simple_stable():
    ks = regular_structure(finite=(((-1.0 + 0j), (1,)), ((-2.0 + 1j), (2,))))
    dh = realize_dh(ks)
    dh_invariants(dh)
    back = kronecker_structure(dh.pencil())
    assert structures_match(ks, back)


def test_realize_rejects_inadmissible():
    ks = regular_structure(finite=(((1.0 + 0j), (1,)),))
    with pytest.raises(PreconditionError):
        realize_dh(ks)


def test_realize_q_identity_returns_identity_q():
    ks = regular_structure(
        finite=(((-1.0 + 0j), (1,)), ((3j), (1, 1)), ((-3j), (1, 1)))
    )
    dh = realize_dh(ks, Q_IDENTITY)
    assert np.allclose(dh.q, np.eye(dh.q.shape[0]))
    dh_invariants(dh)
    assert structures_match(ks, kronecker_structure(dh.pencil()))


def test_realize_real_when_conjugate_closed():
    ks = regular_structure(
        finite=(((-1.0 + 2j), (1,)), ((-1.0 - 2j), (1,)), ((-0.5 + 0j), (2,)))
    )
    dh = realize_dh(ks)
    for m in (dh.e, dh.j, dh.r, dh.q):
        assert np.all(m.imag == 0.0)
    assert structures_match(ks, kronecker_structure(dh.pencil()))


def test_realize_singular_and_infinite_blocks():
    ks = regular_structure(
        finite=(((-1.0 + 0j), (1,)),),
        infinite=(2, 1),
        right=(1, 0),
        left=(0, 0),
    )
    dh = realize_dh(ks, GENERAL_Q)
    dh_invariants(dh)
    assert structures_match(ks, kronecker_structure(dh.pencil()))


def test_random_admissible_roundtrip():
    rng = np.random.default_rng(77)
    for k in range(40):
        variant = GENERAL_Q if k % 2 == 0 else Q_IDENTITY
        ks = random_admissible_structure(rng, variant)
        assert check_dh_equivalence(ks, variant).holds
        dh = realize_dh(ks, variant)
        dh_invariants(dh)
        back = kronecker_structure(dh.pencil())
        assert structures_match(ks, back), f"iteration {k}"
