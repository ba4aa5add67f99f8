import itertools

import numpy as np
import pytest
import scipy.linalg

from pencillab.core import EPS, Pencil, PoshPencil, spectral_norm
from pencillab.errors import PreconditionError, RankAmbiguityError
from pencillab.kcf import (
    KAPPA_SAFETY,
    KroneckerStructure,
    _certified_eigenvalues,
    kronecker_structure,
    structures_match,
)
from pencillab.oracles import BlockSpec, assemble_pencil, named_example


def test_identity_shift_structure():
    # lambda*I - diag(2, 2, 5): eigenvalue 2 twice (semisimple), 5 once
    p = Pencil(np.eye(3), np.diag([2.0, 2.0, 5.0]), "minus")
    ks = kronecker_structure(p)
    assert ks.regular
    assert ks.right_minimal_indices == ()
    assert ks.left_minimal_indices == ()
    assert ks.infinite_block_sizes == ()
    assert ks.index == 0
    eigs = {round(l.real, 6): m for l, m in ks.finite_eigenstructure}
    assert eigs == {2.0: (1, 1), 5.0: (1,)}


def test_jordan_block_multiplicity():
    jb = np.array([[3.0, 1.0, 0.0], [0.0, 3.0, 1.0], [0.0, 0.0, 3.0]])
    ks = kronecker_structure(Pencil(np.eye(3), jb, "minus"))
    assert len(ks.finite_eigenstructure) == 1
    lam, mults = ks.finite_eigenstructure[0]
    assert abs(lam - 3.0) < 1e-8
    assert mults == (3,)

    # under a condition-10 equivalence QZ splits the block; its members are
    # too ill-conditioned to be certified simple, so the staircase still runs
    target = 0.5 - 1.0j
    blocks = [BlockSpec("finite_jordan", 3, eigenvalue=target)] + [
        BlockSpec("finite_jordan", 1, eigenvalue=complex(k, 2.0)) for k in range(-3, 4)
    ]
    p, _ = assemble_pencil(blocks, transform_condition_cap=10.0, seed=3)
    ks = kronecker_structure(p)
    assert [m for lam, m in ks.finite_eigenstructure if abs(lam - target) < 1e-3] == [(3,)]
    assert sorted(m for _, m in ks.finite_eigenstructure) == [(1,)] * 7 + [(3,)]
    scale = max(spectral_norm(p.lead), spectral_norm(p.constant))
    floor = KAPPA_SAFETY * EPS * p.lead.shape[0] * scale
    values, certified = _certified_eigenvalues(p.lead, p.constant, floor)
    split = np.abs(values - target) < 1e-3
    assert split.sum() == 3
    assert not certified[split].any()
    assert certified[~split].all()


def test_infinite_blocks_and_index():
    # lambda*N - I with N nilpotent of order 3: one infinite block of size 3
    n = np.diag([1.0, 1.0], k=1)
    ks = kronecker_structure(Pencil(n, np.eye(3), "minus"))
    assert ks.finite_eigenstructure == ()
    assert ks.infinite_block_sizes == (3,)
    assert ks.index == 3
    assert ks.regular


def test_minimal_indices_l_blocks():
    # L_1: 1x2 block lambda*[1 0] - [0 1]
    e = np.array([[1.0, 0.0]])
    a = np.array([[0.0, 1.0]])
    ks = kronecker_structure(Pencil(e, a, "minus"))
    assert not ks.regular
    assert ks.right_minimal_indices == (1,)
    assert ks.left_minimal_indices == ()
    # transposed: left index
    kt = kronecker_structure(Pencil(e.T, a.T, "minus"))
    assert kt.left_minimal_indices == (1,)
    assert kt.right_minimal_indices == ()


def test_zero_pencil_structure():
    ks = kronecker_structure(Pencil(np.zeros((2, 2)), np.zeros((2, 2)), "minus"))
    assert ks.right_minimal_indices == (0, 0)
    assert ks.left_minimal_indices == (0, 0)
    assert ks.finite_eigenstructure == ()


def test_plus_convention_sign():
    # plus pencil lambda*I + diag(1, 4): eigenvalues -1, -4
    ks = kronecker_structure(Pencil(np.eye(2), np.diag([1.0, 4.0])))
    vals = sorted(l.real for l, _ in ks.finite_eigenstructure)
    assert np.allclose(vals, [-4.0, -1.0])


def test_row_column_accounting_enforced():
    with pytest.raises(RankAmbiguityError):
        KroneckerStructure(
            right_minimal_indices=(1,),
            left_minimal_indices=(),
            finite_eigenstructure=(),
            infinite_block_sizes=(),
            index=0,
            regular=False,
            rows=5,
            cols=5,
        )


def test_structures_match_tolerance():
    ks = kronecker_structure(Pencil(np.eye(2), np.diag([1.0, 2.0]), "minus"))
    shifted = kronecker_structure(
        Pencil(np.eye(2), np.diag([1.0 + 1e-9, 2.0]), "minus")
    )
    assert structures_match(ks, shifted)
    far = kronecker_structure(Pencil(np.eye(2), np.diag([1.5, 2.0]), "minus"))
    assert not structures_match(ks, far)


def test_eigenvalue_clustering_collapses_jitter():
    # two crossed Jordan blocks at the same eigenvalue; QZ splits them by
    # O(sqrt(eps)) but the cluster stage must merge them back
    jb = np.zeros((4, 4))
    jb[0, 1] = jb[2, 3] = 1.0
    jb += 0.7 * np.eye(4)
    rng = np.random.default_rng(5)
    q = np.linalg.qr(rng.standard_normal((4, 4)))[0]
    z = np.linalg.qr(rng.standard_normal((4, 4)))[0]
    ks = kronecker_structure(Pencil(q @ np.eye(4) @ z, q @ jb @ z, "minus"))
    assert len(ks.finite_eigenstructure) == 1
    lam, mults = ks.finite_eigenstructure[0]
    assert abs(lam - 0.7) < 1e-6
    assert mults == (2, 2)


@pytest.mark.parametrize("n", [32, 40])
def test_clustered_posh_spectrum_is_simple(n):
    # J2 = 2*J1 with small rank-n/2 R's crowds the spectrum; every eigenvalue
    # is still simple, and the structure must say so rather than refuse
    rng = np.random.default_rng(n)

    def gauss(cols):
        return rng.standard_normal((n, cols)) + 1j * rng.standard_normal((n, cols))

    def psd_half_rank():
        f = gauss(n // 2)
        m = f @ f.conj().T / (n // 2)
        return (m + m.conj().T) / 2.0

    g = gauss(n)
    j1 = (g - g.conj().T) / 2.0
    pp = PoshPencil(j1, 0.01 * psd_half_rank(), 2.0 * j1, 0.01 * psd_half_rank())
    ks = kronecker_structure(pp.pencil())
    assert ks.regular and ks.index == 0
    assert [m for _, m in ks.finite_eigenstructure] == [(1,)] * n
    got = list(ks.eigenvalues)
    for want in scipy.linalg.eigvals(-(pp.j2 + pp.r2), pp.j1 + pp.r1):
        best = min(got, key=lambda z: abs(z - want))
        assert abs(best - want) < 1e-8 * (1.0 + abs(want))
        got.remove(best)


def test_ex_unstable_structure():
    pp = named_example("ex_unstable")
    ks = kronecker_structure(pp.pencil())
    assert ks.regular
    vals = [l for l, _ in ks.finite_eigenstructure]
    expect = [-1.0, 0.5 - 0.8660254037844386j, 0.5 + 0.8660254037844386j]
    for want in expect:
        best = min(vals, key=lambda z: abs(z - want))
        assert abs(best - want) < 1e-8
        vals.remove(best)


def test_assembled_mixed_recovery():
    blocks = [
        BlockSpec("right_singular", 1),
        BlockSpec("finite_jordan", 2, eigenvalue=-1.0 + 0.5j),
        BlockSpec("infinite", 2),
        BlockSpec("left_singular", 1),
    ]
    p, truth = assemble_pencil(blocks, transform_condition_cap=40.0, seed=21)
    ks = kronecker_structure(p)
    assert ks.right_minimal_indices == truth.right_minimal_indices
    assert ks.left_minimal_indices == truth.left_minimal_indices
    assert ks.infinite_block_sizes == truth.infinite_block_sizes
    assert structures_match(ks, truth)


def test_recovery_loop_many_seeds():
    for seed in range(25):
        rng = np.random.default_rng(seed)
        blocks = [
            BlockSpec("finite_jordan", int(rng.integers(1, 3)), eigenvalue=complex(rng.standard_normal(), rng.standard_normal())),
            BlockSpec("infinite", int(rng.integers(1, 3))),
        ]
        if rng.random() < 0.5:
            blocks.append(BlockSpec("right_singular", int(rng.integers(0, 2))))
        p, truth = assemble_pencil(blocks, transform_condition_cap=60.0, seed=seed)
        got = kronecker_structure(p)
        assert structures_match(got, truth), f"seed {seed}"


def test_size_cap_rejected():
    with pytest.raises(PreconditionError):
        kronecker_structure(Pencil(np.eye(513), np.eye(513), "minus"))


def test_one_by_one_tiny_leads_are_finite():
    # a lead far below the constant but above the rank floor is a finite
    # eigenvalue; the core's QZ must not read it as infinite and refuse
    ks = kronecker_structure(PoshPencil([[1e-20j]], [[0]], [[1e-9j]], [[0]]).pencil())
    assert [(lam, m) for lam, m in ks.finite_eigenstructure] == [(-1e11, (1,))]
    imag = [0.0, 1.0, -1.0, 0.5, 3.0, 1e-9, 1e-20, 1e-200, 2.2e-308]
    real = [0.0, 1.0, 1e-20, 2.2e-308]
    for j1, r1, j2, r2 in itertools.product(imag, real, imag, real):
        where = (j1, r1, j2, r2)
        pp = PoshPencil([[1j * j1]], [[r1]], [[1j * j2]], [[r2]])
        ks = kronecker_structure(pp.pencil())
        lead, const = complex(r1, j1), complex(r2, j2)
        if lead == const == 0:
            assert ks.right_minimal_indices == ks.left_minimal_indices == (0,), where
        elif ks.infinite_block_sizes:
            assert ks.infinite_block_sizes == (1,), where
            assert abs(lead) < 1e-12 * abs(const), where
        else:
            ((lam, mults),) = ks.finite_eigenstructure
            assert mults == (1,), where
            assert abs(lam + const / lead) <= 1e-12 * abs(const / lead), where


def test_empty_pencil():
    ks = kronecker_structure(
        Pencil(np.zeros((0, 0)), np.zeros((0, 0)), "minus")
    )
    assert ks.rows == 0 and ks.cols == 0
    assert ks.regular
