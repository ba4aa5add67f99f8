import hashlib
import itertools
import re

import numpy as np
import pytest
import scipy.linalg

from pencillab import core, kcf
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


def _split_jordan(size, seed, eigenvalue=0.5 - 1.0j):
    """A Jordan block and seven simple eigenvalues under a condition-10 equivalence."""
    blocks = [BlockSpec("finite_jordan", size, eigenvalue=eigenvalue)] + [
        BlockSpec("finite_jordan", 1, eigenvalue=complex(k, 2.0)) for k in range(-3, 4)
    ]
    return assemble_pencil(blocks, transform_condition_cap=10.0, seed=seed)


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
    p, _ = _split_jordan(3, seed=3, eigenvalue=target)
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


def _clustered_posh(n, rng=None):
    """PoshPencil(J1, 0.01 R1, 2 J1, 0.01 R2) with R1, R2 of rank n/2."""
    rng = np.random.default_rng(n) if rng is None else rng

    def gauss(cols):
        return rng.standard_normal((n, cols)) + 1j * rng.standard_normal((n, cols))

    def psd_half_rank():
        f = gauss(n // 2)
        m = f @ f.conj().T / (n // 2)
        return (m + m.conj().T) / 2.0

    g = gauss(n)
    j1 = (g - g.conj().T) / 2.0
    return PoshPencil(j1, 0.01 * psd_half_rank(), 2.0 * j1, 0.01 * psd_half_rank())


@pytest.mark.parametrize("n", [32, 40])
def test_clustered_posh_spectrum_is_simple(n):
    # J2 = 2*J1 with small rank-n/2 R's crowds the spectrum; every eigenvalue
    # is still simple, and the structure must say so rather than refuse
    pp = _clustered_posh(n)
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


def _count_rungs(monkeypatch) -> list:
    """One entry per rung of the kappa ladder that kronecker_structure climbs."""
    calls = []
    extract = kcf._singular_stage

    def counting(*args):
        calls.append(args)
        return extract(*args)

    monkeypatch.setattr(kcf, "_singular_stage", counting)
    return calls


def test_a_structure_is_kept_on_its_pencil(monkeypatch):
    calls = _count_rungs(monkeypatch)
    p = Pencil(np.eye(2), np.diag([1.0, 4.0]))
    ks = kronecker_structure(p)
    assert kronecker_structure(p) is ks
    assert len(calls) == 1
    # an equal pencil is another object, with a structure of its own
    assert structures_match(kronecker_structure(Pencil(p.lead, p.constant)), ks)
    assert len(calls) == 2


def test_a_refusal_is_kept_and_raised_again(monkeypatch):
    # the cluster phase cannot resolve a size-5 Jordan block under a
    # condition-10 equivalence; the singular stage is decided at the first
    # rung, and the cluster refusal does not climb the ladder
    p, _ = _split_jordan(5, seed=100, eigenvalue=0.0)
    calls = _count_rungs(monkeypatch)
    with pytest.raises(RankAmbiguityError) as first:
        kronecker_structure(p)
    assert len(calls) == 1
    with pytest.raises(RankAmbiguityError) as second:
        kronecker_structure(p)
    assert second.value is first.value
    assert len(calls) == 1


def _two_sided_radii(E, A, floor):
    """Eigenvalues and radii from both QZ eigenvector sets and the pairing y* E x."""
    w, vl, vr = scipy.linalg.eig(A, E, left=True, right=True, homogeneous_eigvals=True)
    values = w[0] / w[1]
    pairing = np.abs(np.einsum("ij,ij->j", vl.conj(), E @ vr))
    with np.errstate(divide="ignore", invalid="ignore"):
        radius = (
            np.linalg.norm(vl, axis=0)
            * np.linalg.norm(vr, axis=0)
            * (1.0 + np.abs(values))
            * floor
            / pairing
        )
    return values, radius


def _two_sided_certification(E, A, floor):
    """Certification from the two-sided radii."""
    values, radius = _two_sided_radii(E, A, floor)
    apart = 8.0 * (radius[:, None] + radius[None, :]) < np.abs(values[:, None] - values[None, :])
    np.fill_diagonal(apart, True)
    return values, apart.all(axis=1)


def _certification_cases():
    for n in (8, 24, 48, 88):
        rng = np.random.default_rng([n, 1])
        e, a = rng.standard_normal((2, n, n)) + 1j * rng.standard_normal((2, n, n))
        yield f"generic-{n}", e, a
    for size, seed in itertools.product((2, 3), range(4)):
        p, _ = _split_jordan(size, seed)
        yield f"split-jordan-{size}-{seed}", p.lead, p.constant
    for n in (32, 40):
        p = _clustered_posh(n).pencil()
        yield f"clustered-{n}", p.lead, -p.constant


def test_certification_matches_the_two_sided_reference():
    # right eigenvectors and the rows of (E X)^-1 give the radii that both
    # eigenvector sets and the pairing y* E x gave, on the same QZ eigenvalues
    for name, e, a in _certification_cases():
        scale = max(spectral_norm(e), spectral_norm(a))
        floor = KAPPA_SAFETY * EPS * e.shape[0] * scale
        want_values, want_mask = _two_sided_certification(e, a, floor)
        values, mask = _certified_eigenvalues(e, a, floor)
        assert np.array_equal(values, want_values), name
        assert np.array_equal(mask, want_mask), name
        if name.startswith("split"):
            assert not mask.all(), name


def test_radii_match_the_two_sided_reference():
    # to 1e-8 relative.  The eigenvectors of a nearly defective eigenvalue
    # are determined only to about its condition number times eps, so in
    # the split-Jordan pencils (conditions up to 1e9) every radius may move
    # by 1e3 times that; elsewhere the condition is below 20
    for name, e, a in _certification_cases():
        scale = max(spectral_norm(e), spectral_norm(a))
        floor = KAPPA_SAFETY * EPS * e.shape[0] * scale
        values, want = _two_sided_radii(e, a, floor)
        condition = np.max(want / ((1.0 + np.abs(values)) * floor))
        got_values, radius = kcf._eigenvalue_radii(e, a, floor)
        assert np.array_equal(got_values, values), name
        assert np.max(np.abs(radius - want) / want) <= 1e-8 + 1e3 * condition * EPS, name


@pytest.mark.parametrize("n", [130, 200])
def test_certified_eigenvalues_are_the_bits_of_scipy_eig(n):
    # past LAPACK's crossover to blocked QR, only the queried workspace
    # reproduces scipy.linalg.eig's alpha and beta
    rng = np.random.default_rng([n, 2])
    e, a = rng.standard_normal((2, n, n)) + 1j * rng.standard_normal((2, n, n))
    w = scipy.linalg.eig(a, e, left=True, right=True, homogeneous_eigvals=True)[0]
    values, _ = _certified_eigenvalues(e, a, 0.0)
    assert np.array_equal(values, w[0] / w[1])


def test_a_full_rank_lead_takes_no_svd_with_vectors_and_one_qz_without_schur_vectors(monkeypatch):
    n = 40
    rng = np.random.default_rng(n)
    g = rng.standard_normal((4, n, n)) + 1j * rng.standard_normal((4, n, n))
    skews = [(m - m.conj().T) / 2.0 for m in g[:2]]
    psds = [m @ m.conj().T / n + 0.05 * np.eye(n) for m in g[2:]]
    p = PoshPencil(skews[0], psds[0], skews[1], psds[1]).pencil()
    svds, norms, qz = [], [], []
    svd = np.linalg.svd

    def counting_svd(a, *args, **kwargs):
        svds.append(kwargs.get("compute_uv", True))
        return svd(a, *args, **kwargs)

    def counting_norm(module):
        norm = module.spectral_norm

        def counted(a):
            norms.append(module.__name__)
            return norm(a)

        return counted

    def counting_zgges(*args, **kwargs):
        qz.append((kwargs["jobvsl"], kwargs["jobvsr"], kwargs["lwork"] == -1))
        return zgges(*args, **kwargs)

    def no_inverse(a):
        raise AssertionError("the left eigenvectors come from a triangular inverse")

    zgges = kcf.zgges
    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    monkeypatch.setattr(np.linalg, "inv", no_inverse)
    monkeypatch.setattr(kcf, "zgges", counting_zgges)
    for module in (core, kcf):
        monkeypatch.setattr(module, "spectral_norm", counting_norm(module))
    calls = _count_rungs(monkeypatch)
    ks = kronecker_structure(p)
    assert ks.regular and [m for _, m in ks.finite_eigenstructure] == [(1,)] * n
    assert len(calls) == 1
    # the only SVDs are the singular values the pencil keeps for its norms,
    # and the lead's rank is decided on them
    assert svds == [False, False]
    assert norms == []
    assert qz == [(0, 0, True), (0, 0, False)]
    assert not hasattr(kcf, "zggev")


def test_no_matrix_is_decomposed_twice_in_one_extraction(monkeypatch):
    # the split block's members fail the first clustering rounds, so later
    # rounds rerun the shifted staircases of clusters that kept their members;
    # the core is the pencil itself, so the cluster phase reads the norms the
    # pencil keeps
    p, truth = _split_jordan(3, seed=0)
    digests = {"svd": [], "norm": []}
    svd, norm, clusters = np.linalg.svd, kcf.spectral_norm, kcf._union_find_clusters
    factors = []

    def digest(kind, a):
        a = np.ascontiguousarray(a)
        digests[kind].append(hashlib.sha256(repr(a.shape).encode() + a.tobytes()).hexdigest())

    def hashing_svd(a, *args, **kwargs):
        digest("svd", a)
        return svd(a, *args, **kwargs)

    def hashing_norm(a):
        digest("norm", a)
        return norm(a)

    def recording_clusters(values, factor):
        factors.append(factor)
        return clusters(values, factor)

    monkeypatch.setattr(np.linalg, "svd", hashing_svd)
    for module in (core, kcf):
        monkeypatch.setattr(module, "spectral_norm", hashing_norm)
    monkeypatch.setattr(kcf, "_union_find_clusters", recording_clusters)
    calls = _count_rungs(monkeypatch)
    ks = kronecker_structure(p)
    assert len(calls) == 1
    assert len(factors) >= 2
    for kind, seen in digests.items():
        assert len(seen) == len(set(seen)), kind
    assert structures_match(ks, truth)
    assert sorted(m for _, m in ks.finite_eigenstructure) == [(1,)] * 7 + [(3,)]


def test_reused_decompositions_give_the_same_bits(monkeypatch):
    # a store that never hits decomposes every shifted pencil afresh at every
    # round; every staircase's counts, deflated core and refusal, and so the
    # structures with their eigenvalue bits, must not move.  Both size-5
    # blocks are refused
    cases = [(name, e, a) for name, e, a in _certification_cases() if not name.startswith("generic")]
    for name, p in (("jordan-5", _split_jordan(5, 100, 0.0)[0]), ("jordan-5-1", _split_jordan(5, 1)[0])):
        cases.append((name, p.lead, p.constant))
    svd, staircase = np.linalg.svd, kcf._staircase_inf
    log, svds = [], []

    def counting_svd(a, *args, **kwargs):
        svds.append(a.shape)
        return svd(a, *args, **kwargs)

    def recording_staircase(*args, **kwargs):
        try:
            s_list, t_list, e, a = staircase(*args, **kwargs)
        except RankAmbiguityError as err:
            log.append(str(err))
            raise
        log.append((s_list, t_list, e.tobytes(), a.tobytes()))
        return s_list, t_list, e, a

    def outcomes():
        log.clear()
        svds.clear()
        got = {}
        for name, e, a in cases:
            scale = max(spectral_norm(e), spectral_norm(a))
            floor = KAPPA_SAFETY * EPS * e.shape[0] * scale
            try:
                eigen = kcf._schur_certificate(e, a, floor)
                got[name] = kcf._finite_structure(e, a, *eigen, KAPPA_SAFETY, floor, None)
            except RankAmbiguityError as err:
                got[name] = str(err)
        return got, list(log), len(svds)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    monkeypatch.setattr(kcf, "_staircase_inf", recording_staircase)
    reused, reused_log, reused_svds = outcomes()
    monkeypatch.setattr(kcf, "_reused", lambda store, key, compute: compute())
    fresh, fresh_log, fresh_svds = outcomes()
    assert reused == fresh
    assert reused_log == fresh_log
    for name in ("jordan-5", "jordan-5-1"):
        assert reused[name].startswith("eigenvalue cluster multiplicities never balanced")
    assert reused_svds < fresh_svds


@pytest.mark.parametrize("gap", [8.5, 12.0, 15.5])
def test_a_lead_at_the_left_deflation_cutoff_is_refused_at_the_first_rungs(monkeypatch, gap):
    # sigma_min(E) is 8 to 16 times the first staircase cutoff, so under the
    # left-deflation cutoff (about twice the first) it sits in the ambiguous
    # band; the next rung is ambiguous in the first run, and the third drops
    # sigma_min as a block at infinity
    a = np.diag([1.0, 2.0, 3.0, 4.0])
    tol = KAPPA_SAFETY * 4 * 4.0 * EPS
    e = np.diag([1.0, 1.0, 1.0, gap * tol])
    calls = _count_rungs(monkeypatch)
    ks = kronecker_structure(Pencil(e, a, "minus"))
    assert [args[4] for args in calls] == [KAPPA_SAFETY, 4 * KAPPA_SAFETY, 16 * KAPPA_SAFETY]
    assert ks.infinite_block_sizes == (1,)
    assert ks.finite_eigenstructure == ((1.0, (1,)), (2.0, (1,)), (3.0, (1,)))


@pytest.mark.parametrize("a", [np.diag([2.0, 2.0]), np.array([[2.0, 1.0], [0.0, 2.0]])], ids=["semisimple", "jordan"])
def test_an_exactly_repeated_eigenvalue_certifies_nothing(a):
    # back substitution divides by zero; the inf or nan it leaves in the
    # radius fails every comparison, and no floating-point error escapes
    with np.errstate(all="raise"):
        values, certified = _certified_eigenvalues(np.eye(2), a, 1e-14)
    assert values.tolist() == [2.0, 2.0]
    assert not certified.any()


def test_a_one_by_one_core_is_certified():
    with np.errstate(all="raise"):
        values, certified = _certified_eigenvalues(np.array([[2.0j]]), np.array([[3.0]]), 1e-14)
    assert values.tolist() == [3.0 / 2.0j] and certified.tolist() == [True]
    values, radius = kcf._eigenvalue_radii(np.array([[2.0j]]), np.array([[3.0]]), 1e-14)
    # |x| = 1 and |y| = 1/|E|
    assert radius[0] == pytest.approx(0.5 * (1.0 + 1.5) * 1e-14, rel=1e-15)


@pytest.mark.parametrize("eigenvalue", [0.0, 2j])
def test_split_jordan_blocks_are_recovered_or_refused(eigenvalue):
    # sizes 4 to 6 under condition-10 equivalences; at 2i the block shares
    # its eigenvalue with one of the simple ones.  A refusal is allowed, a
    # wrong structure is not
    for size, seed in itertools.product((4, 5, 6), range(100, 104)):
        p, truth = _split_jordan(size, seed, eigenvalue)
        try:
            ks = kronecker_structure(p)
        except RankAmbiguityError:
            continue
        assert structures_match(ks, truth), (size, seed)


def _canonical_blocks(template, seed):
    """BlockSpecs of one template, its simple eigenvalues drawn from a grid."""
    jordan = template.get("jordan", {})
    grid = [
        complex(x, y)
        for x, y in itertools.product(np.arange(-3.0, 3.01, 0.75), repeat=2)
        if min(abs(complex(x, y) - lam) for lam in jordan) > 0.3
    ]
    rng = np.random.default_rng(seed)
    simple = [grid[i] for i in rng.choice(len(grid), size=template["simple"], replace=False)]
    blocks = [BlockSpec("right_singular", e) for e in template.get("right", ())]
    blocks += [BlockSpec("left_singular", e) for e in template.get("left", ())]
    blocks += [BlockSpec("finite_jordan", s, eigenvalue=lam) for lam, sizes in jordan.items() for s in sizes]
    blocks += [BlockSpec("finite_jordan", 1, eigenvalue=lam) for lam in simple]
    blocks += [BlockSpec("infinite", s) for s in template.get("infinite", ())]
    return blocks


# deep staircases, Jordan chains of several sizes at one eigenvalue, and
# singular blocks on both sides
_CANONICAL_TEMPLATES = (
    {"jordan": {-1 + 1j: (3, 2, 1), 0.5: (2, 2), -2.0: (1, 1, 1), 2j: (3,)},
     "infinite": (2, 1), "simple": 20},
    {"right": (0, 1, 2), "left": (1, 3), "jordan": {-1.0: (2, 1), 1 + 1j: (2,)},
     "infinite": (3, 1), "simple": 20},
    {"right": (1, 2), "left": (0, 2, 3), "jordan": {-0.5: (3, 3, 2), 1j: (2, 1)},
     "infinite": (2, 2, 1), "simple": 16},
    {"jordan": {0.0: (3, 2), -1.5: (3, 1)}, "infinite": (4, 3, 2, 1), "simple": 36},
)


def test_canonical_pencils_are_recovered():
    # four templates, six seeds, two condition caps: none of the 48 pencils
    # is refused, and none is wrong
    cases = itertools.product(range(len(_CANONICAL_TEMPLATES)), range(6), (3.0, 10.0))
    for t, seed, cond in cases:
        blocks = _canonical_blocks(_CANONICAL_TEMPLATES[t], seed)
        p, truth = assemble_pencil(blocks, transform_condition_cap=cond, seed=seed)
        assert structures_match(kronecker_structure(p), truth), (t, seed, cond)


def test_cluster_staircases_run_on_the_block_of_clusterable_eigenvalues(monkeypatch):
    # template 0 certifies its 20 simple eigenvalues, and the block leaves
    # them out; only the values-only SVD of each shifted core, which sets
    # the cutoffs of the whole core, is as large as the core
    blocks = _canonical_blocks(_CANONICAL_TEMPLATES[0], 1)
    p, truth = assemble_pencil(blocks, transform_condition_cap=3.0, seed=1)
    svd, block_of, finite = np.linalg.svd, kcf._uncertified_block, kcf._finite_structure
    seen, reordered, phase = [], [], []

    def recording_svd(a, *args, **kwargs):
        if phase:
            seen.append((a.shape, kwargs.get("compute_uv", True)))
        return svd(a, *args, **kwargs)

    def recording_block(values, certified, s, t):
        reordered.append((values, certified, block_of(values, certified, s, t)))
        return reordered[-1][2]

    def cluster_phase(*args):
        phase.append(True)
        return finite(*args)

    monkeypatch.setattr(np.linalg, "svd", recording_svd)
    monkeypatch.setattr(kcf, "_uncertified_block", recording_block)
    monkeypatch.setattr(kcf, "_finite_structure", cluster_phase)
    assert structures_match(kronecker_structure(p), truth)
    ((values, certified, (s11, t11)),) = reordered
    n, k = len(values), len(s11)
    last = kcf.CLUSTER_RADIUS * 10.0 ** (kcf.CLUSTER_ROUNDS - 1)
    mag = np.abs(values)
    reach = last * (1.0 + np.maximum(mag[:, None], mag[None, :]))
    alone = ((np.abs(values[:, None] - values[None, :]) > reach) | np.eye(n, dtype=bool)).all(axis=1)
    excluded = certified & alone
    assert excluded.sum() == 20 and k == n - 20
    inside = np.diag(s11) / np.diag(t11)
    assert np.abs(values[excluded][:, None] - inside[None, :]).min() > last
    staircase = [shape for shape, vectors in seen if vectors]
    assert staircase and max(max(shape) for shape in staircase) <= k
    assert {shape for shape, vectors in seen if not vectors} == {(n, n)}


def _cluster_outcomes():
    """Structure or refusal message of every case the block must not change."""
    got = {}
    for name, e, a in _certification_cases():
        scale = max(spectral_norm(e), spectral_norm(a))
        floor = KAPPA_SAFETY * EPS * e.shape[0] * scale
        try:
            certificate = kcf._schur_certificate(e, a, floor)
            got[name] = kcf._finite_structure(e, a, *certificate, KAPPA_SAFETY, floor, None)
        except RankAmbiguityError as err:
            got[name] = str(err)
    pencils = [
        ((t, seed, cond), assemble_pencil(_canonical_blocks(_CANONICAL_TEMPLATES[t], seed), transform_condition_cap=cond, seed=seed)[0])
        for t, seed, cond in itertools.product(range(len(_CANONICAL_TEMPLATES)), range(6), (3.0, 10.0))
    ]
    pencils += [
        ((size, seed, eigenvalue), _split_jordan(size, seed, eigenvalue)[0])
        for size, seed, eigenvalue in itertools.product((4, 5, 6), range(100, 104), (0.0, 2j, 0.5 - 1j))
    ]
    for name, p in pencils:
        try:
            ks = kronecker_structure(p)
            got[name] = (ks.right_minimal_indices, ks.left_minimal_indices, ks.infinite_block_sizes, ks.finite_eigenstructure)
        except RankAmbiguityError as err:
            got[name] = str(err)
    return got


def test_the_block_and_the_whole_pair_give_the_same_structures_and_refusals(monkeypatch):
    # a ztgsen that reports a failed reordering leaves the block the whole pair
    block = _cluster_outcomes()
    ztgsen, block_of, sizes, failed = kcf.ztgsen, kcf._uncertified_block, [], []

    def failing(*args, **kwargs):
        failed.append(True)
        return (*ztgsen(*args, **kwargs)[:-1], 1)

    def recording_block(values, certified, s, t):
        pair = block_of(values, certified, s, t)
        sizes.append((len(values), len(pair[0])))
        return pair

    monkeypatch.setattr(kcf, "ztgsen", failing)
    monkeypatch.setattr(kcf, "_uncertified_block", recording_block)
    assert _cluster_outcomes() == block
    assert failed and all(k == n for n, k in sizes)
    assert any(isinstance(outcome, str) for outcome in block.values())


def test_a_split_size_4_jordan_block_refused_on_the_whole_core_is_recovered():
    # on the whole core a simple eigenvalue left the staircase's rank
    # decision in the ambiguous band at the radii that balance the block
    p, truth = _split_jordan(4, 28)
    ks = kronecker_structure(p)
    assert structures_match(ks, truth)
    assert [m for lam, m in ks.finite_eigenstructure if abs(lam - (0.5 - 1.0j)) < 1e-3] == [(4,)]


def _clustered_half_pencil(n, seed):
    """lambda*J1 + 0.01*R2 of a clustered posH pencil, drawn as the benchmark draws it."""
    return _clustered_posh(n, np.random.default_rng([seed, 77, n])).half_pencil("j1", "r2")


def _assert_semisimple_zero(p, ks):
    n = p.lead.shape[0]
    assert ks.regular and ks.index == 0
    assert [m for lam, m in ks.finite_eigenstructure if abs(lam) < 1e-8] == [(1,) * (n // 2)]
    rest = [(lam, m) for lam, m in ks.finite_eigenstructure if abs(lam) >= 1e-8]
    assert all(m == (1,) for _, m in rest)
    want = scipy.linalg.eigvals(-p.constant, p.lead)
    want = want[np.abs(want) >= 1e-8]
    assert len(rest) == len(want)
    got = [lam for lam, _ in rest]
    for value in want:
        best = min(got, key=lambda z: abs(z - value))
        assert abs(best - value) < 1e-8 * (1.0 + abs(value))
        got.remove(best)


@pytest.mark.parametrize("n, seed", [(40, 11), (48, 15), (48, 20)])
def test_the_semisimple_zero_of_a_clustered_half_pencil_is_recovered(n, seed):
    # J1 is invertible and R2 has rank n/2: zero is semisimple with n/2
    # blocks, and every other eigenvalue is simple
    p = _clustered_half_pencil(n, seed)
    _assert_semisimple_zero(p, kronecker_structure(p))


def test_a_floor_that_reaches_a_left_out_eigenvalue_does_not_balance():
    # at relative radius 0.01 the zero cluster takes in two simple
    # eigenvalues, and its floor reaches two certified ones that the block
    # leaves out; the block alone would balance all six members as one
    # semisimple eigenvalue.  A refusal is allowed, a wrong structure is not
    p = _clustered_half_pencil(8, 20)
    try:
        ks = kronecker_structure(p)
    except RankAmbiguityError:
        return
    _assert_semisimple_zero(p, ks)


def test_a_cluster_refusal_names_the_cluster_its_radius_and_kappa(monkeypatch):
    # the size-5 block at 0 stays unbalanced through the last radius round;
    # the refusal comes from the one QZ of the first rung
    p, _ = _split_jordan(5, seed=100, eigenvalue=0.0)
    zgges, qz = kcf.zgges, []

    def counting_zgges(*args, **kwargs):
        qz.append(kwargs["lwork"] == -1)
        return zgges(*args, **kwargs)

    monkeypatch.setattr(kcf, "zgges", counting_zgges)
    with pytest.raises(RankAmbiguityError) as refusal:
        kronecker_structure(p)
    assert qz == [True, False]
    message = str(refusal.value)
    assert message.startswith("eigenvalue cluster multiplicities never balanced the cluster sizes")
    found = re.search(r"cluster at (\S+) with (\d+) members .* \(relative (\S+)\), kappa (\S+)$", message)
    assert found, message
    rep, members, relative, kappa = found.groups()
    assert abs(complex(rep)) < 1e-3 and int(members) == 5
    assert float(relative) == pytest.approx(kcf.CLUSTER_RADIUS * 10.0 ** (kcf.CLUSTER_ROUNDS - 1))
    assert float(kappa) == KAPPA_SAFETY



def test_no_norm_is_taken_twice_up_to_conjugate_transpose(monkeypatch):
    # the left-deflation run reads the core's norms off the core as the first
    # run left it, and a core that run deflates nothing passes them on to the
    # cluster phase; ||X*|| and ||X|| may differ in their last bits, so X* is
    # never normed in place of X
    seen = []
    taken = {name: getattr(core, name) for name in ("spectral_norm", "svdvals")}

    def digest(a):
        a = np.ascontiguousarray(a)
        return hashlib.sha256(repr(a.shape).encode() + a.tobytes()).hexdigest()

    def recording(function):
        def recorded(a):
            seen.append(min(digest(a), digest(a.conj().T)))
            return function(a)

        return recorded

    for module in (core, kcf):
        for name, function in taken.items():
            if hasattr(module, name):
                monkeypatch.setattr(module, name, recording(function))
    counts = []
    for template in _CANONICAL_TEMPLATES:
        seen.clear()
        p, truth = assemble_pencil(_canonical_blocks(template, 1), transform_condition_cap=3.0, seed=1)
        assert structures_match(kronecker_structure(p), truth)
        assert len(seen) == len(set(seen))
        counts.append(len(seen))
    # template 0: the pencil's two, the core's two and five cluster shifts
    assert counts[0] == 9
