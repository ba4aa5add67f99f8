"""Property tests: invariances of the Kronecker structure, of the regularity
chain and of the definiteness thresholds, and edge sizes.

Block soups are drawn the way acceptance criterion 5 draws them: up to four
canonical blocks on three eigenvalues from the grid {-2..2} + i{-2..2},
at most 10 rows and columns, under a random equivalence of condition
number up to 100.
"""

import cmath
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from pencillab.core import EPS, Pencil, PoshPencil, is_positive_definite
from pencillab.dh import check_dh_equivalence, realize_dh
from pencillab.kcf import KroneckerStructure, kronecker_structure, structures_match
from pencillab.localization import lhp_certificate, regularity_conditions_report
from pencillab.numrange import beta_thresholds, nocommon_chain_report
from pencillab.oracles import (
    FINITE_JORDAN,
    INFINITE,
    LEFT_SINGULAR,
    RIGHT_SINGULAR,
    BlockSpec,
    assemble_pencil,
    random_posh_pencil,
    random_shared_kernel_posh_pencil,
    random_unitary,
)

EIGENVALUE_POOL = [complex(re, im) for re in range(-2, 3) for im in range(-2, 3)]
SIZE_CAP = 10


@st.composite
def block_soups(draw):
    eigs = draw(st.lists(st.sampled_from(EIGENVALUE_POOL), min_size=3, max_size=3, unique=True))
    blocks = []
    rows = cols = 0
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from((FINITE_JORDAN, INFINITE, RIGHT_SINGULAR, LEFT_SINGULAR)))
        if kind == FINITE_JORDAN:
            spec = BlockSpec(kind, draw(st.integers(1, 3)), draw(st.sampled_from(eigs)))
        elif kind == INFINITE:
            spec = BlockSpec(kind, draw(st.integers(1, 3)))
        else:
            spec = BlockSpec(kind, draw(st.integers(0, 2)))
        dr, dc = spec.shape
        if max(rows + dr, cols + dc) > SIZE_CAP:
            break
        blocks.append(spec)
        rows += dr
        cols += dc
    if not blocks:
        blocks.append(BlockSpec(FINITE_JORDAN, 1, eigs[0]))
    return blocks


@st.composite
def assembled_pencils(draw):
    blocks = draw(block_soups())
    cap = 10.0 ** draw(st.floats(0.0, 2.0))
    p, _ = assemble_pencil(blocks, transform_condition_cap=cap, seed=draw(st.integers(0, 2**31)))
    return p


nonzero_scales = st.builds(
    lambda exponent, angle: 10.0**exponent * cmath.exp(1j * angle),
    st.floats(-2.0, 2.0),
    st.floats(0.0, 2.0 * math.pi),
)


@settings(max_examples=60)
@given(p=assembled_pencils(), seed=st.integers(0, 2**31), c=nonzero_scales)
def test_kcf_invariant_under_unitary_equivalence_and_scaling(p, seed, c):
    rng = np.random.default_rng(seed)
    u = random_unitary(rng, p.shape[0])
    v = random_unitary(rng, p.shape[1])
    moved = Pencil(c * (u @ p.lead @ v), c * (u @ p.constant @ v), p.convention)
    assert structures_match(kronecker_structure(moved), kronecker_structure(p))


@settings(max_examples=60)
@given(p=assembled_pencils())
def test_conjugate_transpose_swaps_minimal_indices(p):
    ks = kronecker_structure(p)
    want = KroneckerStructure(
        ks.left_minimal_indices,
        ks.right_minimal_indices,
        tuple((lam.conjugate(), mults) for lam, mults in ks.finite_eigenstructure),
        ks.infinite_block_sizes,
        ks.cols,
        ks.rows,
    )
    flipped = Pencil(p.lead.conj().T, p.constant.conj().T, p.convention)
    assert structures_match(kronecker_structure(flipped), want)


@st.composite
def edge_posh_pencils(draw):
    """posH pencils of size 0 and 1."""
    if draw(st.booleans()):
        empty = np.zeros((0, 0))
        return PoshPencil(empty, empty, empty, empty)
    coeff = st.floats(-3.0, 3.0, allow_subnormal=False)
    weight = st.floats(0.0, 3.0, allow_subnormal=False)
    return PoshPencil(
        [[1j * draw(coeff)]], [[draw(weight)]], [[1j * draw(coeff)]], [[draw(weight)]]
    )


@settings(max_examples=80)
@given(pp=edge_posh_pencils())
def test_edge_sizes_run_through_every_analysis(pp):
    n = pp.n
    ks = kronecker_structure(pp.pencil())
    assert (ks.rows, ks.cols) == (n, n)
    assert kronecker_structure(pp.pencil()) is ks
    dh = check_dh_equivalence(ks)
    assert check_dh_equivalence(ks) == dh
    if dh.holds:
        first, second = realize_dh(ks), realize_dh(ks)
        assert first.n == n
        assert all(np.array_equal(getattr(first, k), getattr(second, k)) for k in "ejrq")
    assert beta_thresholds(pp) == beta_thresholds(pp)
    certs = [lhp_certificate(pp, falsify_budget=50) for _ in range(2)]
    fields = ("eejjx_status", "hypothesis_route", "conclusion", "evidence", "notes")
    assert [getattr(certs[0], f) for f in fields] == [getattr(certs[1], f) for f in fields]
    assert np.array_equal(certs[0].witness, certs[1].witness)
    assert certs[0].eejjx_status in (
        "proved_by_norms",
        "proved_by_kronecker",
        "proved_by_spectral",
        "falsified",
        "unknown",
    )
    chain = nocommon_chain_report(pp)
    assert nocommon_chain_report(pp) == chain
    regularity = regularity_conditions_report(pp)
    assert regularity_conditions_report(pp) == regularity
    assert chain.e.value is ks.regular
    assert regularity.p_regular is ks.regular


@st.composite
def shared_kernel_pencils(draw):
    """posH pencils of size 1 to 5 whose R1 and R2 share a kernel of any dimension."""
    n = draw(st.integers(1, 5))
    return random_shared_kernel_posh_pencil(
        draw(st.integers(0, 2**31)), n, draw(st.integers(0, n))
    )


def _chain_values(pp):
    rep = nocommon_chain_report(pp)
    return [link.value for link in (rep.a, rep.b, rep.c, rep.d, rep.e)]


@settings(max_examples=40)
@given(pp=shared_kernel_pencils(), seed=st.integers(0, 2**31))
def test_chain_invariant_under_unitary_congruence_and_skew_sign(pp, seed):
    # the chain draws no random numbers, so its values must agree exactly
    u = random_unitary(np.random.default_rng(seed), pp.n)
    moved = [u.conj().T @ m @ u for m in (pp.j1, pp.r1, pp.j2, pp.r2)]
    skew = [(m - m.conj().T) / 2.0 for m in moved[::2]]
    herm = [(m + m.conj().T) / 2.0 for m in moved[1::2]]
    want = _chain_values(pp)
    assert _chain_values(PoshPencil(skew[0], herm[0], skew[1], herm[1])) == want
    assert _chain_values(PoshPencil(-pp.j1, pp.r1, -pp.j2, pp.r2)) == want


@st.composite
def posh_pencils(draw, pd_sum=st.booleans()):
    """Generic posH pencils of size 1 to 8, with R1 + R2 definite under pd_sum."""
    n = draw(st.integers(1, 8))
    return random_posh_pencil(draw(st.integers(0, 2**31)), n, pd_sum=draw(pd_sum))


def _thresholds(pp):
    bt = beta_thresholds(pp)
    return bt.beta_plus, bt.beta_minus


@settings(max_examples=40)
@given(pp=posh_pencils(pd_sum=st.just(True)), c=st.sampled_from((1e-12, 1e-6, 1e6)))
def test_thresholds_scale_with_the_hermitian_parts(pp, c):
    # (c*h0) + beta*h1 is definite exactly when h0 + (beta/c)*h1 is
    scaled = _thresholds(PoshPencil(pp.j1, c * pp.r1, pp.j2, c * pp.r2))
    for got, beta in zip(scaled, _thresholds(pp)):
        assert math.isclose(got, c * beta, rel_tol=1e-12)


@settings(max_examples=40)
@given(pp=posh_pencils())
def test_thresholds_are_definite_and_reach_the_lower_bound(pp):
    # sigma_min(R1 + R2)/||J1|| is a lower bound for both thresholds
    bt = beta_thresholds(pp)
    if bt.lower_bound is None:
        return
    floor = bt.lower_bound * (1.0 - 16.0 * pp.n * EPS)
    assert bt.beta_plus >= floor and bt.beta_minus >= floor
    h0, k = pp.r1 + pp.r2, 1j * pp.j1
    for beta, direction in ((bt.beta_plus, k), (bt.beta_minus, -k)):
        assert beta == math.inf or is_positive_definite(h0 + beta * direction)


@st.composite
def scalar_posh_pencils(draw):
    """1 x 1 posH pencils with nonzero J1 and positive R1 + R2."""
    magnitude = st.floats(-3.0, 3.0).map(lambda e: 10.0**e)
    sign = st.sampled_from((1.0, -1.0))
    return PoshPencil(
        [[1j * draw(sign) * draw(magnitude)]],
        [[draw(magnitude)]],
        [[1j * draw(st.floats(-3.0, 3.0))]],
        [[draw(st.floats(0.0, 3.0))]],
    )


@settings(max_examples=60)
@given(pp=scalar_posh_pencils())
def test_scalar_threshold_meets_the_lower_bound(pp):
    # for n = 1 the finite threshold is (R1 + R2)/|J1|, which is the lower
    # bound; the 2*eps rounding margin, the eigensolve and the Cholesky
    # back-off cost a few ulps, never more
    bt = beta_thresholds(pp)
    finite = [b for b in (bt.beta_plus, bt.beta_minus) if b != math.inf]
    assert len(finite) == 1
    assert abs(finite[0] - bt.lower_bound) <= 8 * math.ulp(bt.lower_bound)
