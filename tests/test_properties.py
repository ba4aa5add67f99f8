"""Property tests: invariances of the Kronecker structure, and edge sizes.

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

from pencillab.core import Pencil, PoshPencil
from pencillab.dh import check_dh_equivalence, realize_dh
from pencillab.errors import RankAmbiguityError
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
        ks.index,
        ks.regular,
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
    try:
        ks = kronecker_structure(pp.pencil())
    except RankAmbiguityError:
        # a refused rank decision is a valid outcome; it is never guessed
        ks = None
    if ks is not None:
        assert (ks.rows, ks.cols) == (n, n)
        if check_dh_equivalence(ks).holds:
            assert realize_dh(ks).n == n
    beta_thresholds(pp)
    cert = lhp_certificate(pp, sample_budget=50, falsify_budget=50)
    assert cert.eejjx_status in (
        "proved_by_norms",
        "proved_by_kronecker",
        "proved_by_spectral",
        "falsified",
        "unknown",
    )
    chain = nocommon_chain_report(pp, sample_budget=50, structure=ks)
    regularity = regularity_conditions_report(pp)
    if ks is not None:
        assert chain.e.value is ks.regular
        assert regularity.p_regular is ks.regular
