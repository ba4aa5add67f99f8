import math
import warnings

import numpy as np
import pytest

from pencillab import numrange
from pencillab.core import EPS, Pencil, PoshPencil, is_positive_definite
from pencillab.errors import InputFormatError, RankAmbiguityError
from pencillab.localization import lhp_certificate
from pencillab.numrange import (
    PacmanRegion,
    beta_thresholds,
    beta_thresholds_scaled,
    common_kernel,
    definiteness_threshold,
    kernel_verdicts,
    nocommon_chain_report,
    pacman_betas,
    pacman_excludes,
    rayleigh_point,
    sample_numerical_range,
)
from pencillab.oracles import (
    random_posh_pencil,
    random_psd_matrix,
    random_shared_kernel_posh_pencil,
    random_unitary,
)


def test_rayleigh_point_diagonal():
    # lead = I, const = diag(1, 4): range is the segment [-4, -1]
    p = Pencil(np.eye(2), np.diag([1.0, 4.0]))
    z = rayleigh_point(p, np.array([1.0, 0.0]))
    assert abs(z - (-1.0)) < 1e-14
    z = rayleigh_point(p, np.array([0.0, 1.0]))
    assert abs(z - (-4.0)) < 1e-14
    z = rayleigh_point(p, np.array([1.0, 1.0]))
    assert -4.0 < z.real < -1.0 and abs(z.imag) < 1e-14


def test_rayleigh_point_discards_tiny_denominator():
    p = Pencil(np.diag([1.0, 0.0]), np.eye(2))
    assert rayleigh_point(p, np.array([0.0, 1.0])) is None


def test_sampling_deterministic_and_counted():
    rng = np.random.default_rng(2)
    pp = random_posh_pencil(rng, 4, pd_sum=True)
    s1 = sample_numerical_range(pp.pencil(), 500, seed=9)
    s2 = sample_numerical_range(pp.pencil(), 500, seed=9)
    assert s1.points == s2.points
    assert s1.sample_count == 500
    assert len(s1.points) + s1.discarded == 500
    s3 = sample_numerical_range(pp.pencil(), 500, seed=10)
    assert s1.points != s3.points


def test_empty_pencil_discards_every_draw():
    z = np.zeros((0, 0))
    sample = sample_numerical_range(Pencil(z, z), 5, seed=0)
    assert sample.points == ()
    assert sample.discarded == 5 and sample.sample_count == 5
    assert sample_numerical_range(Pencil(z, z), 0).discarded == 0
    chain = nocommon_chain_report(PoshPencil(z, z, z, z))
    assert chain.a.value is True and chain.e.value is True


def test_definiteness_threshold_scalar():
    # sup{b : 1 - b > 0} = 1
    t = definiteness_threshold(np.array([[1.0]]), np.array([[-1.0]]))
    assert abs(t - 1.0) < 1e-6
    # direction never breaks definiteness: unbounded
    t = definiteness_threshold(np.array([[1.0]]), np.array([[1.0]]))
    assert t == math.inf
    # h0 merely PSD: undefined
    t = definiteness_threshold(np.diag([1.0, 0.0]), np.eye(2))
    assert t is None


def test_definiteness_threshold_above_bisection_resolution():
    # a threshold of 1e7 is resolved to float spacing, not to an absolute bracket
    t = definiteness_threshold(np.array([[1.0]]), np.array([[-1e-7]]))
    assert math.isclose(t, 1e7, rel_tol=1e-12) and 1.0 - t * 1e-7 > 0.0
    # a supremum beyond the largest float: every finite beta keeps h0 definite
    t = definiteness_threshold(np.array([[6.0]]), np.array([[-1e-308]]))
    assert t == math.inf
    assert definiteness_threshold(1e300 * np.eye(2), np.diag([1.0, -1e-10])) == math.inf


def test_definiteness_threshold_when_the_sum_overflows():
    # h0 + beta*g overflows near the supremum 0.8e308 although beta*g does not
    t = definiteness_threshold(0.8e308 * np.eye(2), np.diag([2.0, -1.0]))
    assert 0.8e308 * (1.0 - 1e-12) <= t <= 0.8e308


def test_definiteness_threshold_on_the_empty_pair():
    assert definiteness_threshold(np.zeros((0, 0)), np.zeros((0, 0))) == math.inf


def test_definiteness_threshold_near_the_float_limit_of_h1():
    # h1 + h1* overflows, but its Hermitian part, halved first, is finite
    s = np.array([[0.5, 0.3], [0.3, -0.9]])
    ref = 1.0 / (-np.linalg.eigvalsh(s)[0] * 1e308)  # 1/(0.9615773...e308)
    t = definiteness_threshold(np.eye(2), 1e308 * s)
    assert ref * (1.0 - 1e-12) <= t <= ref


def test_definiteness_threshold_matches_diagonal_pairs():
    # h0 + beta*h1 stays definite while beta < h0_i/|h1_i| for each h1_i < 0.
    # The estimate is lowered by its 2*n*eps rounding margin, and the
    # doubling back-off onto the Cholesky-definite side costs a few ulps more.
    rng = np.random.default_rng(8)
    for n in (1, 2, 5, 9):
        for trial in range(20):
            d0 = 10.0 ** rng.uniform(-3.0, 3.0, n)
            d1 = rng.standard_normal(n) * 10.0 ** rng.uniform(-3.0, 3.0, n)
            d1[0] = -abs(d1[0])
            want = min(a / -b for a, b in zip(d0, d1) if b < 0.0)
            got = definiteness_threshold(np.diag(d0), np.diag(d1))
            assert want * (1.0 - (2 * n + 8) * EPS) <= got <= want, (n, trial)
            # a unitary congruence rounds the data by eps relative to the
            # largest entry, which moves the answer by up to eps*cond, so
            # the spread of the diagonals is cut to a cube root first
            d0, d1 = d0 ** (1.0 / 3.0), d1 / np.abs(d1) ** (2.0 / 3.0)
            want = min(a / -b for a, b in zip(d0, d1) if b < 0.0)
            u = random_unitary(rng, n)
            got = definiteness_threshold(u @ np.diag(d0) @ u.conj().T, u @ np.diag(d1) @ u.conj().T)
            assert math.isclose(got, want, rel_tol=1e-12), (n, trial)


def test_definiteness_threshold_resolves_a_graded_pair():
    # the pair (h1, h0) has eigenvalues 1e10 and -1e-6: the breaking one is
    # below the eigensolve's rounding of the other, yet the threshold is 1e6
    h0, h1 = np.diag([1e-10, 1.0]), np.diag([1.0, -1e-6])
    got = definiteness_threshold(h0, h1)
    assert 1e6 * (1.0 - 16.0 * EPS) <= got <= 1e6
    pp = PoshPencil(np.diag([-1j, 1e-6j]), h0, np.zeros((2, 2)), np.zeros((2, 2)))
    bt = beta_thresholds(pp)
    assert bt.beta_plus == got and math.isclose(bt.beta_minus, 1e-10, rel_tol=1e-13)
    # the same spread under a unitary congruence, where no eigenvalue of the
    # first solve resolves the breaking one
    rng = np.random.default_rng(12)
    for n in (2, 4, 8):
        d0, d1 = np.ones(n), np.linspace(1.0, 2.0, n)
        d0[0], d1[-1] = 1e-12, -1e-6
        u = random_unitary(rng, n)
        h0, h1 = u @ np.diag(d0) @ u.conj().T, u @ np.diag(d1) @ u.conj().T
        got = definiteness_threshold(h0, h1)
        assert math.isclose(got, 1e6, rel_tol=1e-6) and is_positive_definite(h0 + got * h1), n


def test_definiteness_threshold_near_the_float_limit():
    # the supremum is 1e300, but beta*h1 overflows for beta above about
    # 1.8e298: an overflowing trial counts as not definite, without a warning
    h0, h1 = 1e300 * np.eye(2), np.diag([1e10, -1.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = definiteness_threshold(h0, h1)
        assert 0.0 < got <= 1e300 and is_positive_definite(h0 + got * h1)
        assert is_positive_definite(np.diag([1.5e308, 1.5e308]))


def test_beta_thresholds_fields_are_python_floats():
    pp = random_posh_pencil(np.random.default_rng(5), 6, pd_sum=True)
    for bt in (beta_thresholds(pp), beta_thresholds_scaled(pp, 0.5)):
        for value in (bt.beta_plus, bt.beta_minus, bt.lower_bound, bt.strip_bound):
            assert value is None or type(value) is float
    empty = np.zeros((0, 0))
    bt = beta_thresholds(PoshPencil(empty, empty, empty, empty))
    assert all(type(v) is float or v is None for v in (bt.beta_plus, bt.beta_minus, bt.lower_bound))


def test_definiteness_threshold_is_conservative():
    rng = np.random.default_rng(4)
    for _ in range(20):
        m = rng.standard_normal((3, 3))
        h0 = m @ m.T + 0.3 * np.eye(3)
        h1 = rng.standard_normal((3, 3))
        h1 = (h1 + h1.T) / 2
        t = definiteness_threshold(h0, h1)
        if t is None or math.isinf(t):
            continue
        evs = np.linalg.eigvalsh(h0 + 0.999 * t * h1)
        assert evs.min() >= -1e-8 * max(1.0, abs(evs).max())
        evs_past = np.linalg.eigvalsh(h0 + 1.5 * (t + 1e-6) * h1)
        assert evs_past.min() < 1e-8 * max(1.0, abs(evs_past).max())


def test_beta_thresholds_rotation_example():
    # J1 = [[0,1],[-1,0]], R1 = I, J2 = 0, R2 = I
    j = np.array([[0.0, 1.0], [-1.0, 0.0]])
    pp = PoshPencil(j, np.eye(2), np.zeros((2, 2)), np.eye(2))
    bt = beta_thresholds(pp)
    assert bt.beta_plus is not None and bt.beta_plus > 0
    assert bt.beta_minus is not None and bt.beta_minus > 0
    # sigma_min(R1 + R2) / norm(J1) = 2 / 1
    assert bt.lower_bound is not None
    assert bt.lower_bound >= 2.0 - 1e-9


def test_beta_thresholds_match_the_per_call_thresholds_bit_for_bit():
    pp = random_posh_pencil(np.random.default_rng(32), 32, pd_sum=True)
    h0, k = pp.r1 + pp.r2, 1j * pp.j1
    bt = beta_thresholds(pp)
    assert bt.beta_plus == definiteness_threshold(h0, k)
    assert bt.beta_minus == definiteness_threshold(h0, -k)
    assert bt.lower_bound == np.linalg.svd(h0, compute_uv=False)[-1] / np.linalg.norm(pp.j1, 2)
    assert 0.0 < bt.beta_plus < math.inf and 0.0 < bt.beta_minus < math.inf


def test_pacman_betas_are_the_betas_of_beta_thresholds(spectral_norm_calls):
    # definite, zero J1, indefinite R1 + R2 (R's of rank 1), and empty; no
    # coefficient norm is taken
    j = np.array([[0.0, 1.0], [-1.0, 0.0]])
    empty = np.zeros((0, 0))
    pencils = [random_posh_pencil(np.random.default_rng(seed), 12, pd_sum=True) for seed in range(4)]
    pencils += [
        PoshPencil(np.zeros((2, 2)), np.eye(2), j, np.eye(2)),
        PoshPencil(j, np.diag([1.0, 0.0]), j, np.diag([1.0, 0.0])),
        PoshPencil(empty, empty, empty, empty),
    ]
    got = [pacman_betas(pp) for pp in pencils]
    assert spectral_norm_calls == []
    for pp, betas in zip(pencils, got):
        bt = beta_thresholds(pp)
        assert betas == (bt.beta_plus, bt.beta_minus)
    assert got[4] == (math.inf, math.inf) and got[5] == (None, None)


def test_beta_thresholds_take_only_the_norm_of_j1(spectral_norm_calls):
    # coefficient norms are computed lazily, one at a time, and kept
    pp = random_posh_pencil(np.random.default_rng(6), 8, pd_sum=True)
    first = beta_thresholds(pp)
    assert len(spectral_norm_calls) == 1 and np.array_equal(spectral_norm_calls[0], pp.j1)
    assert beta_thresholds(pp) == first and len(spectral_norm_calls) == 1
    assert pp.norm("j1") == np.linalg.norm(pp.j1, 2)


def test_beta_thresholds_zero_j1_gives_infinite():
    pp = PoshPencil(np.zeros((2, 2)), np.eye(2), np.zeros((2, 2)), np.eye(2))
    bt = beta_thresholds(pp)
    assert bt.beta_plus == math.inf
    assert bt.beta_minus == math.inf


def test_beta_thresholds_scaled_strip():
    j = np.array([[0.0, 1.0], [-1.0, 0.0]])
    pp = PoshPencil(j, np.eye(2), np.zeros((2, 2)), np.eye(2))
    bt = beta_thresholds_scaled(pp, 0.5)
    assert bt.strip_bound is not None and bt.strip_bound > 0


def test_pacman_region_geometry():
    region = PacmanRegion(1.0, "plus")
    assert pacman_excludes(region, 2.0 + 0.5j)
    assert not pacman_excludes(region, 2.0 + 1.5j)  # above the cap
    assert not pacman_excludes(region, 2.0 - 0.5j)  # wrong sign
    assert not pacman_excludes(region, -1.0 + 0.1j)  # left half plane
    assert not pacman_excludes(region, 0.5 + 0.6j)  # angle past arctan(beta)
    mirror = PacmanRegion(1.0, "minus")
    assert pacman_excludes(mirror, 2.0 - 0.5j)
    assert not pacman_excludes(mirror, 2.0 + 0.5j)
    inf_region = PacmanRegion(math.inf, "plus")
    assert pacman_excludes(inf_region, 1.0 + 100.0j)
    assert not pacman_excludes(inf_region, -1.0 + 1.0j)
    with pytest.raises(InputFormatError):
        PacmanRegion(0.0, "plus")
    with pytest.raises(InputFormatError):
        PacmanRegion(1.0, "both")


def test_sampled_points_avoid_pacman_regions():
    rng = np.random.default_rng(13)
    for _ in range(10):
        pp = random_posh_pencil(rng, 4, pd_sum=True)
        bt = beta_thresholds(pp)
        sample = sample_numerical_range(pp.pencil(), 2000, seed=3)
        shrink = 1.0 - 1e-9
        for sign, beta in (("plus", bt.beta_plus), ("minus", bt.beta_minus)):
            if beta is None or not beta > 0:
                continue
            region = PacmanRegion(
                beta * shrink if not math.isinf(beta) else beta, sign
            )
            hits = [z for z in sample.points if pacman_excludes(region, z)]
            assert not hits


@pytest.mark.parametrize("n", [6, 8])
def test_shared_isotropic_vector_defeats_combinations(n):
    # real skew J1, J2 = J1/2 and PSD R1, R2 with a common kernel vector k:
    # every Hermitian form vanishes at k, so no combination is definite and
    # roundoff in lambda_min must not be taken for a certificate
    rng = np.random.default_rng(n)
    g = rng.standard_normal((n, n))
    j1 = (g - g.T) / 2.0
    k = rng.standard_normal(n)
    proj = np.eye(n) - np.outer(k, k) / (k @ k)

    def psd_killing_k():
        f = proj @ rng.standard_normal((n, n))
        m = f @ f.T / n
        return (m + m.T) / 2.0

    pp = PoshPencil(j1, psd_killing_k(), j1 / 2.0, psd_killing_k())
    cert = lhp_certificate(pp, falsify_budget=200, seed=1)
    assert cert.hypothesis_route != "no_isotropic"
    rep = nocommon_chain_report(pp)
    assert rep.d.value is not True


def test_chain_report_strictly_dissipative():
    rng = np.random.default_rng(8)
    pp = random_posh_pencil(rng, 3, pd_sum=True)
    rep = nocommon_chain_report(pp)
    assert rep.a.value is True
    assert rep.a.evidence == "exact"
    # chain closure: a forces everything downstream
    for link in (rep.b, rep.c, rep.d, rep.e):
        assert link.value is True


def test_chain_report_common_kernel():
    # e1 in ker R1 and ker R2, and also isotropic for the J's
    j = np.zeros((2, 2))
    r = np.diag([0.0, 1.0])
    pp = PoshPencil(j, r, j, r)
    rep = nocommon_chain_report(pp)
    assert rep.a.value is False
    assert rep.d.value is False
    assert rep.e.value is False  # pencil is singular here


def test_common_kernel_of_matrices_with_no_rows_is_everything():
    assert np.array_equal(common_kernel([np.zeros((0, 3))]), np.eye(3))


def test_kernel_verdicts_are_kept_on_the_pencil(monkeypatch):
    calls = []
    kernel_with_gap = numrange._kernel_with_gap

    def counting(matrices):
        calls.append(matrices)
        return kernel_with_gap(matrices)

    monkeypatch.setattr(numrange, "_kernel_with_gap", counting)
    pp = random_shared_kernel_posh_pencil(np.random.default_rng(0), 4, 1)
    verdicts = kernel_verdicts(pp)
    assert kernel_verdicts(pp) is verdicts
    assert nocommon_chain_report(pp).d is verdicts[2]
    lhp_certificate(pp, falsify_budget=50)
    assert len(calls) == 1


def test_chain_evidence_ranks():
    rng = np.random.default_rng(21)
    pp = random_posh_pencil(rng, 3, pd_sum=True)
    rep = nocommon_chain_report(pp)
    for link in (rep.a, rep.b, rep.c, rep.d, rep.e):
        assert link.evidence == ("none" if link.value is None else "exact")


def test_chain_leaves_regularity_open_when_the_extraction_refuses(monkeypatch):
    def refuse(p):
        raise RankAmbiguityError("gap too small to call")

    monkeypatch.setattr(numrange, "kronecker_structure", refuse)
    # a common isotropic vector: (d) is false, and nothing implies (e)
    j = np.zeros((2, 2))
    r = np.diag([0.0, 1.0])
    rep = nocommon_chain_report(PoshPencil(j, r, j, r))
    assert rep.d.value is False
    assert (rep.e.value, rep.e.evidence) == (None, "none")
    assert rep.e.detail.startswith("rank ambiguity: gap too small to call")
    # (d) decided true by its own exact test on W fills the open (e)
    rep = nocommon_chain_report(random_shared_kernel_posh_pencil(np.random.default_rng(0), 4, 1))
    assert (rep.a.value, rep.d.value, rep.d.evidence) == (False, True, "exact")
    assert rep.d.detail.startswith("Re(exp(i*")
    assert (rep.e.value, rep.e.evidence, rep.e.detail) == (True, "exact", "implied by (d)")


def test_chain_finds_the_positive_real_point_of_a_kernel_vector():
    # ker R1 n ker R2 is spanned by one x whose Rayleigh point is real and
    # positive, so the range meets the positive reals, while x is not
    # isotropic for J1 and J2
    pp = random_posh_pencil(np.random.default_rng(24), 4)
    kernel = common_kernel([pp.r1, pp.r2])
    assert kernel.shape[1] == 1
    mu = rayleigh_point(pp.pencil(), kernel[:, 0])
    assert mu.real > 1.0 and abs(mu.imag) <= 1e-12 * abs(mu)
    rep = nocommon_chain_report(pp)
    assert (rep.b.value, rep.b.evidence) == (False, "exact")
    assert (rep.d.value, rep.d.evidence) == (True, "exact")
    assert rep.c.value is None


def test_chain_decides_isotropy_on_shared_kernels():
    # R1 and R2 vanish on a random W: a common isotropic vector, when there
    # is one, comes with a witness; otherwise some rotation of
    # H1 + iH2 = B*(J2 - iJ1)B has a definite Hermitian part, which a fine
    # grid of angles confirms
    outcomes = set()
    for s in range(20):
        rng = np.random.default_rng(s)
        n = int(rng.integers(3, 8))
        pp = random_shared_kernel_posh_pencil(rng, n, int(rng.integers(1, min(6, n - 1) + 1)))
        d = nocommon_chain_report(pp).d
        assert d.evidence == "exact" and d.value is not None, f"pencil {s}"
        outcomes.add(d.value)
        if d.value is False:
            x = d.witness
            assert abs(np.linalg.norm(x) - 1.0) <= 1e-12
            for m in (pp.j1, pp.j2, pp.r1, pp.r2):
                assert abs(x.conj() @ m @ x) <= 1e-12 * np.linalg.norm(m, 2), f"pencil {s}"
        else:
            basis = common_kernel([pp.r1, pp.r2])
            a_w = basis.conj().T @ (pp.j2 - 1j * pp.j1) @ basis
            best = max(
                np.linalg.eigvalsh((np.exp(1j * t) * a_w + np.exp(-1j * t) * a_w.conj().T) / 2)[0]
                for t in np.linspace(0.0, 2.0 * math.pi, 3601)
            )
            assert best > 0.0, f"pencil {s}"
    assert outcomes == {True, False}


def test_chain_proves_no_positive_reals_on_a_nontrivial_kernel():
    # W = span(e1, e2), where the forms of -iJ1 and -iJ2 are diag(1, 0) and
    # diag(0.5, 2): both semidefinite with a definite sum
    rng = np.random.default_rng(3)
    k1, k2 = random_psd_matrix(rng, 4) - 2.0, random_psd_matrix(rng, 4)
    k1[:2, :2] = np.diag([1.0, 0.0])
    k2[:2, :2] = np.diag([0.5, 2.0])
    r1, r2 = np.diag([0.0, 0.0, 1.0, 2.0]), np.diag([0.0, 0.0, 3.0, 1.0])
    rep = nocommon_chain_report(PoshPencil(1j * k1, r1, 1j * k2, r2))
    assert (rep.a.value, rep.a.evidence) == (False, "exact")
    assert (rep.b.value, rep.b.evidence) == (True, "exact")
    assert rep.c.value is True and rep.d.value is True
