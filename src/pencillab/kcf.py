"""Kronecker structure extraction via rank-revealing staircase deflation.

The pencil is processed in the minus convention. Three deflation phases:

1. A staircase run on (lead, constant) peels the right singular blocks and
   the structure at infinity, leaving a core whose lead has full column rank.
2. The same staircase applied to the conjugate-transposed core peels the
   left singular blocks, leaving a square regular core with invertible lead.
3. One QZ call on the core gives the finite eigenvalues with their left and
   right eigenvectors.  An eigenvalue whose first-order perturbation disk
   (radius from its condition number at the carried rank floor) is well
   apart from every other eigenvalue's disk is certified simple.  The rest
   are clustered, and the partial multiplicities of each true cluster and
   each uncertified singleton are read off as the infinite structure of the
   shifted-and-reversed pencil, reusing the one staircase.

An independent transposed staircase run on the full pencil cross-checks the
left minimal indices and the infinite structure; disagreement between the
two derivations surfaces as a rank-ambiguity diagnostic rather than a wrong
answer.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .core import EPS, Pencil, spectral_norm
from .errors import PreconditionError, RankAmbiguityError

# A singular value is kept when it exceeds kappa*dim*scale*EPS, dim and scale
# those of the input pencil; kappa starts at KAPPA_SAFETY and is escalated
# x4, x16, x64 when a run is inconsistent.
KAPPA_SAFETY = 16.0
# A rank decision is ambiguous when the smallest kept singular value is
# less than AMBIGUITY_GAP times the largest dropped one.
AMBIGUITY_GAP = 1e3
# Relative eigenvalue clustering radius, escalated tenfold per round for at
# most CLUSTER_ROUNDS rounds.
CLUSTER_RADIUS = 1e-6
CLUSTER_ROUNDS = 5
# Largest row or column count accepted.
SIZE_CAP = 512
# structures_match pairs eigenvalues within this relative distance.
MATCH_EIGENVALUE_TOL = 1e-6


@dataclass(frozen=True)
class RankDecision:
    """Record of one SVD rank call, kept for diagnostics."""

    singular_values: tuple
    rank: int
    gap_ratio: float
    tolerance_used: float


@dataclass(frozen=True, eq=False)
class KroneckerStructure:
    """Complete block data of a pencil, all lists sorted ascending.

    finite_eigenstructure pairs a cluster representative with the sorted
    partial multiplicities of that eigenvalue.
    """

    right_minimal_indices: tuple
    left_minimal_indices: tuple
    finite_eigenstructure: tuple
    infinite_block_sizes: tuple
    index: int
    regular: bool
    rows: int
    cols: int

    def __post_init__(self):
        right = tuple(int(e) for e in self.right_minimal_indices)
        left = tuple(int(e) for e in self.left_minimal_indices)
        inf_sizes = tuple(int(s) for s in self.infinite_block_sizes)
        finite = tuple(
            (complex(lam), tuple(int(r) for r in mults))
            for lam, mults in self.finite_eigenstructure
        )
        object.__setattr__(self, "right_minimal_indices", right)
        object.__setattr__(self, "left_minimal_indices", left)
        object.__setattr__(self, "infinite_block_sizes", inf_sizes)
        object.__setattr__(self, "finite_eigenstructure", finite)
        total_finite = sum(sum(m) for _, m in finite)
        row_total = (
            sum(right)
            + sum(e + 1 for e in left)
            + total_finite
            + sum(inf_sizes)
        )
        col_total = (
            sum(e + 1 for e in right)
            + sum(left)
            + total_finite
            + sum(inf_sizes)
        )
        if row_total != self.rows or col_total != self.cols:
            raise RankAmbiguityError(
                "block sizes do not account for the pencil dimensions: "
                f"rows {row_total} vs {self.rows}, cols {col_total} vs {self.cols}"
            )
        expect_regular = self.rows == self.cols and not right and not left
        if self.regular != expect_regular:
            raise RankAmbiguityError("regularity flag inconsistent with block data")
        expect_index = max(inf_sizes) if inf_sizes else 0
        if self.index != expect_index:
            raise RankAmbiguityError("index inconsistent with infinite block sizes")

    @property
    def eigenvalues(self) -> list:
        """Cluster representatives with algebraic multiplicity repetition."""
        out = []
        for lam, mults in self.finite_eigenstructure:
            out.extend([lam] * sum(mults))
        return out


def _decide_rank(
    sv: np.ndarray,
    dim: int,
    scale: float,
    kappa: float,
    extra_floor: float,
    context: str,
) -> int:
    tol = dim * scale * EPS * kappa + extra_floor
    rank = int(np.sum(sv > tol))
    if rank > 0 and float(sv[rank - 1]) < 8.0 * tol:
        # a kept value this close to the cutoff is indistinguishable from
        # accumulated roundoff; escalating kappa either absorbs it or not
        raise RankAmbiguityError(
            f"ambiguous rank decision in {context}: smallest kept value "
            f"{sv[rank - 1]:.3e} sits at the tolerance boundary {tol:.3e}",
            RankDecision(
                singular_values=tuple(float(s) for s in sv),
                rank=rank,
                gap_ratio=float(sv[rank - 1]) / tol,
                tolerance_used=tol,
            ),
        )
    gap = float("inf")
    if 0 < rank < len(sv):
        dropped = float(sv[rank])
        gap = float(sv[rank - 1]) / dropped if dropped > 0.0 else float("inf")
        if gap < AMBIGUITY_GAP:
            decision = RankDecision(
                singular_values=tuple(float(s) for s in sv),
                rank=rank,
                gap_ratio=gap,
                tolerance_used=tol,
            )
            raise RankAmbiguityError(
                f"ambiguous rank decision in {context}: kept {sv[rank - 1]:.3e}, "
                f"dropped {dropped:.3e} (gap {gap:.1f} < {AMBIGUITY_GAP:.0f}, "
                f"tolerance {tol:.3e})",
                decision,
            )
    return rank


def _staircase_inf(E, A, kappa: float, extra_floor: float = 0.0, scale=None):
    """Deflate the structure at infinity and the right singular part.

    Works on the pencil lambda*E - A. Returns the step counts (s_k, t_k)
    where s_k = dim ker E and t_k = rank(A restricted to that kernel) at
    step k, together with the deflated core whose lead has trivial kernel.
    scale, when given, must be max(||E||, ||A||) of the input.
    """
    E = np.array(E, dtype=np.complex128)
    A = np.array(A, dtype=np.complex128)
    if scale is None:
        scale = max(spectral_norm(E), spectral_norm(A))
    # roundoff contaminates deflated submatrices at the scale of the whole
    # problem, so rank cutoffs keep the entry dimension even as steps shrink
    dim0 = max(max(E.shape), 1)
    s_list: list[int] = []
    t_list: list[int] = []
    while True:
        rows, cols = E.shape
        if cols == 0:
            break
        if rows == 0:
            rank_e = 0
        else:
            u_e, sv_e, vh_e = np.linalg.svd(E, full_matrices=True)
            rank_e = _decide_rank(
                sv_e, dim0, scale, kappa, extra_floor, "lead kernel"
            )
        s = cols - rank_e
        if s == 0:
            break
        if rows == 0:
            kernel = np.eye(cols, dtype=np.complex128)
            keep_cols = np.zeros((cols, 0), dtype=np.complex128)
        else:
            v = vh_e.conj().T
            kernel = v[:, rank_e:]
            keep_cols = v[:, :rank_e]
        b = A @ kernel
        if b.shape[0] == 0:
            t = 0
            u_b = np.zeros((0, 0), dtype=np.complex128)
        else:
            u_b, sv_b, _ = np.linalg.svd(b, full_matrices=True)
            t = _decide_rank(
                sv_b, dim0, scale, kappa, extra_floor, "kernel image"
            )
        keep_rows = u_b[:, t:]
        E = keep_rows.conj().T @ (E @ keep_cols)
        A = keep_rows.conj().T @ (A @ keep_cols)
        s_list.append(s)
        t_list.append(t)
    return s_list, t_list, E, A


def _counts_from_staircase(s_list, t_list):
    """Minimal indices and infinite block sizes from staircase step counts.

    The number of right minimal indices equal to k-1 is s_k - t_k; the
    number of infinite blocks of size >= k is t_k minus the minimal indices
    still to appear at later steps.
    """
    steps = len(s_list)
    minimal: list[int] = []
    weyr: list[int] = []
    for k in range(steps):
        extra = s_list[k] - t_list[k]
        if extra < 0:
            raise RankAmbiguityError(
                "staircase inconsistency: kernel image rank exceeds kernel size"
            )
        minimal.extend([k] * extra)
    for k in range(steps):
        tail = sum(s_list[j] - t_list[j] for j in range(k + 1, steps))
        c = t_list[k] - tail
        if c < 0:
            raise RankAmbiguityError(
                "staircase inconsistency: negative block count at infinity"
            )
        weyr.append(c)
    for k in range(1, steps):
        if weyr[k] > weyr[k - 1]:
            raise RankAmbiguityError(
                "staircase inconsistency: block counts at infinity not monotone"
            )
    sizes: list[int] = []
    if weyr:
        for b in range(1, weyr[0] + 1):
            sizes.append(sum(1 for c in weyr if c >= b))
    return sorted(minimal), sorted(sizes)


def _union_find_clusters(values, factor):
    """Index groups of values linked by |vi - vj| <= factor*(1 + max(|vi|, |vj|)).

    Members are listed in ascending index order and groups are sorted by
    their mean, real part first.
    """
    v = np.asarray(values, dtype=np.complex128)
    n = len(v)
    mag = np.abs(v)
    near = np.abs(v[:, None] - v[None, :]) <= factor * (
        1.0 + np.maximum(mag[:, None], mag[None, :])
    )
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i, j in zip(*np.nonzero(np.triu(near, 1))):
        ri, rj = find(int(i)), find(int(j))
        if ri != rj:
            parent[ri] = rj
    groups: dict[int, list[int]] = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    out = list(groups.values())
    out.sort(key=lambda g: (np.mean(v[g]).real, np.mean(v[g]).imag))
    return out


def _cluster_multiplicities(
    E, A, rep, count, radius_abs, kappa, carried_floor, norm_e, norm_a
):
    """Partial multiplicities of one eigenvalue cluster, or None on failure.

    Reads the sizes as the infinite structure of lambda*(A - rep*E) - E.
    The rank floor starts at the cluster radius scale and is escalated until
    the sizes account for every cluster member; the caller escalates the
    clustering radius itself when no floor works.  norm_e and norm_a are
    the spectral norms of E and A.
    """
    if abs(rep) > 1.0 and radius_abs < abs(rep) / 2.0:
        # large eigenvalues are badly scaled under a direct shift; the
        # reversed pencil sees the same Jordan sizes at 1/rep, and the
        # cluster ball maps into one of quadratically smaller radius
        return _cluster_multiplicities(
            A,
            E,
            1.0 / rep,
            count,
            2.0 * radius_abs / abs(rep) ** 2,
            kappa,
            carried_floor,
            norm_a,
            norm_e,
        )
    b = A - rep * E
    # moving a cluster member to rep perturbs b by at most radius_abs * ||E||;
    # scaling by ||b|| instead would double-count |rep| for large eigenvalues
    base = 2.0 * radius_abs * norm_e
    scale = max(spectral_norm(b), norm_e)
    for factor in (1.0, 4.0, 16.0, 64.0):
        try:
            s_list, t_list, _, _ = _staircase_inf(
                b, E, kappa, extra_floor=factor * base + carried_floor, scale=scale
            )
            minimal, sizes = _counts_from_staircase(s_list, t_list)
        except RankAmbiguityError:
            continue
        if minimal:
            continue
        if sum(sizes) == count:
            return sizes
    return None


def _certified_eigenvalues(E, A, floor: float):
    """Eigenvalues of lambda*E - A (E invertible), and which are certified simple.

    With right and left eigenvectors x and y, perturbations of E and A of
    norm at most floor move eigenvalue i by at most
    r_i = |x| |y| (1 + |lambda_i|) floor / |y* E x| to first order.  It is
    certified simple when 8*(r_i + r_j) < |lambda_i - lambda_j| for every
    j != i, so its disk is well apart from every other.  The members of a
    split Jordan block have y* E x near zero and are never certified.
    """
    w, vl, vr = scipy.linalg.eig(
        A, E, left=True, right=True, homogeneous_eigvals=True
    )
    alpha, beta = w
    # the staircase kept sigma_min(E) above floor, and no diagonal entry of
    # the triangular factor of E is smaller than its sigma_min
    if np.any(np.abs(beta) <= floor):
        raise RankAmbiguityError(
            "deflated core unexpectedly has an eigenvalue at infinity; "
            "rank tolerances likely misjudged the staircase"
        )
    values = alpha / beta
    pairing = np.abs(np.einsum("ij,ij->j", vl.conj(), E @ vr))
    with np.errstate(divide="ignore", invalid="ignore"):
        radius = (
            np.linalg.norm(vl, axis=0)
            * np.linalg.norm(vr, axis=0)
            * (1.0 + np.abs(values))
            * floor
            / pairing
        )
    apart = 8.0 * (radius[:, None] + radius[None, :]) < np.abs(
        values[:, None] - values[None, :]
    )
    np.fill_diagonal(apart, True)
    return values, apart.all(axis=1)


def _finite_structure(E, A, kappa: float, carried_floor: float):
    """Clustered eigenvalues with partial multiplicities for a regular core.

    A certified simple eigenvalue alone in its cluster has multiplicities
    (1,); every other cluster runs the shifted staircase.
    """
    q = E.shape[0]
    if q == 0:
        return ()
    values, certified = _certified_eigenvalues(E, A, carried_floor)
    norms = None
    for round_idx in range(CLUSTER_ROUNDS):
        factor = CLUSTER_RADIUS * (10.0 ** round_idx)
        clusters = _union_find_clusters(values, factor)
        result = []
        ok = True
        for members in clusters:
            if len(members) == 1 and certified[members[0]]:
                result.append((complex(values[members[0]]), (1,)))
                continue
            if norms is None:
                norms = (spectral_norm(E), spectral_norm(A))
            rep = complex(np.mean(values[members]))
            radius_abs = factor * (1.0 + abs(rep))
            mults = _cluster_multiplicities(
                E, A, rep, len(members), radius_abs, kappa, carried_floor, *norms
            )
            if mults is None:
                ok = False
                break
            result.append((rep, tuple(sorted(mults))))
        if ok:
            result.sort(key=lambda item: (item[0].real, item[0].imag))
            return tuple(result)
    raise RankAmbiguityError(
        "eigenvalue cluster multiplicities never balanced the cluster sizes, "
        "even after radius escalation"
    )


def kronecker_structure(p: Pencil) -> KroneckerStructure:
    """Full Kronecker block data of a (possibly rectangular) pencil."""
    m = p.to_minus()
    E = np.array(m.lead)
    A = np.array(m.constant)
    rows, cols = E.shape
    if max(rows, cols, 1) > SIZE_CAP:
        raise PreconditionError(
            f"pencil size {rows}x{cols} exceeds the cap {SIZE_CAP}"
        )

    # roundoff accumulated over successive compressions can cross a tight
    # rank tolerance; retry with escalated safety factors and accept only
    # when the independent derivations agree
    last_error: RankAmbiguityError | None = None
    for mult in (1.0, 4.0, 16.0, 64.0):
        try:
            return _extract_structure(E, A, rows, cols, KAPPA_SAFETY * mult)
        except RankAmbiguityError as err:
            last_error = err
    raise last_error


def _extract_structure(E, A, rows, cols, kappa: float) -> KroneckerStructure:
    # truncation garbage left in deflated cores is proportional to the scale
    # of the ORIGINAL pencil, so later phases must not trust core-local scale
    scale = max(spectral_norm(E), spectral_norm(A))
    global_floor = kappa * EPS * max(rows, cols, 1) * scale

    s1, t1, e_core, a_core = _staircase_inf(E, A, kappa, scale=scale)
    right, inf_sizes = _counts_from_staircase(s1, t1)

    s2, t2, _, _ = _staircase_inf(E.conj().T, A.conj().T, kappa)
    left_indep, inf_indep = _counts_from_staircase(s2, t2)
    if inf_indep != inf_sizes:
        raise RankAmbiguityError(
            "primal and transposed staircase runs disagree on the structure "
            f"at infinity: {inf_sizes} vs {inf_indep}"
        )

    s3, t3, e2h, a2h = _staircase_inf(
        e_core.conj().T, a_core.conj().T, kappa, extra_floor=global_floor
    )
    left, inf_leftover = _counts_from_staircase(s3, t3)
    if inf_leftover:
        raise RankAmbiguityError(
            "left-deflation staircase found structure at infinity in a core "
            "that should have none"
        )
    if left != left_indep:
        raise RankAmbiguityError(
            "left minimal indices disagree between the deflation phases: "
            f"{left} vs {left_indep}"
        )

    e_reg = e2h.conj().T
    a_reg = a2h.conj().T
    if e_reg.shape[0] != e_reg.shape[1]:
        raise RankAmbiguityError(
            f"regular core is not square ({e_reg.shape[0]}x{e_reg.shape[1]}); "
            "rank tolerances misjudged the singular structure"
        )

    finite = _finite_structure(e_reg, a_reg, kappa, global_floor)
    inf_tuple = tuple(inf_sizes)
    return KroneckerStructure(
        right_minimal_indices=tuple(right),
        left_minimal_indices=tuple(left),
        finite_eigenstructure=finite,
        infinite_block_sizes=inf_tuple,
        index=max(inf_tuple) if inf_tuple else 0,
        regular=(rows == cols and not right and not left),
        rows=rows,
        cols=cols,
    )


def structures_match(a: KroneckerStructure, b: KroneckerStructure) -> bool:
    """Integer-exact comparison, eigenvalues matched within MATCH_EIGENVALUE_TOL."""
    if (
        a.right_minimal_indices != b.right_minimal_indices
        or a.left_minimal_indices != b.left_minimal_indices
        or a.infinite_block_sizes != b.infinite_block_sizes
        or (a.rows, a.cols) != (b.rows, b.cols)
    ):
        return False
    fa, fb = list(a.finite_eigenstructure), list(b.finite_eigenstructure)
    if len(fa) != len(fb):
        return False
    remaining = list(fb)
    for lam, mults in fa:
        best = None
        best_dist = None
        for idx, (mu, other) in enumerate(remaining):
            if other != mults:
                continue
            dist = abs(lam - mu)
            if best_dist is None or dist < best_dist:
                best, best_dist = idx, dist
        if best is None:
            return False
        mu = remaining[best][0]
        if abs(lam - mu) > MATCH_EIGENVALUE_TOL * (1.0 + abs(mu)):
            return False
        remaining.pop(best)
    return True
