"""Kronecker structure extraction via rank-revealing staircase deflation.

The pencil is processed in the minus convention. Three deflation phases:

1. A staircase run on (lead, constant) peels the right singular blocks and
   the structure at infinity, leaving a core whose lead has full column rank.
   A square lead is first ranked on the singular values that the pencil
   keeps for its norm; one of full rank leaves the whole pencil as the core
   and takes no SVD with vectors, and phase 2 and the cross-check below
   reduce to phase 2's stricter cutoff, applied to the same values.
2. The same staircase applied to the conjugate-transposed core peels the
   left singular blocks, leaving a square regular core with invertible lead.
3. One QZ call on the core, without Schur vectors, gives the triangular
   pair (S, T) and the finite eigenvalues.  Back substitution gives the
   right eigenvectors X of (S, T), and the rows of (T X)^-1 its left
   eigenvectors; the unitary factors of the Schur form change no norm and
   no pairing, so these give each eigenvalue's condition number in the
   core lambda*E - A.  An eigenvalue whose first-order perturbation disk
   (radius from its condition number at the carried rank floor) is well
   apart from every other eigenvalue's disk is certified simple.  The rest
   are clustered, and the partial multiplicities of each true cluster and
   each uncertified singleton are read off as the infinite structure of the
   shifted-and-reversed pencil by the same staircase.

An independent transposed staircase run on the full pencil cross-checks the
left minimal indices and the infinite structure; disagreement between the
two derivations surfaces as a rank-ambiguity diagnostic rather than a wrong
answer.

The kappa ladder retries only the singular stage: phases 1 and 2, the
cross-check, and the QZ of phase 3 with its check for an eigenvalue at
infinity.  The cluster stage runs once, at the deciding kappa; it escalates
only the clustering radius, which also raises each cluster's rank floor, and
a later round that reaches a shift and rank decisions already seen reuses
their SVDs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import zgges, ztrtri

from .core import EPS, Pencil, _kept, spectral_norm
from .errors import PreconditionError, RankAmbiguityError

# A singular value is kept when it exceeds kappa*dim*scale*EPS, dim and scale
# those of the input pencil; kappa starts at KAPPA_SAFETY and is escalated
# x4, x16, x64 while the singular stage is inconsistent.
KAPPA_SAFETY = 16.0
# A rank decision is ambiguous when the smallest kept singular value is
# less than AMBIGUITY_GAP times the largest dropped one.
AMBIGUITY_GAP = 1e3
# Relative eigenvalue clustering radius, escalated tenfold per round for at
# most CLUSTER_ROUNDS rounds; a cluster's rank floor grows with its radius.
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

    @property
    def index(self) -> int:
        """The largest infinite block size, 0 when there is none."""
        return max(self.infinite_block_sizes, default=0)

    @property
    def regular(self) -> bool:
        """Square with no minimal indices."""
        right, left = self.right_minimal_indices, self.left_minimal_indices
        return self.rows == self.cols and not right and not left

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


def _reused(store: dict, key, compute):
    """compute(), run on the first call for key and kept in store."""
    if key not in store:
        store[key] = compute()
    return store[key]


def _staircase_inf(E, A, kappa: float, scale: float, extra_floor: float = 0.0, svds=None):
    """Deflate the structure at infinity and the right singular part.

    Works on the pencil lambda*E - A. Returns the step counts (s_k, t_k)
    where s_k = dim ker E and t_k = rank(A restricted to that kernel) at
    step k, and the deflated core whose lead has trivial kernel.
    Rank cutoffs are relative to scale, the max(||E||, ||A||) of the input
    or of the pencil it was deflated from.
    svds keeps each SVD under the rank decisions that led to its matrix, so
    a rerun of the same pencil at another floor decomposes only what its
    own decisions newly reach.
    """
    E = np.array(E, dtype=np.complex128)
    A = np.array(A, dtype=np.complex128)
    svds = {} if svds is None else svds
    # roundoff contaminates deflated submatrices at the scale of the whole
    # problem, so rank cutoffs keep the entry dimension even as steps shrink
    dim0 = max(max(E.shape), 1)
    s_list: list[int] = []
    t_list: list[int] = []
    path: tuple = ()
    while True:
        rows, cols = E.shape
        if cols == 0:
            break
        if rows == 0:
            rank_e = 0
        else:
            # the left factor of the lead is never read
            sv_e, vh_e = _reused(svds, path, lambda: np.linalg.svd(E, full_matrices=True)[1:])
            rank_e = _decide_rank(
                sv_e, dim0, scale, kappa, extra_floor, "lead kernel"
            )
        path += (rank_e,)
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
            u_b, sv_b = _reused(svds, path, lambda: np.linalg.svd(b, full_matrices=True)[:2])
            t = _decide_rank(
                sv_b, dim0, scale, kappa, extra_floor, "kernel image"
            )
        path += (t,)
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
    # the mean of one value is that value, so singletons skip np.mean
    mean = {g[0]: v[g[0]] if len(g) == 1 else np.mean(v[g]) for g in out}
    out.sort(key=lambda g: (mean[g[0]].real, mean[g[0]].imag))
    return out


def _cluster_multiplicities(
    E, A, rep, count, radius_abs, kappa, carried_floor, norm_e, norm_a, store
):
    """Partial multiplicities of one eigenvalue cluster, or None on failure.

    Reads the sizes as the infinite structure of lambda*(A - rep*E) - E at a
    rank floor on the cluster radius scale.  They fail unless they account
    for every cluster member; the caller then escalates the radius, and with
    it the floor.  norm_e and norm_a are the spectral norms of E and A.  store keeps the scale and the staircase SVDs of each
    shifted pencil, under its orientation and shift, for every round of the
    caller.
    """
    reverse = abs(rep) > 1.0 and radius_abs < abs(rep) / 2.0
    if reverse:
        # large eigenvalues are badly scaled under a direct shift; the
        # reversed pencil sees the same Jordan sizes at 1/rep, and the
        # cluster ball maps into one of quadratically smaller radius
        E, A, norm_e, norm_a = A, E, norm_a, norm_e
        rep, radius_abs = 1.0 / rep, 2.0 * radius_abs / abs(rep) ** 2
    shifted = store.setdefault((reverse, rep), {})
    b = A - rep * E
    # moving a cluster member to rep perturbs b by at most radius_abs * ||E||;
    # scaling by ||b|| instead would double-count |rep| for large eigenvalues
    floor = 2.0 * radius_abs * norm_e + carried_floor
    scale = _reused(shifted, "scale", lambda: max(spectral_norm(b), norm_e))
    try:
        s_list, t_list, _, _ = _staircase_inf(b, E, kappa, scale, extra_floor=floor, svds=shifted)
        minimal, sizes = _counts_from_staircase(s_list, t_list)
    except RankAmbiguityError:
        return None
    return None if minimal or sum(sizes) != count else sizes


def _unsorted(alpha, beta):
    """zgges's select callable; with sort_t=0 it is never called."""
    return 0


def _eigenvalue_radii(E, A, floor: float):
    """Eigenvalues of lambda*E - A (E invertible), with their first-order radii.

    QZ gives the triangular pair S = Q* A Z, T = Q* E Z and no Schur
    vectors.  Back substitution gives the right eigenvectors X of (S, T),
    and the rows y_i* of (T X)^-1 are its left eigenvectors with
    y_i* T x_j = delta_ij.  Q and Z are unitary, so Z x_i and Q y_i are
    eigenvectors of the core with the same norms and pairing.  Perturbations
    of E and A of norm at most floor move eigenvalue i by at most
    r_i = |x_i| |y_i| (1 + |lambda_i|) floor to first order.  An exactly
    repeated eigenvalue divides by zero, and its radius is inf or nan; so
    may be the radii of the eigenvalues ordered before it, whose rows of
    (T X)^-1 read its column.
    """
    # lwork from a query, as scipy.linalg.eig takes it for ggev, keeps the
    # blocked QR path and so the bits of alpha and beta
    lwork = int(zgges(_unsorted, A, E, jobvsl=0, jobvsr=0, lwork=-1)[-2][0].real)
    s, t, _, alpha, beta, _, _, _, info = zgges(_unsorted, A, E, jobvsl=0, jobvsr=0, lwork=lwork)
    if info:
        raise np.linalg.LinAlgError(f"generalized Schur algorithm (gges) did not converge (LAPACK info={info})")
    # the staircase kept sigma_min(E) above floor, and no diagonal entry of
    # the triangular factor of E is smaller than its sigma_min
    if np.any(np.abs(beta) <= floor):
        raise RankAmbiguityError(
            "deflated core unexpectedly has an eigenvalue at infinity; "
            "rank tolerances likely misjudged the staircase"
        )
    values = alpha / beta
    n = len(values)
    # column k solves (beta_k S - alpha_k T) x = 0 with x_k = 1 and x_j = 0
    # below k; row j is solved for every column k > j at once
    right = np.eye(n, dtype=np.complex128)
    with np.errstate(all="ignore"):
        for j in range(n - 2, -1, -1):
            k = slice(j + 1, n)
            below = right[k, k]
            residual = beta[k] * (s[j, k] @ below) - alpha[k] * (t[j, k] @ below)
            right[j, k] = -residual / (beta[k] * s[j, j] - alpha[k] * t[j, j])
        # T X is upper triangular with diagonal beta, so it is invertible
        left = ztrtri(t @ right)[0]
        radius = (
            np.linalg.norm(right, axis=0)
            * np.linalg.norm(left, axis=1)
            * (1.0 + np.abs(values))
            * floor
        )
    return values, radius


def _certified_eigenvalues(E, A, floor: float):
    """Eigenvalues of lambda*E - A (E invertible), and which are certified simple.

    Eigenvalue i is certified simple when its _eigenvalue_radii radius r_i
    has 8*(r_i + r_j) < |lambda_i - lambda_j| for every j != i, so its disk
    is well apart from every other.  A split Jordan block makes T X nearly
    singular, so its members are never certified; an exactly repeated
    eigenvalue has a radius of inf or nan, and every comparison with nan
    fails, so none of its copies is.
    """
    if E.size == 0:
        # LAPACK takes no empty matrix
        return np.zeros(0, dtype=np.complex128), np.zeros(0, dtype=bool)
    values, radius = _eigenvalue_radii(E, A, floor)
    with np.errstate(all="ignore"):
        apart = 8.0 * (radius[:, None] + radius[None, :]) < np.abs(
            values[:, None] - values[None, :]
        )
    np.fill_diagonal(apart, True)
    return values, apart.all(axis=1)


def _finite_structure(E, A, values, certified, kappa: float, carried_floor: float, norms):
    """Clustered eigenvalues with partial multiplicities for a regular core.

    values and certified are _certified_eigenvalues of the core.  A
    certified simple eigenvalue alone in its cluster has multiplicities
    (1,); every other cluster runs the shifted staircase.  norms are the
    spectral norms of E and A, or None to take them on first need.
    """
    # every round reads one scale and one set of staircase SVDs per shift: a
    # cluster that keeps its members keeps its shift, and only the cutoffs
    # change
    store: dict = {}
    for round_idx in range(CLUSTER_ROUNDS):
        factor = CLUSTER_RADIUS * (10.0 ** round_idx)
        result = []
        for members in _union_find_clusters(values, factor):
            if len(members) == 1 and certified[members[0]]:
                result.append((complex(values[members[0]]), (1,)))
                continue
            if norms is None:
                norms = (spectral_norm(E), spectral_norm(A))
            rep = complex(np.mean(values[members]))
            radius_abs = factor * (1.0 + abs(rep))
            mults = _cluster_multiplicities(
                E, A, rep, len(members), radius_abs, kappa, carried_floor, *norms, store
            )
            if mults is None:
                break
            result.append((rep, tuple(sorted(mults))))
        else:
            result.sort(key=lambda item: (item[0].real, item[0].imag))
            return tuple(result)
    raise RankAmbiguityError(
        "eigenvalue cluster multiplicities never balanced the cluster sizes, "
        f"even after radius escalation: the cluster at {rep:.6g} with {len(members)} members "
        f"was unresolved at radius {radius_abs:.3g} (relative {factor:g}), kappa {kappa:g}"
    )


def kronecker_structure(p: Pencil) -> KroneckerStructure:
    """Full Kronecker block data of a (possibly rectangular) pencil.

    Kept on p; so is a refusal, which every later call raises again.
    """
    return _kept(p, "_structure", lambda: _escalated_structure(p))


def _escalated_structure(p: Pencil) -> KroneckerStructure:
    m = p.to_minus()
    E = np.array(m.lead)
    A = np.array(m.constant)
    rows, cols = E.shape
    if max(rows, cols, 1) > SIZE_CAP:
        raise PreconditionError(
            f"pencil size {rows}x{cols} exceeds the cap {SIZE_CAP}"
        )
    # roundoff accumulated over successive compressions can cross a tight
    # rank tolerance; retry the singular stage with escalated safety factors
    # and accept only when the independent derivations agree.  A cluster's
    # cutoff is set by its radius, far above the kappa term, so the cluster
    # stage runs once, at the deciding kappa
    norms = (p.norm("lead"), p.norm("constant"))
    last_error: RankAmbiguityError | None = None
    for mult in (1.0, 4.0, 16.0, 64.0):
        try:
            right, left, inf_sizes, cluster_args = _singular_stage(
                E, A, rows, cols, KAPPA_SAFETY * mult, norms, p.singular_values("lead")
            )
            break
        except RankAmbiguityError as err:
            last_error = err
    else:
        raise last_error
    return KroneckerStructure(
        right_minimal_indices=tuple(right),
        left_minimal_indices=tuple(left),
        finite_eigenstructure=_finite_structure(*cluster_args),
        infinite_block_sizes=tuple(inf_sizes),
        rows=rows,
        cols=cols,
    )


def _singular_stage(E, A, rows, cols, kappa: float, norms, lead_sv):
    """(right, left, infinite sizes, _finite_structure arguments) at one kappa.

    norms are the spectral norms of E and A (||-A|| is ||A||), and lead_sv
    the singular values of E, descending.
    """
    # truncation garbage left in deflated cores is proportional to the scale
    # of the ORIGINAL pencil, so later phases must not trust core-local scale
    scale = max(norms)
    global_floor = kappa * EPS * max(rows, cols, 1) * scale

    if rows == cols and _decide_rank(lead_sv, rows, scale, kappa, 0.0, "lead kernel") == rows:
        # a square lead of full rank is the whole core: no staircase run has
        # anything to deflate, so only the left-deflation cutoff is applied
        right, left, inf_sizes = [], [], []
        if _decide_rank(lead_sv, rows, scale, kappa, global_floor, "lead kernel") < rows:
            raise RankAmbiguityError("left-deflation cutoff finds a kernel in a full-rank lead")
        e_reg, a_reg = E, A
    else:
        s1, t1, e_reg, a_reg = _staircase_inf(E, A, kappa, scale)
        right, inf_sizes = _counts_from_staircase(s1, t1)
        s2, t2, _, _ = _staircase_inf(E.conj().T, A.conj().T, kappa, scale)
        left_indep, inf_indep = _counts_from_staircase(s2, t2)
        if inf_indep != inf_sizes:
            raise RankAmbiguityError(
                "primal and transposed staircase runs disagree on the structure "
                f"at infinity: {inf_sizes} vs {inf_indep}"
            )

        # cutoffs at the core's own norms (||X*|| is ||X||), plus global_floor
        # at the input's scale
        core_norms = (spectral_norm(e_reg), spectral_norm(a_reg))
        s3, t3, e2h, a2h = _staircase_inf(
            e_reg.conj().T, a_reg.conj().T, kappa, max(core_norms), extra_floor=global_floor
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
        # a core that run 3 left as it was keeps its norms; a deflated one has
        # them taken when a cluster first needs them
        norms = None if s3 else core_norms
        if e_reg.shape[0] != e_reg.shape[1]:
            raise RankAmbiguityError(
                f"regular core is not square ({e_reg.shape[0]}x{e_reg.shape[1]}); "
                "rank tolerances misjudged the singular structure"
            )
    values, certified = _certified_eigenvalues(e_reg, a_reg, global_floor)
    return right, left, inf_sizes, (e_reg, a_reg, values, certified, kappa, global_floor, norms)


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
