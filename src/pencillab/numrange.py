"""Numerical range sampling and localization for structured pencils.

The numerical range of lambda*L + C collects every mu with x*(mu L + C)x = 0
for some nonzero x.  For pencils whose coefficients have PSD Hermitian
parts the range stays out of a pacman shaped neighbourhood of the positive
real axis; the opening is governed by definiteness thresholds beta_plus
and beta_minus.  This module samples the range, computes the thresholds by
Cholesky bisection, tests pacman membership, and evaluates the chain of
regularity conditions linking kernel intersections, range geometry and
isotropic vectors.
"""

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from .core import (
    AXIS_TOL,
    EPS,
    Pencil,
    PoshPencil,
    as_complex_matrix,
    default_psd_tolerance,
    is_positive_definite,
    probe_regular,
    smallest_hermitian_eigenvalue,
    spectral_norm,
)
from .errors import (
    DimensionError,
    InputFormatError,
    PreconditionError,
    RankAmbiguityError,
)
from .kcf import KroneckerStructure, kronecker_structure

DENOMINATOR_CUTOFF = 1e-12
EMISSION_RESIDUAL = 1e-10
# bracket width at which the definiteness bisection stops
BISECT_TOL = 1e-9
FLOAT_MAX = float(np.finfo(np.float64).max)
# points per angle of the definite-combination grid, and ascent steps after it
COMBINATION_GRID = 26
COMBINATION_REFINE_STEPS = 60


@dataclass(frozen=True)
class NumRangeSample:
    """Retained numerical-range points plus the discard count."""

    points: tuple
    discarded: int
    seed: int
    sample_count: int

    def __post_init__(self):
        object.__setattr__(self, "points", tuple(complex(z) for z in self.points))
        if len(self.points) + self.discarded != self.sample_count:
            raise PreconditionError(
                "retained plus discarded must equal the requested sample count"
            )


@dataclass(frozen=True)
class BetaThresholds:
    """Definiteness thresholds; None marks an undefined symbol."""

    beta_plus: float | None
    beta_minus: float | None
    lower_bound: float | None
    strip_bound: float | None = None


@dataclass(frozen=True)
class PacmanRegion:
    """Excluded set near the positive real axis, one sign at a time.

    For sign plus the set is {Re z > 0, 0 <= Im z < beta,
    0 <= arg z < arctan(beta)}; minus mirrors it across the real axis.
    arctan(inf) is pi/2.
    """

    beta: float
    sign: str

    def __post_init__(self):
        if self.sign not in ("plus", "minus"):
            raise InputFormatError(f"sign must be plus or minus, got {self.sign!r}")
        beta = float(self.beta)
        if not beta > 0.0:
            raise InputFormatError("beta must be positive (inf allowed)")
        object.__setattr__(self, "beta", beta)


def rayleigh_point(p: Pencil, x) -> complex | None:
    """Numerical-range point generated by x, or None when x is too isotropic.

    mu = -(x* Const x)/(x* Lead x); the denominator must exceed
    DENOMINATOR_CUTOFF * ||Lead|| * ||x||^2.
    """
    p = p.to_plus()
    vec = np.asarray(x, dtype=np.complex128)
    if vec.ndim != 1:
        vec = vec.reshape(-1)
    if vec.shape[0] != p.shape[1]:
        raise DimensionError(
            f"vector length {vec.shape[0]} does not match pencil size {p.shape[1]}"
        )
    nrm2 = float(np.real(vec.conj() @ vec))
    if nrm2 == 0.0:
        raise InputFormatError("zero vector has no Rayleigh quotient")
    ql = complex(vec.conj() @ p.lead @ vec)
    qc = complex(vec.conj() @ p.constant @ vec)
    if abs(ql) <= DENOMINATOR_CUTOFF * spectral_norm(p.lead) * nrm2:
        return None
    return -qc / ql


def sample_numerical_range(p: Pencil, n_samples: int, seed: int = 0) -> NumRangeSample:
    """Sample the numerical range at random unit vectors.

    Directions are drawn from the rotation-invariant distribution on the
    complex unit sphere; the draw is deterministic under a fixed seed.
    Points failing the emission residual check count as discarded, and so
    does every draw for the empty pencil, which has no unit vectors.
    """
    p = p.to_plus()
    if not p.is_square:
        raise DimensionError("numerical range needs a square pencil")
    n = p.shape[0]
    n_samples = int(n_samples)
    if n_samples < 0:
        raise InputFormatError("sample count must be nonnegative")
    if n_samples == 0 or n == 0:
        return NumRangeSample((), n_samples, seed, n_samples)
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n_samples, n)) + 1j * rng.standard_normal((n_samples, n))
    norms = np.linalg.norm(X, axis=1)
    norms[norms == 0.0] = 1.0
    X /= norms[:, None]
    ql = np.einsum("ni,ij,nj->n", X.conj(), p.lead, X)
    qc = np.einsum("ni,ij,nj->n", X.conj(), p.constant, X)
    lead_norm = spectral_norm(p.lead)
    emit_scale = EMISSION_RESIDUAL * (lead_norm + spectral_norm(p.constant))
    keep = np.abs(ql) > DENOMINATOR_CUTOFF * lead_norm
    mu = np.where(keep, -qc / np.where(keep, ql, 1.0), 0.0)
    keep &= np.abs(qc + mu * ql) <= emit_scale
    points = tuple(complex(z) for z in mu[keep])
    return NumRangeSample(points, n_samples - len(points), seed, n_samples)


def _hermitized(m) -> np.ndarray:
    return (m + m.conj().T) / 2.0


def definiteness_threshold(h0, h1) -> float | None:
    """sup{beta >= 0 : h0 + beta*h1 positive definite}, by bisection.

    Returns None when h0 itself is not definite, inf when the set is
    unbounded or holds every finite float.  The returned finite value is on
    the definite side of the supremum, with bracket width at most BISECT_TOL,
    or one float spacing where the supremum is too large for that.
    """
    h0 = _hermitized(as_complex_matrix(h0, "h0", square=True))
    h1 = _hermitized(as_complex_matrix(h1, "h1", square=True))
    if h0.shape != h1.shape:
        raise DimensionError("h0 and h1 must have equal size")
    if not is_positive_definite(h0):
        return None
    sv = np.linalg.svd(h1, compute_uv=False)
    if sv.size == 0 or sv[0] == 0.0:
        return math.inf
    # smallest nonzero singular value caps any definiteness-breaking beta
    small = sv[sv > sv[0] * h1.shape[0] * EPS]
    sigma_min = float(small[-1]) if small.size else float(sv[0])
    cap = 1.0 + 2.0 * float(np.linalg.svd(h0, compute_uv=False)[0]) / sigma_min
    cap = min(cap, FLOAT_MAX)
    if is_positive_definite(h0 + cap * h1):
        return math.inf
    lo, hi = 0.0, cap
    while hi - lo > BISECT_TOL:
        mid = (lo + hi) / 2.0
        if not lo < mid < hi:
            break  # adjacent floats: the bracket cannot shrink further
        if is_positive_definite(h0 + mid * h1):
            lo = mid
        else:
            hi = mid
    return lo


def _thresholds(h0, k, j1_norm, strip_bound=None) -> BetaThresholds:
    if not is_positive_definite(_hermitized(h0)):
        return BetaThresholds(None, None, None, strip_bound)
    if j1_norm == 0.0:
        return BetaThresholds(math.inf, math.inf, None, strip_bound)
    beta_plus = definiteness_threshold(h0, k)
    beta_minus = definiteness_threshold(h0, -k)
    sv = np.linalg.svd(_hermitized(h0), compute_uv=False)
    lower = float(sv[-1]) / j1_norm
    return BetaThresholds(beta_plus, beta_minus, lower, strip_bound)


def beta_thresholds(pp: PoshPencil) -> BetaThresholds:
    """Thresholds for R1 + R2 +/- beta*(i J1) staying positive definite."""
    k = 1j * pp.j1
    return _thresholds(pp.r1 + pp.r2, k, spectral_norm(pp.j1))


def beta_thresholds_scaled(pp: PoshPencil, t: float) -> BetaThresholds:
    """Thresholds with R1 scaled by t; reports the strip bound when valid.

    The strip bound sigma_min(R2)/||J1|| applies when R2 is invertible and
    J1 is nonzero, and excludes a horizontal strip for every t.
    """
    t = float(t)
    if not t > 0.0:
        raise PreconditionError("t must be positive")
    j1_norm = spectral_norm(pp.j1)
    strip = None
    lam_min_r2 = smallest_hermitian_eigenvalue(pp.r2)
    if j1_norm > 0.0 and lam_min_r2 > default_psd_tolerance(pp.r2):
        strip = lam_min_r2 / j1_norm
    k = 1j * pp.j1
    return _thresholds(t * pp.r1 + pp.r2, k, j1_norm, strip)


def pacman_excludes(region: PacmanRegion, z: complex) -> bool:
    """Membership in the excluded pacman set, verbatim inequalities."""
    z = complex(z)
    if not z.real > 0.0:
        return False
    beta = region.beta
    angle = math.atan(beta)
    arg = cmath.phase(z)
    if region.sign == "plus":
        return 0.0 <= z.imag < beta and 0.0 <= arg < angle
    return -beta < z.imag <= 0.0 and -angle < arg <= 0.0


def common_kernel(matrices) -> np.ndarray:
    """Orthonormal basis of the intersection of the kernels.

    The basis comes from an SVD of the stacked matrix; an empty basis is
    an n x 0 array.
    """
    mats = [as_complex_matrix(m, f"matrix {i}") for i, m in enumerate(matrices)]
    if not mats:
        raise InputFormatError("common_kernel needs at least one matrix")
    n = mats[0].shape[1]
    for m in mats[1:]:
        if m.shape[1] != n:
            raise DimensionError("matrices must have equal column counts")
    if n == 0:
        return np.zeros((0, 0), dtype=np.complex128)
    stack = np.vstack(mats)
    scale = spectral_norm(stack)
    if scale == 0.0:
        return np.eye(n, dtype=np.complex128)
    _, sv, vh = np.linalg.svd(stack)
    tol = max(stack.shape) * EPS * scale * 16.0
    rank = int(np.count_nonzero(sv > tol))
    return np.ascontiguousarray(vh[rank:].conj().T)


def find_definite_combination(h1, h2, h3):
    """Search for alpha*h1 + beta*h2 + gamma*h3 positive definite.

    Coarse spherical grid over unit (alpha, beta, gamma) followed by a
    projected ascent on the smallest eigenvalue.  Returns
    (alpha, beta, gamma, lambda_min) with lambda_min above the roundoff
    cutoff 16*n*eps*max ||h_k||, or None.  A None result does not prove that
    no definite combination exists.
    """
    mats = [
        _hermitized(as_complex_matrix(h, name, square=True))
        for h, name in ((h1, "h1"), (h2, "h2"), (h3, "h3"))
    ]
    n = mats[0].shape[0]
    for m in mats[1:]:
        if m.shape[0] != n:
            raise DimensionError("matrices must share one size")
    if n < 2:
        raise PreconditionError("combination search needs size at least 2")

    def lam_min(coeffs):
        m = coeffs[0] * mats[0] + coeffs[1] * mats[1] + coeffs[2] * mats[2]
        return float(np.linalg.eigvalsh(m)[0])

    best = None
    best_val = -math.inf
    thetas = np.linspace(0.0, math.pi, COMBINATION_GRID)
    phis = np.linspace(0.0, 2.0 * math.pi, COMBINATION_GRID, endpoint=False)
    for theta in thetas:
        st, ct = math.sin(theta), math.cos(theta)
        for phi in phis:
            coeffs = np.array([st * math.cos(phi), st * math.sin(phi), ct])
            val = lam_min(coeffs)
            if val > best_val:
                best_val = val
                best = coeffs
            if st == 0.0:
                break

    x = best
    step = 0.1
    current = best_val
    for _ in range(COMBINATION_REFINE_STEPS):
        m = x[0] * mats[0] + x[1] * mats[1] + x[2] * mats[2]
        w, v = np.linalg.eigh(m)
        vec = v[:, 0]
        grad = np.array([float(np.real(vec.conj() @ h @ vec)) for h in mats])
        cand = x + step * grad
        nrm = np.linalg.norm(cand)
        if nrm == 0.0:
            step /= 2.0
            continue
        cand /= nrm
        val = lam_min(cand)
        if val > current:
            x, current = cand, val
            step = min(step * 1.5, 1.0)
        else:
            step /= 2.0
            if step < 1e-12:
                break
    # a smallest eigenvalue at roundoff level is no evidence of definiteness
    cutoff = 16.0 * n * EPS * max(spectral_norm(m) for m in mats)
    if current > cutoff:
        return (float(x[0]), float(x[1]), float(x[2]), current)
    return None


def find_definite_triple(pp: PoshPencil):
    """A definite combination of three of R1, iJ1, R2 and iJ2.

    The triples leave out R1, iJ1, R2 and iJ2 in turn, and the first with a
    definite combination wins.  Such a combination rules out a common
    isotropic vector of the coefficients.  Returns (triple names, lambda_min)
    or None; None proves nothing.
    """
    herms = {"R1": pp.r1, "iJ1": 1j * pp.j1, "R2": pp.r2, "iJ2": 1j * pp.j2}
    for skip in herms:
        triple = [name for name in herms if name != skip]
        combo = find_definite_combination(*(herms[name] for name in triple))
        if combo is not None:
            return triple, combo[3]
    return None


@dataclass(frozen=True)
class ChainVerdict:
    """One condition's outcome: True/False/None plus how it was obtained."""

    value: bool | None
    evidence: str
    detail: str = ""


@dataclass(frozen=True)
class NocommonChainReport:
    """Verdicts for the five linked regularity conditions.

    a: ker R1 and ker R2 intersect trivially.
    b: the numerical range misses the positive reals.
    c: the numerical range is not the whole plane.
    d: the coefficients have no common isotropic vector.
    e: the pencil is regular.
    Over the complex field a implies b implies c implies d implies e; for
    real data a through d are equivalent.
    """

    a: ChainVerdict
    b: ChainVerdict
    c: ChainVerdict
    d: ChainVerdict
    e: ChainVerdict
    real_case: bool
    notes: tuple = field(default_factory=tuple)


_EVIDENCE_RANK = {"exact": 3, "sampled": 2, "heuristic": 1}

PROBE_GAP_FACTOR = 0.2


def _probe_gap_not_whole_plane(points) -> tuple:
    """Largest relative clearance between a probe grid and the samples."""
    if not points:
        return True, math.inf
    pts = np.asarray(points, dtype=np.complex128)
    radius = max(1.0, float(np.max(np.abs(pts))))
    best = 0.0
    for r in (0.5 * radius, radius, 2.0 * radius):
        for k in range(16):
            probe = r * cmath.exp(2j * math.pi * k / 16.0)
            gap = float(np.min(np.abs(pts - probe))) / (1.0 + abs(probe))
            best = max(best, gap)
    return best > PROBE_GAP_FACTOR, best


def nocommon_chain_report(
    pp: PoshPencil,
    sample_budget: int = 2000,
    seed: int = 0,
    structure: KroneckerStructure | None = None,
    sample: NumRangeSample | None = None,
) -> NocommonChainReport:
    """Evaluate the condition chain (a) through (e) on one pencil.

    Kernel and regularity checks are exact; the numerical-range conditions
    are sampled; the isotropic-vector condition uses definite-combination
    certificates.  After the individual tests the chain implications are
    closed off, with exact evidence overriding sampled evidence.  structure,
    when given, must be the Kronecker structure of pp.pencil(), and sample,
    when given, must be sample_numerical_range(pp.pencil(), sample_budget,
    seed); they are then not computed again.
    """
    notes = []
    real_case = pp.is_real
    n = pp.n

    kernel_ab = common_kernel([pp.r1, pp.r2])
    a = ChainVerdict(
        kernel_ab.shape[1] == 0,
        "exact",
        f"dim(ker R1 n ker R2) = {kernel_ab.shape[1]}",
    )

    if sample is None:
        sample = sample_numerical_range(pp.pencil(), sample_budget, seed)
    hit = None
    for z in sample.points:
        if z.real > AXIS_TOL and abs(z.imag) <= AXIS_TOL * (1.0 + abs(z)):
            hit = z
            break
    if hit is not None:
        b = ChainVerdict(False, "sampled", f"positive real range point {hit}")
    else:
        b = ChainVerdict(
            True,
            "sampled",
            f"no positive real point among {len(sample.points)} samples",
        )

    not_plane, gap = _probe_gap_not_whole_plane(sample.points)
    if not_plane:
        c = ChainVerdict(True, "sampled", f"probe clearance {gap:.3g}")
    else:
        c = ChainVerdict(None, "sampled", f"probe clearance only {gap:.3g}")

    if real_case:
        stack_kernel = common_kernel([pp.r1.real, pp.r2.real])
        if stack_kernel.shape[1] > 0:
            d = ChainVerdict(
                False,
                "exact",
                "real vector in ker R1 n ker R2 is isotropic for both coefficients",
            )
        else:
            d = ChainVerdict(True, "exact", "no real common kernel vector")
    else:
        four_kernel = common_kernel([pp.j1, pp.r1, pp.j2, pp.r2])
        if four_kernel.shape[1] > 0:
            d = ChainVerdict(
                False, "exact", "common kernel vector of all four matrices"
            )
        elif n == 1:
            d = ChainVerdict(True, "exact", "nonzero scalar coefficient")
        else:
            found = find_definite_triple(pp)
            if found is None:
                d = ChainVerdict(None, "heuristic", "no definite combination found")
            else:
                d = ChainVerdict(
                    True,
                    "heuristic",
                    "definite combination of {%s} with lambda_min %.3g"
                    % (", ".join(found[0]), found[1]),
                )

    try:
        if structure is None:
            structure = kronecker_structure(pp.pencil())
        e = ChainVerdict(structure.regular, "exact", "Kronecker structure")
    except RankAmbiguityError as exc:
        e = ChainVerdict(
            probe_regular(pp.pencil()), "sampled", f"rank ambiguity: {exc}"
        )

    if n < 3 and not real_case:
        notes.append(
            "size below 3: joint numerical ranges need not be convex, "
            "combination certificates are heuristic only"
        )

    verdicts = [a, b, c, d, e]
    if real_case:
        implications = [
            (i, j) for i in range(4) for j in range(4) if i != j
        ] + [(3, 4)]
    else:
        implications = [(0, 1), (1, 2), (2, 3), (3, 4)]

    labels = "abcde"

    def force(idx, val, src_idx):
        cur = verdicts[idx]
        src = verdicts[src_idx]
        detail = f"implied by ({labels[src_idx]})"
        if cur.value is None:
            verdicts[idx] = ChainVerdict(val, src.evidence, detail)
            return True
        if cur.value == val:
            if _EVIDENCE_RANK[src.evidence] > _EVIDENCE_RANK[cur.evidence]:
                verdicts[idx] = ChainVerdict(val, src.evidence, detail)
                return True
            return False
        if _EVIDENCE_RANK[src.evidence] > _EVIDENCE_RANK[cur.evidence]:
            msg = (
                f"({labels[idx]}) {cur.evidence} verdict {cur.value} "
                f"overridden: {detail}"
            )
            if msg not in notes:
                notes.append(msg)
            verdicts[idx] = ChainVerdict(val, src.evidence, detail)
            return True
        msg = (
            f"conflict: ({labels[src_idx]}) implies ({labels[idx]})={val} "
            f"but kept {cur.value}"
        )
        if msg not in notes:
            notes.append(msg)
        return False

    changed = True
    guard = 0
    while changed and guard < 16:
        changed = False
        guard += 1
        for i, j in implications:
            if verdicts[i].value is True and force(j, True, i):
                changed = True
            if verdicts[j].value is False and force(i, False, j):
                changed = True

    return NocommonChainReport(
        a=verdicts[0],
        b=verdicts[1],
        c=verdicts[2],
        d=verdicts[3],
        e=verdicts[4],
        real_case=real_case,
        notes=tuple(notes),
    )
