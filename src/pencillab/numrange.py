"""Numerical range sampling and localization for structured pencils.

The numerical range of lambda*L + C collects every mu with x*(mu L + C)x = 0
for some nonzero x.  For pencils whose coefficients have PSD Hermitian
parts the range stays out of a pacman shaped neighbourhood of the positive
real axis; the opening is governed by definiteness thresholds beta_plus
and beta_minus.  This module samples the range, computes the thresholds in
closed form from one generalized Hermitian eigensolve, tests pacman
membership, and evaluates the chain of regularity conditions linking kernel
intersections, range geometry and isotropic vectors on W = ker R1 n ker R2.
"""

import cmath
import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .core import (
    EPS,
    Pencil,
    PoshPencil,
    as_complex_matrix,
    is_positive_definite,
    probe_regular,
    psd_slack,
    quadratic_forms,
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


@dataclass(frozen=True)
class NumRangeSample:
    """Retained numerical-range points, as Python complex, plus the discard count."""

    points: tuple
    discarded: int
    seed: int
    sample_count: int

    def __post_init__(self):
        object.__setattr__(self, "points", tuple(self.points))
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
    ql = quadratic_forms(X, p.lead)
    qc = quadratic_forms(X, p.constant)
    lead_norm = spectral_norm(p.lead)
    emit_scale = EMISSION_RESIDUAL * (lead_norm + spectral_norm(p.constant))
    keep = np.abs(ql) > DENOMINATOR_CUTOFF * lead_norm
    mu = np.where(keep, -qc / np.where(keep, ql, 1.0), 0.0)
    keep &= np.abs(qc + mu * ql) <= emit_scale
    points = tuple(mu[keep].tolist())
    return NumRangeSample(points, n_samples - len(points), seed, n_samples)


def _hermitized(m) -> np.ndarray:
    """(m + m*)/2; PreconditionError where it overflows."""
    with np.errstate(over="ignore", invalid="ignore"):
        h = (m + m.conj().T) / 2.0
    if not np.all(np.isfinite(h)):
        raise PreconditionError("a Hermitian part is not finite")
    return h


def definiteness_threshold(h0, h1) -> float | None:
    """sup{beta >= 0 : h0 + beta*h1 positive definite}, in closed form.

    Returns None when h0 itself is not definite, inf when h1 is
    semidefinite or the supremum is past the largest float.  A finite value
    is one where Cholesky of h0 + beta*h1 succeeds, about 2*n*eps relative
    below the supremum: below it whenever the threshold is well enough
    conditioned for the eigensolve and the Cholesky to resolve it.
    """
    h0 = _hermitized(as_complex_matrix(h0, "h0", square=True))
    h1 = _hermitized(as_complex_matrix(h1, "h1", square=True))
    if h0.shape != h1.shape:
        raise DimensionError("h0 and h1 must have equal size")
    if not is_positive_definite(h0):
        return None
    return _definiteness_thresholds(h0, h1)[0]


def _definiteness_thresholds(h0, h1) -> tuple:
    """Thresholds for h0 + beta*h1 and h0 - beta*h1, h0 Hermitian definite.

    A sign's threshold is inf exactly when its g = +/-h1 is semidefinite,
    decided with a 64*eps*||h1|| slack; one eigensolve of the pair (h1, h0)
    serves both signs.
    """
    if h0.shape[0] == 0:
        return math.inf, math.inf
    w = scipy.linalg.eigh(h1, h0, eigvals_only=True)
    lam = np.linalg.eigvalsh(h1)
    slack = 64.0 * EPS * max(-lam[0], lam[-1])
    return (
        _threshold(h0, h1, w) if lam[0] < -slack else math.inf,
        _threshold(h0, -h1, -w[::-1]) if lam[-1] > slack else math.inf,
    )


def _definite_at(h0, g, t) -> bool:
    """is_positive_definite(h0 + t*g); a sum that overflows is not definite."""
    with np.errstate(over="ignore", invalid="ignore"):
        m = h0 + t * g
    return bool(np.all(np.isfinite(m))) and is_positive_definite(m)


def _threshold(h0, g, w) -> float:
    """sup{beta >= 0 : h0 + beta*g definite} for g not semidefinite.

    w holds the eigenvalues of the pair (g, h0), ascending; h0 + beta*g is
    definite exactly while 1 + beta*w_i > 0, so the threshold is -1/w[0]
    (Higham, Tisseur and Van Dooren, LAA 351-352, 2002).  The eigensolve
    rounds w[0] relative to max|w|, so while w[-1] outweighs it the pair is
    solved again from the definite h0 + t*g, t moved halfway to the
    estimate t - 1/w[0] or, where w[0] is within rounding, by half the
    reciprocal of the rounding.  The estimate, lowered by 2*n*eps relative
    and halved while beta*g overflows, is stepped down by a doubling
    relative step until Cholesky accepts it.
    """
    n = h0.shape[0]
    t = 0.0
    w_min, w_max = float(w[0]), float(w[-1])
    while -w_min < w_max:
        edge = max(-w_min, 16.0 * n * EPS * w_max)
        t_next = t + 0.5 / edge if edge > 0.0 else math.inf
        if t_next == math.inf or not _definite_at(h0, g, t_next):
            break
        t = t_next
        w = scipy.linalg.eigh(g, h0 + t * g, eigvals_only=True)
        w_min, w_max = float(w[0]), float(w[-1])
    beta = (t - 1.0 / w_min) * (1.0 - 2.0 * n * EPS) if w_min < 0.0 else t
    with np.errstate(over="ignore", invalid="ignore"):
        while t < beta < math.inf and not np.all(np.isfinite(beta * g)):
            beta = max(0.5 * beta, t)
    step = EPS
    while t < beta < math.inf and not _definite_at(h0, g, beta):
        beta = max(beta - step * beta, t)
        step *= 2.0
    return beta


def _thresholds(h0, k, j1_norm, strip_bound=None) -> BetaThresholds:
    h0 = _hermitized(h0)
    if not is_positive_definite(h0):
        return BetaThresholds(None, None, None, strip_bound)
    if j1_norm == 0.0:
        return BetaThresholds(math.inf, math.inf, None, strip_bound)
    beta_plus, beta_minus = _definiteness_thresholds(h0, _hermitized(k))
    lower = float(np.linalg.svd(h0, compute_uv=False)[-1]) / j1_norm
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
    if j1_norm > 0.0 and lam_min_r2 > psd_slack(pp.r2):
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


def _kernel_with_gap(matrices) -> tuple:
    """Orthonormal basis of the intersection of the kernels, and its rank gap.

    The basis comes from an SVD of the stacked matrix; an empty basis is an
    n x 0 array.  The gap is the smaller factor by which the kept and the
    dropped singular values clear the rank cutoff (inf for an empty side).
    """
    mats = [as_complex_matrix(m, f"matrix {i}") for i, m in enumerate(matrices)]
    if not mats:
        raise InputFormatError("common_kernel needs at least one matrix")
    n = mats[0].shape[1]
    for m in mats[1:]:
        if m.shape[1] != n:
            raise DimensionError("matrices must have equal column counts")
    if n == 0:
        return np.zeros((0, 0), dtype=np.complex128), math.inf
    stack = np.vstack(mats)
    scale = spectral_norm(stack)
    if scale == 0.0:
        return np.eye(n, dtype=np.complex128), math.inf
    _, sv, vh = np.linalg.svd(stack)
    tol = max(stack.shape) * EPS * scale * 16.0
    rank = int(np.count_nonzero(sv > tol))
    kept = sv[rank - 1] / tol if rank else math.inf
    dropped = tol / sv[rank] if rank < sv.size and sv[rank] > 0.0 else math.inf
    return np.ascontiguousarray(vh[rank:].conj().T), float(min(kept, dropped))


def common_kernel(matrices) -> np.ndarray:
    """Orthonormal basis of the intersection of the kernels (n x 0 when trivial)."""
    return _kernel_with_gap(matrices)[0]


@dataclass(frozen=True)
class ChainVerdict:
    """One condition's outcome: True/False/None, how it was obtained, a witness."""

    value: bool | None
    evidence: str
    detail: str = ""
    witness: object = field(default=None, compare=False)


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


_EVIDENCE_RANK = {"exact": 2, "sampled": 1, "none": 0}

# a kernel rank gap below this factor makes every verdict on W a close call
KERNEL_GAP_MIN = 8.0
# support points the isotropic-vector search adds before it gives up
SUPPORT_STEPS = 32
_OPEN = ChainVerdict(None, "none")


def _definite_rotation(a: np.ndarray, margin: float) -> float | None:
    """An angle theta with Re(exp(i theta) a) above margin*I, or None.

    Re(exp(i theta) a) is singular exactly where exp(2i theta) is an
    eigenvalue of the pencil w*a + a*, and its inertia is constant between
    consecutive such angles (Higham, Tisseur and Van Dooren, LAA 351-352,
    2002), so a Cholesky test at the midpoint of every arc between them
    decides whether some rotation is definite.
    """
    w = scipy.linalg.eigvals(a.conj().T, -a)
    half = np.angle(w[np.isfinite(w)]) / 2.0
    cuts = np.sort(np.concatenate([half, half + math.pi]) % (2.0 * math.pi))
    mids = cuts + np.diff(np.append(cuts, cuts[:1] + 2.0 * math.pi)) / 2.0
    shift = margin * np.eye(a.shape[0])
    for theta in mids if cuts.size else (0.0,):
        if is_positive_definite(_hermitized(cmath.exp(1j * theta) * a) - shift):
            return float(theta) % (2.0 * math.pi)
    return None


def _cross(u: complex, v: complex) -> float:
    return (u.conjugate() * v).imag


def _left_of(p: complex, q: complex, tol: float) -> bool:
    """0 lies left of the edge p -> q or within tol of it; a shorter edge passes."""
    d = q - p
    return abs(d) <= tol or _cross(d, -p) >= -tol * abs(d)


def _two_vector_solve(a: np.ndarray, p, q, minimize: bool):
    """Unit y in span{p, q} with Re(y*ay) = 0; Re(p*ap) and Re(q*aq) straddle 0.

    Such y form one circle of phases, along which Im(y*ay) is a sinusoid;
    y takes its minimum when minimize is set, and otherwise a zero of it,
    which exists when 0 lies in the field of values of a on the span.
    """
    basis, _ = np.linalg.qr(np.column_stack([p, q]))
    c = basis.conj().T @ a @ basis
    lam, v = np.linalg.eigh(_hermitized(c))
    lo, hi = min(float(lam[0]), 0.0), max(float(lam[1]), 0.0)
    if hi == lo:
        return None
    im = v.conj().T @ _hermitized(-1j * c) @ v
    mid = hi * im[0, 0].real - lo * im[1, 1].real
    amp = 2.0 * math.sqrt(-lo * hi) * abs(im[0, 1])
    cos = -1.0 if minimize or amp == 0.0 else min(1.0, max(-1.0, -mid / amp))
    turn = im[0, 1].conjugate() / abs(im[0, 1]) if amp else 1.0
    phase = cmath.exp(1j * math.acos(cos)) * turn
    y = basis @ (math.sqrt(hi) * v[:, 0] + phase * math.sqrt(-lo) * v[:, 1])
    return y / np.linalg.norm(y)


def _isotropic_vector(a: np.ndarray, margin: float):
    """A unit y with y*ay = 0 up to roundoff, or None.

    Support points of the field of values W(a) are added in the directions
    of polygon edges that keep 0 outside, until the polygon holds 0 (Uhlig,
    Inverse Problems 24, 2008; Carden, Inverse Problems 25, 2009).  Two
    vertices on one line through 0 are then joined by one two-vector solve;
    otherwise the fan triangle from the farthest vertex c that holds 0 gives
    a value on the line through c and 0, beyond 0, and a second solve joins
    it to c.
    """

    def support(phi):
        y = np.linalg.eigh(_hermitized(cmath.exp(-1j * phi) * a))[1][:, -1]
        return y, complex(y.conj() @ a @ y)

    points = {phi: support(phi) for phi in (0.0, 0.5 * math.pi, math.pi, 1.5 * math.pi)}
    for _ in range(SUPPORT_STEPS):
        ring = [points[phi] for phi in sorted(points)]
        near = [y for y, z in ring if abs(z) <= margin]
        if near:
            return near[0]
        zs = [z for _, z in ring]
        out = [q - p for p, q in zip(zs, zs[1:] + zs[:1]) if not _left_of(p, q, margin)]
        if not out:
            return _surrounded_zero(a, ring, margin)
        phi = cmath.phase(-1j * out[0]) % (2.0 * math.pi)  # outward normal of that edge
        if phi in points:
            return None
        points[phi] = support(phi)
        if (cmath.exp(-1j * phi) * points[phi][1]).real < 0.0:
            return None  # 0 lies outside W(a)
    return None


def _surrounded_zero(a: np.ndarray, ring, tol: float):
    """y with y*ay = 0 from support points (y, z) whose polygon holds 0."""
    ys = [y for y, _ in ring]
    zs = [z for _, z in ring]
    for i in range(len(zs)):
        for j in range(i):
            zi, zj = zs[i], zs[j]
            opposite = (zi.conjugate() * zj).real < 0.0
            if opposite and abs(_cross(zi, zj)) <= tol * max(abs(zi), abs(zj)):
                return _two_vector_solve(abs(zi) / zi * a, ys[j], ys[i], False)
    m = len(zs)
    c = int(np.argmax(np.abs(zs)))
    rot = abs(zs[c]) / zs[c]
    for j in range(1, m - 1):
        ia, ib = (c + j) % m, (c + j + 1) % m
        tri = (zs[c], zs[ia], zs[ib])
        if _cross(tri[1] - tri[0], tri[2] - tri[0]) > tol * abs(zs[c]) and all(
            _left_of(tri[i - 1], tri[i], tol) for i in range(3)
        ):
            u = _two_vector_solve(1j * rot * a, ys[ia], ys[ib], True)
            return None if u is None else _two_vector_solve(rot * a, u, ys[c], False)
    return None


def _positive_real_verdict(h1, h2, margin: float) -> ChainVerdict:
    """(b) on W, where every positive real range point -(y*H2y)/(y*H1y) lies.

    The joint range of (H1, H2) is convex, so the points miss the positive
    reals exactly when H1 and H2 are semidefinite of one sign with a
    definite sum.
    """
    k = h1.shape[0]
    w1, v1 = np.linalg.eigh(h1)
    w2, v2 = np.linalg.eigh(h2)
    for sign in (1.0, -1.0):
        if min(sign * w1[0], sign * w1[-1], sign * w2[0], sign * w2[-1]) >= -margin and (
            is_positive_definite(sign * (h1 + h2) - margin * np.eye(k))
        ):
            detail = f"forms of -iJ1, -iJ2 of one sign on W (dim {k}), definite sum"
            return ChainVerdict(True, "exact", detail)
    # an eigenvector of H1 or H2 whose two forms clearly differ in sign gives a point
    for y in np.hstack([v1, v2]).T:
        f1, f2 = (float(np.real(y.conj() @ h @ y)) for h in (h1, h2))
        if f1 * f2 < 0.0 and min(abs(f1), abs(f2)) > margin:
            detail = f"positive real range point {-f2 / f1:.4g} from W (dim {k})"
            return ChainVerdict(False, "exact", detail)
    return ChainVerdict(False, "exact", f"forms of -iJ1, -iJ2 on W (dim {k}) split in sign")


def _kernel_verdicts(pp: PoshPencil) -> tuple:
    """Conditions (a), (b) and (d), decided on W = ker R1 n ker R2.

    A positive real range point or a common isotropic vector annihilates R1
    and R2, so it lies in W.  With B an orthonormal basis of W and
    H_k = B*(-iJ_k)B, (b) is a sign test on H1 and H2, and (d) holds
    exactly when 0 is not in the field of values of H1 + iH2: proved by a
    definite rotation, refuted by a witness x = By checked on all four
    coefficients.  For W = {0}, (b) and (d) are left to the implications
    from (a); a close rank gap or a close call on (d) gives None.
    """
    basis, gap = _kernel_with_gap([pp.r1, pp.r2])
    k = basis.shape[1]
    dim = f"dim(ker R1 n ker R2) = {k}"
    if gap < KERNEL_GAP_MIN:
        close = ChainVerdict(None, "none", f"{dim} is a close call, rank gap {gap:.3g}")
        return close, close, close
    if k == 0:
        return ChainVerdict(True, "exact", dim), _OPEN, _OPEN
    h1 = _hermitized(basis.conj().T @ (-1j * pp.j1) @ basis)
    h2 = _hermitized(basis.conj().T @ (-1j * pp.j2) @ basis)
    # roundoff allowances scale with the whole pencil, as its rank decisions do
    mats = (pp.j1, pp.r1, pp.j2, pp.r2)
    scale = max(spectral_norm(m) for m in mats)
    margin = 16.0 * k * EPS * scale
    theta = _definite_rotation(h1 + 1j * h2, margin)
    y = None if theta is not None else _isotropic_vector(h1 + 1j * h2, margin)
    x = None if y is None else basis @ y
    if theta is not None:
        detail = f"Re(exp(i*{theta:.4g})(H1 + iH2)) definite on W (dim {k})"
        d = ChainVerdict(True, "exact", detail)
    elif x is not None and all(
        abs(x.conj() @ m @ x) <= 64.0 * pp.n * EPS * scale for m in mats
    ):
        d = ChainVerdict(False, "exact", f"common isotropic vector in W (dim {k})", witness=x)
    else:
        detail = f"0 within roundoff of the edge of W(H1 + iH2), W of dim {k}"
        d = ChainVerdict(None, "none", detail)
    return ChainVerdict(False, "exact", dim), _positive_real_verdict(h1, h2, margin), d


def nocommon_chain_report(
    pp: PoshPencil,
    structure: KroneckerStructure | None = None,
) -> NocommonChainReport:
    """Evaluate the condition chain (a) through (e) on one pencil.

    (a), (b) and (d) are exact tests on W = ker R1 n ker R2.  (c) has no
    test of its own: it comes from the implications alone, so it is None
    when (b) is false and (d) is true.  (e) reads the Kronecker structure,
    given as structure or computed, and only when that is ambiguous falls
    back to a randomized probe, labelled sampled.  The implications are then
    closed off, with exact evidence overriding sampled evidence.
    """
    notes = []
    real_case = pp.is_real
    a, b, d = _kernel_verdicts(pp)
    c = ChainVerdict(None, "none", "no test of its own; open unless (b) or (d) implies it")

    try:
        if structure is None:
            structure = kronecker_structure(pp.pencil())
        e = ChainVerdict(structure.regular, "exact", "Kronecker structure")
    except RankAmbiguityError as exc:
        e = ChainVerdict(
            probe_regular(pp.pencil()), "sampled", f"rank ambiguity: {exc}"
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
        cur, src = verdicts[idx], verdicts[src_idx]
        detail = f"implied by ({labels[src_idx]})"
        stronger = _EVIDENCE_RANK[src.evidence] > _EVIDENCE_RANK[cur.evidence]
        if cur.value is not None and cur.value != val:
            msg = (
                f"({labels[idx]}) {cur.evidence} verdict {cur.value} overridden: {detail}"
                if stronger
                else f"conflict: ({labels[src_idx]}) implies ({labels[idx]})={val} "
                f"but kept {cur.value}"
            )
            if msg not in notes:
                notes.append(msg)
        if cur.value is None or stronger:
            verdicts[idx] = ChainVerdict(val, src.evidence, detail)
            return True
        return False

    for _ in range(16):
        changed = False
        for i, j in implications:
            changed |= verdicts[i].value is True and force(j, True, i)
            changed |= verdicts[j].value is False and force(i, False, j)
        if not changed:
            break
    return NocommonChainReport(*verdicts, real_case=real_case, notes=tuple(notes))
