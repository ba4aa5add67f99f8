"""Left-half-plane certificates and spectral localization.

The key inequality for a pencil lambda*(J1+R1)+(J2+R2) is

    -(x*R1x)(x*R2x) + (x*J1x)(x*J2x) <= 0   for all x,

abbreviated here as the quadratic-form condition.  Three provers give
sufficient criteria (norms; the Kronecker product J1 (x) J2 - R1 (x) R2,
tested on the symmetric subspace that holds every x (x) x; the sign
structure of the forms behind J1 and J2); a randomized falsifier searches
for violating vectors, first at random unit vectors and then by gradient
ascent.  The certificate pipeline runs the norm prover, then the random
phase as a gate in front of the two expensive provers, and the ascent
only when every prover fails.  When the condition is established, one of
three exact hypothesis routes upgrades it to a localization of the
numerical range or of the eigenvalues in the closed left half plane.
"""

import functools
import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .core import (
    AXIS_TOL,
    EPS,
    PoshPencil,
    hermitian_part,
    psd_spectrum,
    quadratic_forms,
    spectral_norm,
)
from .errors import PreconditionError, RankAmbiguityError
from .kcf import kronecker_structure
from .numrange import common_kernel, kernel_verdicts

QUADFORM_TOL = 1e-10
KRONECKER_SIZE_CAP = 64
# eejjx_by_kronecker proves K <= 0 by a Cholesky of delta*I - K, with delta
# this multiple of ||K||_inf
KRONECKER_SHIFT = 64.0 * EPS
# complex entries per row block of the Kronecker prover's assembly and norm
_BLOCK_ENTRIES = 1 << 15
# relative size below which eejjx_by_spectral treats a form or a J product as zero
SPECTRAL_RELATIVE_TOL = 1e-12
# sector_membership: points within SECTOR_ZERO_RADIUS of the origin never
# violate, and the angle test gives SECTOR_ANGLE_TOL radians of slack.
SECTOR_ANGLE_TOL = 1e-6
SECTOR_ZERO_RADIUS = 1e-8


def _eejjx_values(pp: PoshPencil, X: np.ndarray) -> np.ndarray:
    """Values of the quadratic-form condition at every row of X."""
    q1 = np.real(quadratic_forms(X, pp.r1))
    q2 = np.real(quadratic_forms(X, pp.r2))
    w1 = quadratic_forms(X, pp.j1)
    w2 = quadratic_forms(X, pp.j2)
    return -q1 * q2 + np.real(w1 * w2)


def eejjx_value(pp: PoshPencil, x) -> float:
    """Value of the quadratic-form condition at x; positive means violated."""
    vec = np.asarray(x, dtype=np.complex128).reshape(1, -1)
    return float(_eejjx_values(pp, vec)[0])


def eejjx_by_norms(pp: PoshPencil) -> bool:
    """lambda_min(R1)*lambda_min(R2) >= ||J1||*||J2|| forces the condition."""
    lhs = psd_spectrum(pp.r1)[0] * psd_spectrum(pp.r2)[0]
    return lhs >= pp.norm("j1") * pp.norm("j2")


def _symmetric_kronecker_form(pp: PoshPencil) -> np.ndarray:
    """J1 (x) J2 - R1 (x) R2 compressed onto the symmetric subspace.

    Row and column p = (i, j), i <= j, stand for the orthonormal basis
    vector e_i (x) e_i when i == j and (e_i (x) e_j + e_j (x) e_i)/sqrt(2)
    otherwise.  The entries are read off the coefficients, so neither the
    n^2 x n^2 product nor the isometry onto the subspace is formed.  Up to
    the basis scales, row p of the compressed A (x) B holds Y[k, l] + Y[l, k]
    at column q = (k, l), with Y = outer(A[i], B[j]) + outer(A[j], B[i]).
    Each row's J1 (x) J2 and R1 (x) R2 terms come from one rank-4 product,
    batched over blocks of rows, so the output is the only n(n+1)/2-square
    array allocated.  eejjx_by_kronecker accepts when the Cholesky of
    delta*I minus this form succeeds.
    """
    n = pp.n
    i, j = np.triu_indices(n)
    scale = np.where(i == j, 0.5, math.sqrt(0.5))
    # left[i] has columns J1[i], R1[i]; right[j] has rows J2[j], -R2[j]
    left = np.stack((pp.j1, pp.r1), axis=2)
    right = np.stack((pp.j2, -pp.r2), axis=1)
    ij, ji = i * n + j, j * n + i
    form = np.empty((i.size, i.size), dtype=np.complex128)
    step = max(1, _BLOCK_ENTRIES // max(1, n * n))
    for start in range(0, i.size, step):
        bi, bj = i[start : start + step], j[start : start + step]
        y = np.matmul(
            np.concatenate((left[bi], left[bj]), axis=2),
            np.concatenate((right[bj], right[bi]), axis=1),
        ).reshape(bi.size, n * n)
        rows = form[start : start + step]
        np.take(y, ij, axis=1, out=rows)
        rows += np.take(y, ji, axis=1)
        rows *= scale[start : start + step, None]
        rows *= scale
    return form


def eejjx_by_kronecker(pp: PoshPencil) -> bool:
    """J1 (x) J2 - R1 (x) R2 negative semidefinite on the symmetric subspace.

    The quadratic form equals (x (x) x)* K (x (x) x) with this Hermitian K,
    and x (x) x lies in the symmetric subspace, of dimension n(n+1)/2; K
    negative semidefinite there is sufficient.  It is implied by K negative
    semidefinite on the whole space, so this proves at least as much.

    Accepts when K is zero, or when the Cholesky factorization of
    delta*I - K succeeds, with delta = KRONECKER_SHIFT*||K||_inf = 64*eps
    times the largest absolute row sum, an upper bound on max|eig(K)|; no
    eigensolver runs.
    """
    if pp.n > KRONECKER_SIZE_CAP:
        raise PreconditionError(
            f"Kronecker prover capped at size {KRONECKER_SIZE_CAP}; "
            "use eejjx_by_norms or eejjx_falsify"
        )
    if pp.n == 0:
        return True
    form = _symmetric_kronecker_form(pp)
    m = form.shape[0]
    step = max(1, _BLOCK_ENTRIES // m)
    norm = max(
        float(np.abs(form[start : start + step]).sum(axis=1).max())
        for start in range(0, m, step)
    )
    if norm == 0.0:
        return True
    # delta*I - K in place; its transpose is Fortran-ordered, so LAPACK
    # factors it without a copy, and as the conjugate of a Hermitian matrix
    # it is positive definite exactly when delta*I - K is
    form *= -1.0
    form.reshape(-1)[:: m + 1] += KRONECKER_SHIFT * norm
    _, info = scipy.linalg.lapack.zpotrf(form.T, lower=0, overwrite_a=1, clean=0)
    return info == 0


def _forms_share_sign(pp: PoshPencil) -> bool:
    """True when the forms x*K1x and x*K2x, K_k = -iJ_k, never take opposite signs.

    The forms share a sign exactly when both are positive semidefinite,
    both are negative semidefinite, or one is a nonnegative multiple of the
    other, each up to SPECTRAL_RELATIVE_TOL times the norms of the J's.
    """
    n1, n2 = pp.norm("j1"), pp.norm("j2")
    if n1 == 0.0 or n2 == 0.0:
        return True
    k1, k2 = (-1j) * pp.j1, (-1j) * pp.j2
    w1 = np.linalg.eigvalsh(hermitian_part(k1))
    w2 = np.linalg.eigvalsh(hermitian_part(k2))
    lo1, hi1 = float(w1[0]), float(w1[-1])
    lo2, hi2 = float(w2[0]), float(w2[-1])
    if lo1 >= -SPECTRAL_RELATIVE_TOL * n1 and lo2 >= -SPECTRAL_RELATIVE_TOL * n2:
        return True
    if hi1 <= SPECTRAL_RELATIVE_TOL * n1 and hi2 <= SPECTRAL_RELATIVE_TOL * n2:
        return True
    # proportionality k2 = c*k1 (or the reverse) with c >= 0
    for a, b, nb in ((k1, k2, n2), (k2, k1, n1)):
        denom = float(np.real(np.vdot(a, a)))
        if denom == 0.0:
            continue
        c = float(np.real(np.vdot(a, b))) / denom
        if c >= 0.0 and spectral_norm(b - c * a) <= SPECTRAL_RELATIVE_TOL * nb:
            return True
    return False


def eejjx_by_spectral(pp: PoshPencil) -> bool:
    """Pointwise sign test on the Hermitian forms behind J1 and J2.

    True when x*J1x * x*J2x <= 0 for every x, which makes the quadratic-form
    condition hold since the R terms only help.  Writing J_k = i*K_k with
    K_k Hermitian, the product condition says the real forms x*K1x and
    x*K2x never take opposite signs, which _forms_share_sign decides;
    eigenvalue conditions on lambda*J1 + J2 alone do not decide it, because
    an indefinite K1 paired with a non-proportional K2 admits sign-splitting
    vectors even when all pencil eigenvalues are real, nonpositive and
    semisimple.
    """
    if pp.n == 0:
        return True
    # a negligible J product cannot push the form past the falsifier scale
    if pp.norm("j1") * pp.norm("j2") <= SPECTRAL_RELATIVE_TOL * pp.norm("r1") * pp.norm("r2"):
        return True
    return _forms_share_sign(pp)


def _eejjx_threshold(pp: PoshPencil) -> float:
    return QUADFORM_TOL * max(pp.norm("r1") * pp.norm("r2"), pp.norm("j1") * pp.norm("j2"))


def _eejjx_gradient(pp: PoshPencil, vec: np.ndarray) -> np.ndarray:
    q1 = float(np.real(vec.conj() @ pp.r1 @ vec))
    q2 = float(np.real(vec.conj() @ pp.r2 @ vec))
    k1 = -1j * pp.j1
    k2 = -1j * pp.j2
    w1 = float(np.real(vec.conj() @ k1 @ vec))
    w2 = float(np.real(vec.conj() @ k2 @ vec))
    return -2.0 * (
        q2 * (pp.r1 @ vec)
        + q1 * (pp.r2 @ vec)
        + w2 * (k1 @ vec)
        + w1 * (k2 @ vec)
    )


def _random_phase(pp: PoshPencil, budget: int, seed: int):
    """First phase of eejjx_falsify: 80 percent of the budget on random unit vectors.

    Returns (witness, ascend).  witness is the first violating vector or
    None; ascend() runs the second phase, gradient ascent from the best
    candidate on the rest of the budget, and returns its witness or None.
    """
    n = pp.n
    if n == 0 or budget <= 0:
        return None, lambda: None
    threshold = _eejjx_threshold(pp)
    if threshold == 0.0:
        # one factor of each product vanishes identically
        return None, lambda: None
    rng = np.random.default_rng(seed)
    rand_budget = max(1, int(0.8 * budget))
    best_val = -math.inf
    best = None
    chunk = 256
    used = 0
    while used < rand_budget:
        take = min(chunk, rand_budget - used)
        X = rng.standard_normal((take, n)) + 1j * rng.standard_normal((take, n))
        X /= np.linalg.norm(X, axis=1)[:, None]
        vals = _eejjx_values(pp, X)
        over = np.nonzero(vals > threshold)[0]
        if over.size:
            return X[over[0]].copy(), lambda: None
        k = int(np.argmax(vals))
        if vals[k] > best_val:
            best_val = float(vals[k])
            best = X[k].copy()
        used += take
    return None, functools.partial(
        _ascent_phase, pp, best, best_val, budget - rand_budget, threshold
    )


def _ascent_phase(pp: PoshPencil, vec, best_val: float, steps: int, threshold: float):
    step = 0.1
    for _ in range(steps):
        grad = _eejjx_gradient(pp, vec)
        cand = vec + step * grad
        nrm = np.linalg.norm(cand)
        if nrm == 0.0:
            step /= 2.0
            continue
        cand /= nrm
        val = eejjx_value(pp, cand)
        if val > threshold:
            return cand
        if val > best_val:
            best_val = val
            vec = cand
            step = min(step * 1.5, 1.0)
        else:
            step /= 2.0
            if step < 1e-14:
                break
    return None


def eejjx_falsify(pp: PoshPencil, budget: int = 2000, seed: int = 0):
    """Search for a unit vector violating the quadratic-form condition.

    80 percent of the budget goes to random unit vectors, the rest to
    gradient ascent from the best candidate.  Returns the witness vector
    or None; None is inconclusive, not a proof.
    """
    witness, ascend = _random_phase(pp, budget, seed)
    return witness if witness is not None else ascend()


@dataclass(frozen=True)
class LhpCertificate:
    """Outcome of the left-half-plane certification pipeline.

    eejjx_status: proved_by_norms | proved_by_kronecker | proved_by_spectral
        | falsified | unknown.
    hypothesis_route: no_isotropic | skew_numrange_lhp | skew_structure | none.
    conclusion: numrange_in_lhp | eigenvalues_in_lhp | none.
    evidence: exact for a conclusion or a falsified status, none otherwise.
    """

    eejjx_status: str
    hypothesis_route: str
    conclusion: str
    evidence: str
    witness: object = None
    notes: tuple = field(default_factory=tuple)

    def __post_init__(self):
        object.__setattr__(self, "notes", tuple(self.notes))
        proved = self.eejjx_status.startswith("proved_by_")
        if self.conclusion == "numrange_in_lhp":
            if not (proved and self.hypothesis_route in ("no_isotropic", "skew_numrange_lhp")):
                raise PreconditionError("numrange conclusion without a valid route")
        elif self.conclusion == "eigenvalues_in_lhp":
            if not (proved and self.hypothesis_route == "skew_structure"):
                raise PreconditionError("eigenvalue conclusion without a valid route")


def lhp_certificate(pp: PoshPencil, falsify_budget: int = 2000, seed: int = 0) -> LhpCertificate:
    """Run the provers and hypothesis routes on one pencil.

    The cheap norm prover runs first.  The falsifier's random-vector phase
    then gates the expensive provers: a witness there ends the run as
    falsified.  Otherwise the Kronecker prover (on the symmetric subspace)
    and the spectral prover run in that order, and only when both fail does
    the falsifier's gradient-ascent phase run.  A prover's acceptance bounds
    every form value far below the falsifier's threshold, so the outcome is
    that of all provers followed by eejjx_falsify.  A proved condition is
    combined with the first hypothesis route that an exact test
    establishes: no common isotropic vector, condition (d) of
    nocommon_chain_report (numerical range localized); the structure route
    through lambda*J1+J2 (eigenvalues localized); or the skew numerical
    range in the closed left half plane, which holds exactly when the forms
    of -iJ1 and -iJ2 never take opposite signs (numerical range localized).
    The last two routes need a regular pencil.  Regularity is read from
    the Kronecker structure of pp.source(); an extraction that refuses
    leaves the route at none.  Condition (d) is read from kernel_verdicts(pp).
    """
    notes = []
    status = None
    witness = None
    if eejjx_by_norms(pp):
        status = "proved_by_norms"
    else:
        witness, ascend = _random_phase(pp, falsify_budget, seed)
        if witness is None:
            if pp.n <= KRONECKER_SIZE_CAP and eejjx_by_kronecker(pp):
                status = "proved_by_kronecker"
            elif eejjx_by_spectral(pp):
                status = "proved_by_spectral"
            else:
                witness = ascend()
    if status is None:
        if witness is not None:
            notes.append(
                f"violating value {eejjx_value(pp, witness):.3g} at a unit vector"
            )
            return LhpCertificate(
                "falsified", "none", "none", "exact", witness, tuple(notes)
            )
        notes.append("provers inconclusive and no violating vector found")
        return LhpCertificate("unknown", "none", "none", "none", None, tuple(notes))

    kernels, _, isotropic = kernel_verdicts(pp)
    if kernels.value is True or isotropic.value is True:
        notes.append(
            "trivial intersection of ker R1 and ker R2"
            if kernels.value is True
            else f"no common isotropic vector: {isotropic.detail}"
        )
        return LhpCertificate(
            status, "no_isotropic", "numrange_in_lhp", "exact", None, tuple(notes)
        )

    try:
        regular = kronecker_structure(pp.source()).regular
    except RankAmbiguityError as exc:
        regular = False
        notes.append(f"regularity of the pencil undecided: {exc}")
    if regular:
        notes.append("pencil regular by its Kronecker structure")
        try:
            ks = kronecker_structure(pp.half_pencil("j1", "j2"))
        except RankAmbiguityError as exc:
            ks = None
            notes.append(f"skew pencil structure ambiguous: {exc}")
        if ks is not None:
            minimal_zero = not any(ks.right_minimal_indices) and not any(
                ks.left_minimal_indices
            )
            finite_lhp = all(
                lam.real <= AXIS_TOL * (1.0 + abs(lam))
                for lam, _ in ks.finite_eigenstructure
            )
            if minimal_zero and finite_lhp:
                return LhpCertificate(
                    status,
                    "skew_structure",
                    "eigenvalues_in_lhp",
                    "exact",
                    None,
                    tuple(notes),
                )
        if _forms_share_sign(pp):
            notes.append(
                "skew numerical range in the closed left half plane: "
                "the forms of -iJ1 and -iJ2 never take opposite signs"
            )
            return LhpCertificate(
                status, "skew_numrange_lhp", "numrange_in_lhp", "exact", None, tuple(notes)
            )
    notes.append("no hypothesis route established")
    return LhpCertificate(status, "none", "none", "none", None, tuple(notes))


def sector_membership(points, d: int):
    """Points that fall inside the forbidden sector |arg z| < pi/d.

    Points within SECTOR_ZERO_RADIUS of the origin never violate; the angle
    test carries a tolerance of SECTOR_ANGLE_TOL radians.  The violations
    come back as Python complex, in input order.
    """
    d = int(d)
    if d < 1:
        raise PreconditionError("degree must be at least 1")
    z = np.asarray(points, dtype=np.complex128)
    inside = (np.abs(z) > SECTOR_ZERO_RADIUS) & (
        np.abs(np.angle(z)) < math.pi / d - SECTOR_ANGLE_TOL
    )
    return z[inside].tolist()


@dataclass(frozen=True)
class CorollaryItem:
    """One implication: does its hypothesis hold, and was the conclusion seen."""

    label: str
    hypothesis: bool
    verified: bool | None
    detail: str


@dataclass(frozen=True)
class RegularityConditionsReport:
    p_regular: bool
    rr_regular: bool
    jj_regular: bool
    r1j2_regular: bool
    r2j1_regular: bool
    items: tuple


def _positive_real_eigenpairs(pp: PoshPencil):
    """Finite eigenpairs of the pencil with eigenvalue on the positive axis.

    The eigenvalues are read from the kept Kronecker structure of pp.source().
    Each comes with one null vector of lam*(J1+R1) + (J2+R2) per Jordan
    block, all taken from one SVD.
    """
    pairs = []
    for lam, mults in kronecker_structure(pp.source()).finite_eigenstructure:
        reach = AXIS_TOL * (1.0 + abs(lam))
        if lam.real > reach and abs(lam.imag) <= reach:
            _, _, vh = np.linalg.svd(pp.pencil().value_at(lam.real))
            pairs.extend((lam.real, x.conj()) for x in vh[-len(mults) :])
    return pairs


def regularity_conditions_report(pp: PoshPencil) -> RegularityConditionsReport:
    """Evaluate the five regularity implications on one pencil.

    Hypotheses are regularity statements about the four half pencils;
    conclusions are re-verified on the instance where computable
    (verified None means the hypothesis does not apply or the check was
    not computable).  Every regularity is read from a kept Kronecker
    structure, so an ambiguous rank decision raises RankAmbiguityError.
    """
    p_regular = kronecker_structure(pp.source()).regular
    rr, jj, r1j2, r2j1 = (
        kronecker_structure(pp.half_pencil(lead, const)).regular
        for lead, const in (("r1", "r2"), ("j1", "j2"), ("r1", "j2"), ("r2", "j1"))
    )
    if p_regular:
        pairs = _positive_real_eigenpairs(pp)
        count = len(pairs)
        scale = max(pp.norm("j1") + pp.norm("j2"), pp.norm("r1") + pp.norm("r2"), 1.0)
        # one pass for the worst relative sigma_min of (iii) and the worst residual
        # of (iv) and (v); the null vectors x are unit vectors
        sigma = resid = 0.0
        for alpha, x in pairs:
            m = alpha * pp.j1 + pp.j2
            rel = scale * (1.0 + alpha)
            sigma = max(sigma, float(np.linalg.svd(m, compute_uv=False)[-1]) / rel)
            resid = max(resid, float(np.linalg.norm(m @ x)) / rel)
        item_i = CorollaryItem("i", False, None, "pencil is regular")
        # (verified, detail) of each later item, used when its hypothesis holds
        conclusions = {
            "ii": (
                not pairs,
                "regular with no positive real eigenvalues"
                if not pairs
                else f"conclusion failed: {count} positive real eigenvalues",
            ),
            "iii": (
                sigma <= AXIS_TOL,
                f"{count} positive real eigenvalues, worst relative sigma_min {sigma:.3g}",
            ),
            "iv": (resid <= AXIS_TOL, f"{count} positive real eigenpairs, worst residual {resid:.3g}"),
        }
        conclusions["v"] = conclusions["iv"]
    else:
        k1 = common_kernel([pp.j1, pp.r1, pp.r2]).shape[1]
        k2 = common_kernel([pp.j2, pp.r1, pp.r2]).shape[1]
        detail = f"common kernel dimensions {k1} and {k2} for the two triples"
        item_i = CorollaryItem("i", True, k1 > 0 and k2 > 0, detail)
        conclusions = dict.fromkeys(("iii", "iv", "v"), (False, "pencil singular"))
        conclusions["ii"] = (False, "conclusion failed: pencil singular")
    items = [item_i]
    for label, hyp, name in (
        ("ii", rr, "lambda*R1+R2"),
        ("iii", jj, "lambda*J1+J2"),
        ("iv", r1j2, "lambda*R1+J2"),
        ("v", r2j1, "lambda*R2+J1"),
    ):
        if hyp:
            items.append(CorollaryItem(label, True, *conclusions[label]))
        else:
            items.append(CorollaryItem(label, False, None, f"{name} singular"))

    return RegularityConditionsReport(
        p_regular=p_regular,
        rr_regular=rr,
        jj_regular=jj,
        r1j2_regular=r1j2,
        r2j1_regular=r2j1,
        items=tuple(items),
    )
