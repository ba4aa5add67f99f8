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
    PLUS,
    Pencil,
    PoshPencil,
    probe_regular,
    quadratic_forms,
    smallest_hermitian_eigenvalue,
    spectral_norm,
)
from .errors import PreconditionError, RankAmbiguityError
from .kcf import kronecker_structure
from .numrange import _kernel_verdicts, common_kernel

QUADFORM_TOL = 1e-10
KRONECKER_SIZE_CAP = 64
# relative size below which eejjx_by_spectral treats a form or a J product as zero
SPECTRAL_RELATIVE_TOL = 1e-12
# sector_membership: points within SECTOR_ZERO_RADIUS of the origin never
# violate, and the angle test gives SECTOR_ANGLE_TOL radians of slack.
SECTOR_ANGLE_TOL = 1e-6
SECTOR_ZERO_RADIUS = 1e-8


def eejjx_value(pp: PoshPencil, x) -> float:
    """Value of the quadratic-form condition at x; positive means violated."""
    vec = np.asarray(x, dtype=np.complex128).reshape(-1)
    q1 = complex(vec.conj() @ pp.r1 @ vec)
    q2 = complex(vec.conj() @ pp.r2 @ vec)
    w1 = complex(vec.conj() @ pp.j1 @ vec)
    w2 = complex(vec.conj() @ pp.j2 @ vec)
    return float((-q1 * q2 + w1 * w2).real)


def eejjx_by_norms(pp: PoshPencil) -> bool:
    """lambda_min(R1)*lambda_min(R2) >= ||J1||*||J2|| forces the condition."""
    lhs = smallest_hermitian_eigenvalue(pp.r1) * smallest_hermitian_eigenvalue(pp.r2)
    return lhs >= spectral_norm(pp.j1) * spectral_norm(pp.j2)


def _symmetric_kronecker_form(pp: PoshPencil) -> np.ndarray:
    """J1 (x) J2 - R1 (x) R2 compressed onto the symmetric subspace.

    Row and column p = (i, j), i <= j, stand for the orthonormal basis
    vector e_i (x) e_i when i == j and (e_i (x) e_j + e_j (x) e_i)/sqrt(2)
    otherwise.  The entries are read off the coefficients, so neither the
    n^2 x n^2 product nor the isometry onto the subspace is formed.
    """
    i, j = np.triu_indices(pp.n)
    ii, jj, ij, ji = np.ix_(i, i), np.ix_(j, j), np.ix_(i, j), np.ix_(j, i)

    def compressed(a, b):
        # (e_i e_j + e_j e_i)* (A (x) B) (e_k e_l + e_l e_k) as two pairs of
        # terms that swap into each other under conjugate transposition, so
        # the sum is exactly Hermitian for exactly structured coefficients
        out = a[ii] * b[jj]
        out += a[jj] * b[ii]
        cross = a[ij] * b[ji]
        cross += a[ji] * b[ij]
        out += cross
        return out

    form = compressed(pp.j1, pp.j2)
    form -= compressed(pp.r1, pp.r2)
    scale = np.where(i == j, 0.5, math.sqrt(0.5))
    form *= np.outer(scale, scale)
    return form


def eejjx_by_kronecker(pp: PoshPencil) -> bool:
    """Largest eigenvalue test on J1 (x) J2 - R1 (x) R2 on the symmetric subspace.

    The quadratic form equals (x (x) x)* K (x (x) x) with this Hermitian K,
    and x (x) x lies in the symmetric subspace, of dimension n(n+1)/2; K
    negative semidefinite there is sufficient.  It is implied by K negative
    semidefinite on the whole space, so this proves at least as much.
    """
    if pp.n > KRONECKER_SIZE_CAP:
        raise PreconditionError(
            f"Kronecker prover capped at size {KRONECKER_SIZE_CAP}; "
            "use eejjx_by_norms or eejjx_falsify"
        )
    if pp.n == 0:
        return True
    w = np.linalg.eigvalsh(_symmetric_kronecker_form(pp))
    scale = max(abs(float(w[0])), abs(float(w[-1])))
    return float(w[-1]) <= 64.0 * EPS * scale


def _forms_share_sign(k1, k2, n1: float, n2: float) -> bool:
    """True when the Hermitian forms x*K1x and x*K2x never take opposite signs.

    n1 and n2 are the spectral norms of K1 and K2.  The forms share a sign
    exactly when both are positive semidefinite, both are negative
    semidefinite, or one is a nonnegative multiple of the other, each up
    to SPECTRAL_RELATIVE_TOL.
    """
    if n1 == 0.0 or n2 == 0.0:
        return True
    w1 = np.linalg.eigvalsh((k1 + k1.conj().T) / 2.0)
    w2 = np.linalg.eigvalsh((k2 + k2.conj().T) / 2.0)
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
    k1 = (-1j) * pp.j1
    k2 = (-1j) * pp.j2
    n1 = spectral_norm(k1)
    n2 = spectral_norm(k2)
    # a negligible J product cannot push the form past the falsifier scale
    if n1 * n2 <= SPECTRAL_RELATIVE_TOL * spectral_norm(pp.r1) * spectral_norm(pp.r2):
        return True
    return _forms_share_sign(k1, k2, n1, n2)


def _eejjx_threshold(pp: PoshPencil) -> float:
    return QUADFORM_TOL * max(
        spectral_norm(pp.r1) * spectral_norm(pp.r2),
        spectral_norm(pp.j1) * spectral_norm(pp.j2),
    )


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
        q1 = np.real(quadratic_forms(X, pp.r1))
        q2 = np.real(quadratic_forms(X, pp.r2))
        w1 = quadratic_forms(X, pp.j1)
        w2 = quadratic_forms(X, pp.j2)
        vals = -q1 * q2 + np.real(w1 * w2)
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


def eejjx_real_form(pp: PoshPencil, budget: int = 2000, seed: int = 0):
    """Falsifier for real data, returning the witness as a real pair (xi, eta).

    For real coefficients, x = xi + i*eta turns the condition's value into
    -4*(xi'J1 eta)*(xi'J2 eta) - (xi'R1 xi + eta'R1 eta)*(xi'R2 xi + eta'R2 eta),
    so a search over real pairs on the unit sphere is the complex search of
    eejjx_falsify, which runs it.
    """
    if not pp.is_real:
        raise PreconditionError("real-form falsifier needs real matrices")
    x = eejjx_falsify(pp, budget, seed)
    return None if x is None else (x.real.copy(), x.imag.copy())


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


def lhp_certificate(
    pp: PoshPencil,
    falsify_budget: int = 2000,
    seed: int = 0,
) -> LhpCertificate:
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

    kernels, _, isotropic = _kernel_verdicts(pp)
    if kernels.value is True or isotropic.value is True:
        notes.append(
            "trivial intersection of ker R1 and ker R2"
            if kernels.value is True
            else f"no common isotropic vector: {isotropic.detail}"
        )
        return LhpCertificate(
            status, "no_isotropic", "numrange_in_lhp", "exact", None, tuple(notes)
        )

    p = pp.pencil()
    p_regular = probe_regular(p)
    if p_regular:
        notes.append("regularity of the pencil established by randomized probe")
        try:
            ks = kronecker_structure(Pencil(pp.j1, pp.j2, PLUS))
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
        k1, k2 = (-1j) * pp.j1, (-1j) * pp.j2
        if _forms_share_sign(k1, k2, spectral_norm(k1), spectral_norm(k2)):
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


def _pencil_regular(lead, const) -> bool:
    p = Pencil(lead, const, PLUS)
    try:
        return kronecker_structure(p).regular
    except RankAmbiguityError:
        return probe_regular(p)


def _positive_real_eigenpairs(pp: PoshPencil):
    """Finite eigenpairs of the pencil with eigenvalue on the positive axis."""
    lead = pp.j1 + pp.r1
    const = pp.j2 + pp.r2
    n = pp.n
    if n == 0:
        return []
    vals, vecs = scipy.linalg.eig(-const, lead)
    pairs = []
    for k in range(n):
        lam = complex(vals[k])
        if not np.isfinite(lam.real) or not np.isfinite(lam.imag):
            continue
        reach = AXIS_TOL * (1.0 + abs(lam))
        if lam.real > reach and abs(lam.imag) <= reach:
            pairs.append((lam.real, vecs[:, k]))
    return pairs


def regularity_conditions_report(pp: PoshPencil) -> RegularityConditionsReport:
    """Evaluate the five regularity implications on one pencil.

    Hypotheses are regularity statements about the four half pencils;
    conclusions are re-verified on the instance where computable
    (verified None means the hypothesis does not apply or the check was
    not computable).
    """
    p_regular = _pencil_regular(pp.j1 + pp.r1, pp.j2 + pp.r2)
    rr = _pencil_regular(pp.r1, pp.r2)
    jj = _pencil_regular(pp.j1, pp.j2)
    r1j2 = _pencil_regular(pp.r1, pp.j2)
    r2j1 = _pencil_regular(pp.r2, pp.j1)
    scale = max(
        spectral_norm(pp.j1) + spectral_norm(pp.j2),
        spectral_norm(pp.r1) + spectral_norm(pp.r2),
        1.0,
    )
    items = []

    if not p_regular:
        k1 = common_kernel([pp.j1, pp.r1, pp.r2]).shape[1]
        k2 = common_kernel([pp.j2, pp.r1, pp.r2]).shape[1]
        items.append(
            CorollaryItem(
                "i",
                True,
                k1 > 0 and k2 > 0,
                f"common kernel dimensions {k1} and {k2} for the two triples",
            )
        )
    else:
        items.append(CorollaryItem("i", False, None, "pencil is regular"))

    pos_pairs = _positive_real_eigenpairs(pp) if p_regular else []

    if rr:
        ok = p_regular and not pos_pairs
        detail = (
            "regular with no positive real eigenvalues"
            if ok
            else "conclusion failed: "
            + ("pencil singular" if not p_regular else f"{len(pos_pairs)} positive real eigenvalues")
        )
        items.append(CorollaryItem("ii", True, ok, detail))
    else:
        items.append(CorollaryItem("ii", False, None, "lambda*R1+R2 singular"))

    if jj:
        if not p_regular:
            items.append(CorollaryItem("iii", True, False, "pencil singular"))
        else:
            ok = True
            worst = 0.0
            for alpha, _ in pos_pairs:
                m = alpha * pp.j1 + pp.j2
                sv = np.linalg.svd(m, compute_uv=False)
                resid = float(sv[-1]) / (scale * (1.0 + alpha))
                worst = max(worst, resid)
                if resid > AXIS_TOL:
                    ok = False
            items.append(
                CorollaryItem(
                    "iii",
                    True,
                    ok,
                    f"{len(pos_pairs)} positive real eigenvalues, "
                    f"worst relative sigma_min {worst:.3g}",
                )
            )
    else:
        items.append(CorollaryItem("iii", False, None, "lambda*J1+J2 singular"))

    for label, hyp, hyp_name in (("iv", r1j2, "lambda*R1+J2"), ("v", r2j1, "lambda*R2+J1")):
        if not hyp:
            items.append(CorollaryItem(label, False, None, f"{hyp_name} singular"))
            continue
        if not p_regular:
            items.append(CorollaryItem(label, True, False, "pencil singular"))
            continue
        ok = True
        worst = 0.0
        for alpha, x in pos_pairs:
            resid = float(
                np.linalg.norm((alpha * pp.j1 + pp.j2) @ x)
            ) / (scale * (1.0 + alpha) * float(np.linalg.norm(x)))
            worst = max(worst, resid)
            if resid > AXIS_TOL:
                ok = False
        items.append(
            CorollaryItem(
                label,
                True,
                ok,
                f"{len(pos_pairs)} positive real eigenpairs, worst residual {worst:.3g}",
            )
        )

    return RegularityConditionsReport(
        p_regular=p_regular,
        rr_regular=rr,
        jj_regular=jj,
        r1j2_regular=r1j2,
        r2j1_regular=r2j1,
        items=tuple(items),
    )
