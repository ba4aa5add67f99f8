"""Matrix polynomials with PSD Hermitian coefficients.

Provides the structured linearizations that turn such polynomials into
pencils whose coefficients have PSD Hermitian parts (odd degree, even
degree with invertible constant term, and a dedicated cubic form), the
resulting index bound, and stability certificates for cubics, including
the family lambda^3 I + a lambda^2 I + b lambda T + c T.
"""

from dataclasses import dataclass, field

import numpy as np

from .core import (
    PoshPencil,
    as_complex_matrix,
    hermitian_part,
    is_positive_definite,
    quadratic_forms,
    require_psd,
    spectral_norm,
    structured_part,
)
from .errors import (
    DimensionError,
    InputFormatError,
    PoshValidationError,
    PreconditionError,
)
from .kcf import kronecker_structure
from .numrange import definiteness_threshold, pacman_regions


@dataclass(frozen=True)
class MatrixPolynomial:
    """Coefficients A0..Ad in ascending powers, all square of one size."""

    coefficients: tuple

    def __post_init__(self):
        mats = tuple(
            as_complex_matrix(a, f"coefficient {k}", square=True)
            for k, a in enumerate(self.coefficients)
        )
        if len(mats) < 2:
            raise InputFormatError("a polynomial needs degree at least 1")
        n = mats[0].shape[0]
        for k, m in enumerate(mats):
            if m.shape[0] != n:
                raise DimensionError(
                    f"coefficient {k} has size {m.shape[0]}, expected {n}"
                )
            m.setflags(write=False)
        object.__setattr__(self, "coefficients", mats)

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    @property
    def n(self) -> int:
        return self.coefficients[0].shape[0]

    def value_at(self, z: complex) -> np.ndarray:
        acc = np.zeros_like(self.coefficients[0])
        for a in reversed(self.coefficients):
            acc = z * acc + a
        return acc


def psd_validated(p: MatrixPolynomial) -> MatrixPolynomial:
    """Project coefficients to their Hermitian parts and check PSD.

    Small non-Hermitian drift is projected away by structured_part; larger
    drift or an indefinite coefficient is rejected.
    """
    fixed = []
    for k, a in enumerate(p.coefficients):
        herm = structured_part(a, f"coefficient {k}")
        require_psd(f"coefficient {k}", herm)
        fixed.append(herm)
    return MatrixPolynomial(tuple(fixed))


def _assemble(n: int, d: int, blocks: dict) -> np.ndarray:
    m = np.zeros((d * n, d * n), dtype=np.complex128)
    for (i, j), val in blocks.items():
        m[(i - 1) * n : i * n, (j - 1) * n : j * n] = val
    return m


def linearize_odd(p: MatrixPolynomial) -> PoshPencil:
    """Structured linearization for odd degree d = 2*delta - 1.

    The lead carries the odd coefficients on alternating diagonal blocks
    with a skew identity coupling; the constant term carries the even
    coefficients.  The determinant of the pencil reproduces det P exactly,
    so it is a strong linearization.
    """
    p = psd_validated(p)
    d = p.degree
    if d % 2 == 0:
        raise PreconditionError("degree is even; use linearize_even")
    n = p.n
    delta = (d + 1) // 2
    eye = np.eye(n, dtype=np.complex128)
    a = p.coefficients

    j1 = {}
    r1 = {}
    for j in range(1, delta):
        j1[(2 * j - 1, 2 * j)] = eye
        j1[(2 * j, 2 * j - 1)] = -eye
    for k in range(1, delta + 1):
        r1[(2 * k - 1, 2 * k - 1)] = a[2 * k - 1]

    j2 = {}
    r2 = {}
    for j in range(1, delta):
        j2[(2 * j, 2 * j + 1)] = -eye
        j2[(2 * j + 1, 2 * j)] = eye
    for k in range(1, delta + 1):
        r2[(2 * k - 1, 2 * k - 1)] = a[2 * k - 2]

    return PoshPencil(
        _assemble(n, d, j1),
        _assemble(n, d, r1),
        _assemble(n, d, j2),
        _assemble(n, d, r2),
    )


def linearize_even(p: MatrixPolynomial) -> PoshPencil:
    """Structured linearization for even degree, requiring A0 invertible.

    The top left block of the lead is the explicit inverse of A0; the
    remaining diagonal carries the even coefficients and the constant term
    the odd ones.
    """
    p = psd_validated(p)
    d = p.degree
    if d % 2 == 1:
        raise PreconditionError("degree is odd; use linearize_odd")
    n = p.n
    delta = d // 2
    a = p.coefficients
    if not is_positive_definite(a[0]):
        raise PreconditionError(
            "the constant coefficient must be positive definite for the even form"
        )
    a0_inv = hermitian_part(np.linalg.inv(a[0]))
    eye = np.eye(n, dtype=np.complex128)

    j1 = {}
    r1 = {(1, 1): a0_inv}
    for j in range(1, delta):
        j1[(2 * j, 2 * j + 1)] = -eye
        j1[(2 * j + 1, 2 * j)] = eye
    for k in range(1, delta + 1):
        r1[(2 * k, 2 * k)] = a[2 * k]

    j2 = {}
    r2 = {}
    for j in range(1, delta + 1):
        j2[(2 * j - 1, 2 * j)] = eye
        j2[(2 * j, 2 * j - 1)] = -eye
    for k in range(1, delta + 1):
        r2[(2 * k, 2 * k)] = a[2 * k - 1]

    return PoshPencil(
        _assemble(n, d, j1),
        _assemble(n, d, r1),
        _assemble(n, d, j2),
        _assemble(n, d, r2),
    )


def linearize_cubic(p: MatrixPolynomial) -> PoshPencil:
    """Cubic linearization whose blocks are exactly the coefficients.

    Requires A0 and A3 positive definite.  The skew part of the lead
    couples A3, its Hermitian part carries A2 and A0; the constant term
    couples A0 with A1 and A3 on the diagonal.
    """
    p = psd_validated(p)
    if p.degree != 3:
        raise PreconditionError("this form is specific to degree 3")
    n = p.n
    a0, a1, a2, a3 = p.coefficients
    for name, mat in (("constant", a0), ("leading", a3)):
        if not is_positive_definite(mat):
            raise PreconditionError(f"the {name} coefficient must be positive definite")
    z = np.zeros((n, n), dtype=np.complex128)
    j1 = np.block([[z, -a3, z], [a3, z, z], [z, z, z]])
    r1 = np.block([[z, z, z], [z, a2, z], [z, z, a0]])
    j2 = np.block([[z, z, z], [z, z, a0], [z, -a0, z]])
    r2 = np.block([[a3, z, z], [z, a1, z], [z, z, z]])
    return PoshPencil(j1, r1, j2, r2)


def _default_linearization(p: MatrixPolynomial) -> PoshPencil:
    return linearize_odd(p) if p.degree % 2 == 1 else linearize_even(p)


def polynomial_index(p: MatrixPolynomial) -> tuple:
    """(computed index, degree bound); the index never exceeds the degree."""
    pp = _default_linearization(p)
    ks = kronecker_structure(pp.pencil())
    if ks.index > p.degree:
        raise PreconditionError(
            f"computed index {ks.index} exceeds the degree bound {p.degree}; "
            "the extraction is not trustworthy here"
        )
    return (ks.index, p.degree)


@dataclass(frozen=True)
class CubicStabilityReport:
    """Certificate data for a degree-3 polynomial.

    conclusion is lhp_certified when the hypotheses and the coefficient
    comparisons hold, region_excluded_only when only the pacman exclusion
    is available, inconclusive otherwise.
    """

    beta_star: float | None
    pos2_holds: bool
    hypotheses_hold: bool
    conclusion: str
    excluded_regions: tuple = field(default_factory=tuple)

    def __post_init__(self):
        if self.conclusion == "lhp_certified" and not (
            self.hypotheses_hold and self.pos2_holds
        ):
            raise PreconditionError("certified without hypotheses and comparisons")
        if self.beta_star is not None and not self.hypotheses_hold:
            raise PreconditionError("beta_star defined without hypotheses")


def cubic_stability(p: MatrixPolynomial) -> CubicStabilityReport:
    """Stability certificate for cubics with PSD Hermitian coefficients.

    Hypotheses: A3, A2, A0 positive definite, A1 PSD, A2+A1 positive
    definite.  beta_star is the definiteness threshold of the coupled
    2n x 2n block matrix; the excluded region is the symmetric pacman with
    parameter beta_star.  Certification additionally needs A2 >= A3 and
    A1 >= A0 in the PSD order.
    """
    p = psd_validated(p)
    if p.degree != 3:
        raise PreconditionError("cubic certificate needs degree 3")
    a0, a1, a2, a3 = p.coefficients
    hypotheses = (
        is_positive_definite(a3)
        and is_positive_definite(a2)
        and is_positive_definite(a0)
        and is_positive_definite(a2 + a1)
    )
    if not hypotheses:
        return CubicStabilityReport(None, False, False, "inconclusive")
    n = p.n
    z = np.zeros((n, n), dtype=np.complex128)
    h0 = np.block([[a3, z], [z, a1 + a2]])
    h1 = np.block([[z, -1j * a3], [1j * a3, z]])
    beta_star = definiteness_threshold(h0, h1)
    try:
        for name, d in (("a2 - a3", a2 - a3), ("a1 - a0", a1 - a0)):
            require_psd(name, d)
        pos2 = True
    except PoshValidationError:
        pos2 = False
    conclusion = "lhp_certified" if pos2 else "region_excluded_only"
    return CubicStabilityReport(beta_star, pos2, True, conclusion, pacman_regions(beta_star, beta_star))


def mgt_stability(a: float, b: float, c: float, t) -> str:
    """Certificate for lambda^3 I + a lambda^2 I + b lambda T + c T.

    Returns lhp_certified when a > 1 and b > c strictly, else
    inconclusive.  Never claims instability.
    """
    a, b, c = float(a), float(b), float(c)
    if not (a > 0.0 and b > 0.0 and c > 0.0):
        raise PreconditionError("the scalar parameters must be positive")
    herm = structured_part(t, "t")
    if not is_positive_definite(herm):
        raise PreconditionError("t must be positive definite")
    return "lhp_certified" if (a > 1.0 and b > c) else "inconclusive"


def mgt_polynomial(a: float, b: float, c: float, t) -> MatrixPolynomial:
    """The cubic lambda^3 I + a lambda^2 I + b lambda T + c T as data."""
    t = hermitian_part(as_complex_matrix(t, "t", square=True))
    n = t.shape[0]
    eye = np.eye(n, dtype=np.complex128)
    return MatrixPolynomial((float(c) * t, float(b) * t, float(a) * eye, eye))


def sample_rayleigh_roots(
    p: MatrixPolynomial, n_samples: int, seed: int = 0
) -> list:
    """Roots of the scalar polynomials x* P(lambda) x at random unit x.

    Every returned value is a numerical-range point of the polynomial.
    Directions whose scalar polynomial degenerates to zero are skipped.
    Roots come by sample, each sample's in np.roots order.
    """
    n = p.n
    rng = np.random.default_rng(seed)
    scale = max(spectral_norm(a) for a in p.coefficients)
    if scale == 0.0 or n_samples <= 0:
        return []
    # per sample: n real parts, then n imaginary parts
    g = rng.standard_normal((int(n_samples), 2, n))
    X = g[:, 0] + 1j * g[:, 1]
    X /= np.linalg.norm(X, axis=1)[:, None]
    coeffs = np.stack([quadratic_forms(X, a).real for a in p.coefficients], axis=1)
    coeffs = coeffs[~np.all(np.abs(coeffs) <= 1e-14 * scale, axis=1)]
    return _batched_roots(coeffs[:, ::-1]).tolist()


def _batched_roots(polys: np.ndarray) -> np.ndarray:
    """np.roots of every row of polys (descending powers), concatenated.

    Rows are grouped by their counts of zero leading and trailing
    coefficients; each group takes one eigvals call on np.roots' companion
    matrices, and a row's trailing zeros give zero roots after the others.
    """
    count, width = polys.shape
    nonzero = polys != 0.0
    lead = np.argmax(nonzero, axis=1)
    trail = np.argmax(nonzero[:, ::-1], axis=1)
    out = np.zeros((count, width - 1), dtype=np.complex128)
    for lo, hi in np.unique(np.stack([lead, trail], axis=1), axis=0):
        rows = np.nonzero((lead == lo) & (trail == hi))[0]
        core = polys[rows, lo : width - hi]
        m = core.shape[1] - 1
        if m > 0:
            companion = np.zeros((rows.size, m, m))
            companion[:, np.arange(1, m), np.arange(m - 1)] = 1.0
            companion[:, 0, :] = -core[:, 1:] / core[:, :1]
            out[rows, :m] = np.linalg.eigvals(companion)
    # row k holds width - 1 - lead[k] roots: the eigenvalues, then the zeros
    return out[np.arange(out.shape[1]) < (width - 1 - lead)[:, None]]
