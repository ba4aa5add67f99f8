"""Pencil containers, coefficient conventions, and Hermitian splitting.

Two conventions coexist: ``plus`` pencils are written as lambda*lead +
constant and carry the structured coefficient splittings, while ``minus``
pencils are written as lambda*lead - constant and feed the canonical-form
machinery. The conversion methods on :class:`Pencil` are the only place a
sign flip happens; everything else works with whichever convention it
declares and converts at the boundary.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import (
    DimensionError,
    PoshValidationError,
    PreconditionError,
    SingularPencilError,
)

EPS = float(np.finfo(np.float64).eps)

# Tolerances that several modules share; the report's tolerances block is
# built from these names.
# z lies on an axis when its other coordinate is at most AXIS_TOL*(1 + |z|).
AXIS_TOL = 1e-8
# Relative departure from exact (skew-)Hermitian structure that is projected
# away rather than rejected.
STRUCTURE_DRIFT_TOL = 1e-10
# A homogeneous eigenvalue (alpha, beta) is infinite when
# |beta| <= INFINITE_EIGENVALUE_TOL*(|alpha| + |beta|).
INFINITE_EIGENVALUE_TOL = 1e-10
# probe_regular evaluates the pencil at this many random points, drawn from
# a fixed seed.
REGULARITY_PROBES = 3

PLUS = "plus"
MINUS = "minus"


class AtInfinity:
    """Tag for the eigenvalue at infinity.

    Compares equal to any other instance and never to a number, so eigenvalue
    lists can be filtered with ``isinstance`` or plain ``==``.
    """

    __slots__ = ()

    def __repr__(self) -> str:
        return "INFINITY"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, AtInfinity)

    def __hash__(self) -> int:
        return hash(AtInfinity)


INFINITY = AtInfinity()


def as_complex_matrix(value, name: str = "matrix", square: bool = False) -> np.ndarray:
    """Coerce to a 2-D complex128 array, rejecting non-finite entries."""
    arr = np.array(value, dtype=np.complex128)
    if arr.ndim != 2:
        raise DimensionError(f"{name} must be 2-dimensional, got shape {arr.shape}")
    if arr.size and not np.all(np.isfinite(arr)):
        raise PreconditionError(f"{name} contains non-finite entries")
    if square and arr.shape[0] != arr.shape[1]:
        raise DimensionError(f"{name} must be square, got shape {arr.shape}")
    return arr


def _frozen(arr: np.ndarray) -> np.ndarray:
    out = arr.copy()
    out.setflags(write=False)
    return out


def spectral_norm(a: np.ndarray) -> float:
    if a.size == 0:
        return 0.0
    return float(np.linalg.norm(a, 2))


def quadratic_forms(X: np.ndarray, a: np.ndarray) -> np.ndarray:
    """x_k* a x_k for every row x_k of X, through one BLAS product.

    A three-operand einsum would skip BLAS.  The product a x_k is the only
    N x n temporary: it is conjugated in place and x_k* a x_k taken as
    conj(x_k^T conj(a x_k)), which gives the same bits as conj(x_k)^T a x_k.
    """
    y = X @ a.T
    np.conjugate(y, out=y)
    return np.einsum("ni,ni->n", X, y).conj()


def smallest_hermitian_eigenvalue(h: np.ndarray) -> float:
    """Smallest eigenvalue of a Hermitian matrix (0.0 for the empty matrix)."""
    if h.shape[0] == 0:
        return 0.0
    return float(np.linalg.eigvalsh(h)[0])


def psd_slack(h: np.ndarray) -> float:
    """Scale-relative slack for semidefiniteness checks: 64*eps*max|eig|."""
    return 64.0 * EPS * spectral_norm(h)


def require_psd(name: str, h: np.ndarray, tol: float) -> None:
    """PoshValidationError naming h when the Hermitian h has an eigenvalue < -tol."""
    lam = smallest_hermitian_eigenvalue(h)
    if lam < -tol:
        raise PoshValidationError(name, lam, tol)


def is_positive_definite(h: np.ndarray) -> bool:
    """Strict positive definiteness of the Hermitian part, via Cholesky."""
    h = as_complex_matrix(h, "matrix", square=True)
    if h.shape[0] == 0:
        return True
    try:
        # halving before the sum keeps entries near the float limit finite
        np.linalg.cholesky(0.5 * h + 0.5 * h.conj().T)
    except np.linalg.LinAlgError:
        return False
    return True


@dataclass(frozen=True, eq=False)
class HermitianSplit:
    """Decomposition m = skew + herm with skew* = -skew and herm* = herm."""

    skew: np.ndarray
    herm: np.ndarray


def hermitian_split(m) -> HermitianSplit:
    """Split a square matrix into its skew-Hermitian and Hermitian parts.

    Both parts are exact by construction: the conjugation identities hold
    entrywise in floating point, and skew + herm reconstructs the input to
    within 2 ulp per entry.
    """
    m = as_complex_matrix(m, "matrix", square=True)
    mh = m.conj().T
    return HermitianSplit(skew=_frozen(0.5 * (m - mh)), herm=_frozen(0.5 * (m + mh)))


def structured_part(m, name: str, skew: bool = False) -> np.ndarray:
    """The Hermitian part of m, or its skew-Hermitian part when skew is set.

    The part projected away may have norm at most
    STRUCTURE_DRIFT_TOL*(1 + ||m||); larger drift raises PreconditionError
    naming the matrix.
    """
    m = as_complex_matrix(m, name, square=True)
    split = hermitian_split(m)
    keep, drop = (split.skew, split.herm) if skew else (split.herm, split.skew)
    drift = spectral_norm(drop)
    allowed = STRUCTURE_DRIFT_TOL * (1.0 + spectral_norm(m))
    if drift > allowed:
        raise PreconditionError(
            f"{name} is not {'skew-Hermitian' if skew else 'Hermitian'}: "
            f"drift {drift:.3e} exceeds tolerance {allowed:.6e}"
        )
    return keep


@dataclass(frozen=True, eq=False)
class Pencil:
    """A matrix pencil in one of the two coefficient conventions.

    ``plus``:  lambda * lead + constant
    ``minus``: lambda * lead - constant
    """

    lead: np.ndarray
    constant: np.ndarray
    convention: str = PLUS

    def __post_init__(self):
        lead = _frozen(as_complex_matrix(self.lead, "lead"))
        constant = _frozen(as_complex_matrix(self.constant, "constant"))
        if lead.shape != constant.shape:
            raise DimensionError(
                f"lead and constant must match: {lead.shape} vs {constant.shape}"
            )
        if self.convention not in (PLUS, MINUS):
            raise PreconditionError(
                f"convention must be 'plus' or 'minus', got {self.convention!r}"
            )
        object.__setattr__(self, "lead", lead)
        object.__setattr__(self, "constant", constant)

    @property
    def shape(self) -> tuple[int, int]:
        return self.lead.shape

    @property
    def is_square(self) -> bool:
        return self.lead.shape[0] == self.lead.shape[1]

    def to_plus(self) -> "Pencil":
        if self.convention == PLUS:
            return self
        return Pencil(self.lead, -self.constant, PLUS)

    def to_minus(self) -> "Pencil":
        if self.convention == MINUS:
            return self
        return Pencil(self.lead, -self.constant, MINUS)

    def value_at(self, z: complex) -> np.ndarray:
        if self.convention == PLUS:
            return z * self.lead + self.constant
        return z * self.lead - self.constant


def reversal(p: Pencil) -> Pencil:
    """Swap the roles of the coefficients; eigenvalues map to reciprocals."""
    return Pencil(p.constant, p.lead, p.convention)


@dataclass(frozen=True, eq=False)
class PoshPencil:
    """Plus-convention pencil lambda(J1+R1) + (J2+R2).

    The j coefficients must be exactly skew-Hermitian and the r coefficients
    exactly Hermitian with smallest eigenvalue >= -tol, where tol is the
    larger psd_slack of r1 and r2. Use :func:`posh_from_parts`
    to build one from nearly-structured matrices.
    """

    j1: np.ndarray
    r1: np.ndarray
    j2: np.ndarray
    r2: np.ndarray

    def __post_init__(self):
        mats = {}
        for name in ("j1", "r1", "j2", "r2"):
            mats[name] = _frozen(as_complex_matrix(getattr(self, name), name, square=True))
        n = mats["j1"].shape[0]
        for name, m in mats.items():
            if m.shape[0] != n:
                raise DimensionError(f"{name} has size {m.shape[0]}, expected {n}")
        for name in ("j1", "j2"):
            if not np.array_equal(mats[name].conj().T, -mats[name]):
                raise PreconditionError(f"{name} is not exactly skew-Hermitian")
        for name in ("r1", "r2"):
            if not np.array_equal(mats[name].conj().T, mats[name]):
                raise PreconditionError(f"{name} is not exactly Hermitian")
        tol = max(psd_slack(mats["r1"]), psd_slack(mats["r2"]))
        for name in ("r1", "r2"):
            require_psd(name, mats[name], tol)
        for name, m in mats.items():
            object.__setattr__(self, name, m)

    @property
    def n(self) -> int:
        return self.j1.shape[0]

    @property
    def is_real(self) -> bool:
        return all(not np.any(m.imag) for m in (self.j1, self.r1, self.j2, self.r2))

    def pencil(self) -> Pencil:
        return Pencil(self.j1 + self.r1, self.j2 + self.r2, PLUS)


@dataclass(frozen=True, eq=False)
class DhPencil:
    """Minus-convention pencil lambda*E - (J - R)Q.

    Requires J exactly skew-Hermitian, R exactly Hermitian with
    lambda_min >= -tol, and Q*E Hermitian within 2*tol + eps with
    lambda_min of its Hermitian part >= -tol, where
    tol = 64*eps*(||Q|| ||E|| + ||R||).
    """

    e: np.ndarray
    j: np.ndarray
    r: np.ndarray
    q: np.ndarray

    def __post_init__(self):
        mats = {}
        for name in ("e", "j", "r", "q"):
            mats[name] = _frozen(as_complex_matrix(getattr(self, name), name, square=True))
        n = mats["e"].shape[0]
        for name, m in mats.items():
            if m.shape[0] != n:
                raise DimensionError(f"{name} has size {m.shape[0]}, expected {n}")
        if not np.array_equal(mats["j"].conj().T, -mats["j"]):
            raise PreconditionError("j is not exactly skew-Hermitian")
        if not np.array_equal(mats["r"].conj().T, mats["r"]):
            raise PreconditionError("r is not exactly Hermitian")
        qe = mats["q"].conj().T @ mats["e"]
        tol = 64.0 * EPS * (
            spectral_norm(mats["q"]) * spectral_norm(mats["e"])
            + spectral_norm(mats["r"])
        )
        require_psd("r", mats["r"], tol)
        if n:
            drift = spectral_norm(qe - qe.conj().T)
            if drift > 2.0 * tol + EPS:
                raise PreconditionError(
                    f"q*e is not Hermitian: asymmetry norm {drift:.6e} exceeds "
                    f"tolerance {2.0 * tol + EPS:.6e}"
                )
            require_psd("q*e", 0.5 * (qe + qe.conj().T), tol)
        for name, m in mats.items():
            object.__setattr__(self, name, m)

    @property
    def n(self) -> int:
        return self.e.shape[0]

    def pencil(self) -> Pencil:
        return Pencil(self.e, (self.j - self.r) @ self.q, MINUS)


def validate_posh(p: Pencil) -> PoshPencil:
    """Split a square pencil and check both Hermitian parts for PSD.

    Accepts either convention; a minus pencil is converted to plus first so
    the splitting always applies to lambda*lead + constant. Rejection names
    the offending coefficient (r1 for the lead, r2 for the constant) and
    reports its smallest eigenvalue.
    """
    p = p.to_plus()
    if not p.is_square:
        raise DimensionError(f"pencil must be square, got shape {p.shape}")
    s1 = hermitian_split(p.lead)
    s2 = hermitian_split(p.constant)
    return PoshPencil(s1.skew, s1.herm, s2.skew, s2.herm)


def posh_from_parts(j1, r1, j2, r2) -> PoshPencil:
    """Build a PoshPencil from nearly skew / nearly Hermitian matrices.

    Each input is projected onto its exact structured part by
    :func:`structured_part`.
    """
    return PoshPencil(
        structured_part(j1, "j1", skew=True),
        structured_part(r1, "r1"),
        structured_part(j2, "j2", skew=True),
        structured_part(r2, "r2"),
    )


def probe_regular(p: Pencil) -> bool:
    """Random-shift regularity probe.

    Evaluates the pencil at random points of the unit disk scaled to the
    coefficient norm ratio; a regular pencil is rank-deficient at only
    finitely many points, so any full-rank hit certifies regularity. All
    probes deficient is read as singular.
    """
    if not p.is_square:
        return False
    n = p.shape[0]
    if n == 0:
        return True
    m = p.to_minus()
    scale = (spectral_norm(m.constant) + EPS) / (spectral_norm(m.lead) + EPS)
    rng = np.random.default_rng(0)
    for _ in range(REGULARITY_PROBES):
        radius = np.sqrt(rng.uniform(0.25, 1.0))
        angle = rng.uniform(0.0, 2.0 * np.pi)
        z = scale * radius * np.exp(1j * angle)
        mat = m.value_at(z)
        sv = np.linalg.svd(mat, compute_uv=False)
        if sv[0] == 0.0:
            continue
        cutoff = 16.0 * n * EPS * sv[0]
        if sv[-1] > cutoff:
            return True
    return False


def generalized_eigenvalues(p: Pencil) -> list:
    """All n eigenvalues of a square regular pencil, infinity included.

    Finite values are sorted by real then imaginary part; infinite entries
    come last as the AtInfinity tag. A pencil failing the regularity probe
    is rejected.
    """
    if not p.is_square:
        raise DimensionError(f"pencil must be square, got shape {p.shape}")
    if not probe_regular(p):
        raise SingularPencilError(
            f"pencil is singular: rank deficient at {REGULARITY_PROBES} random shifts"
        )
    m = p.to_minus()
    n = m.shape[0]
    if n == 0:
        return []
    w = scipy.linalg.eig(
        m.constant, m.lead, right=False, homogeneous_eigvals=True
    )
    alpha, beta = np.asarray(w[0]), np.asarray(w[1])
    finite = []
    infinite = 0
    for a, b in zip(alpha, beta):
        if abs(b) <= INFINITE_EIGENVALUE_TOL * (abs(a) + abs(b)):
            infinite += 1
        else:
            finite.append(complex(a / b))
    finite.sort(key=lambda z: (z.real, z.imag))
    return finite + [INFINITY] * infinite


def finite_eigenvalues(p: Pencil) -> list[complex]:
    return [z for z in generalized_eigenvalues(p) if not isinstance(z, AtInfinity)]
