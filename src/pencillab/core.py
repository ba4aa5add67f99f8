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

from .errors import (
    DimensionError,
    PoshValidationError,
    PreconditionError,
    RankAmbiguityError,
)

EPS = float(np.finfo(np.float64).eps)

# Tolerances that several modules share; the report's tolerances block is
# built from these names.
# z lies on an axis when its other coordinate is at most AXIS_TOL*(1 + |z|).
AXIS_TOL = 1e-8
# Relative departure from exact (skew-)Hermitian structure that is projected
# away rather than rejected.
STRUCTURE_DRIFT_TOL = 1e-10

PLUS = "plus"
MINUS = "minus"


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


def svdvals(a: np.ndarray) -> np.ndarray:
    """The singular values of a, descending, from one SVD without vectors.

    The first is spectral_norm(a) to the bit: np.linalg.norm(a, 2) is the
    largest value of the same SVD.
    """
    if a.size == 0:
        return np.zeros(0)
    return np.linalg.svd(a, compute_uv=False)


def quadratic_forms(X: np.ndarray, a: np.ndarray) -> np.ndarray:
    """x_k* a x_k for every row x_k of X, through one BLAS product.

    A three-operand einsum would skip BLAS.  The product a x_k is the only
    N x n temporary: it is conjugated in place and x_k* a x_k taken as
    conj(x_k^T conj(a x_k)), which gives the same bits as conj(x_k)^T a x_k.
    """
    y = X @ a.T
    np.conjugate(y, out=y)
    return np.einsum("ni,ni->n", X, y).conj()


def hermitian_part(m: np.ndarray) -> np.ndarray:
    """(m + m*)/2, exactly Hermitian; halving before the sum keeps it finite."""
    return 0.5 * m + 0.5 * m.conj().T


def skew_part(m: np.ndarray) -> np.ndarray:
    """(m - m*)/2, exactly skew-Hermitian; halving before the sum keeps it finite."""
    return 0.5 * m - 0.5 * m.conj().T


def psd_spectrum(h: np.ndarray) -> tuple[float, float]:
    """Smallest eigenvalue of a Hermitian h and its semidefiniteness slack.

    The slack, 64*eps*max|eig(h)|, is scaled by the spectral norm of h, so
    one eigvalsh gives both.  The empty matrix gives (0.0, 0.0).
    """
    if h.shape[0] == 0:
        return 0.0, 0.0
    w = np.linalg.eigvalsh(h)
    return float(w[0]), 64.0 * EPS * float(max(-w[0], w[-1]))


def require_psd(name: str, h: np.ndarray, tol: float | None = None) -> None:
    """PoshValidationError naming h when the Hermitian h has an eigenvalue < -tol.

    tol defaults to the slack of h itself.
    """
    lam, slack = psd_spectrum(h)
    tol = slack if tol is None else tol
    if lam < -tol:
        raise PoshValidationError(name, lam, tol)


def is_positive_definite(h: np.ndarray) -> bool:
    """Strict positive definiteness of the Hermitian part, via Cholesky."""
    h = as_complex_matrix(h, "matrix", square=True)
    if h.shape[0] == 0:
        return True
    try:
        np.linalg.cholesky(hermitian_part(h))
    except np.linalg.LinAlgError:
        return False
    return True


def structured_part(m, name: str, skew: bool = False) -> np.ndarray:
    """The Hermitian part of m, or its skew-Hermitian part when skew is set.

    The part projected away may have norm at most
    STRUCTURE_DRIFT_TOL*(1 + ||m||); larger drift raises PreconditionError
    naming the matrix.
    """
    m = as_complex_matrix(m, name, square=True)
    keep, drop = (skew_part(m), hermitian_part(m)) if skew else (hermitian_part(m), skew_part(m))
    drift = spectral_norm(drop)
    allowed = STRUCTURE_DRIFT_TOL * (1.0 + spectral_norm(m))
    if drift > allowed:
        raise PreconditionError(
            f"{name} is not {'skew-Hermitian' if skew else 'Hermitian'}: "
            f"drift {drift:.3e} exceeds tolerance {allowed:.6e}"
        )
    return keep


def _kept(obj, key: str, build):
    """build(), run on the first call for obj and key and kept in obj's instance dict.

    The instance dict takes the value past a frozen dataclass's __setattr__.
    A RankAmbiguityError that build raises is kept too, and every call
    raises it again with a fresh traceback, so tracebacks do not pile up on it.
    """
    kept = obj.__dict__
    if key not in kept:
        try:
            kept[key] = build()
        except RankAmbiguityError as err:
            kept[key] = err
    value = kept[key]
    if isinstance(value, RankAmbiguityError):
        raise value.with_traceback(None)
    return value


class _CoefficientNorms:
    """The singular values of coefficient name and its spectral norm, from one SVD on first use."""

    def singular_values(self, name: str) -> np.ndarray:
        return _kept(self, f"_sv_{name}", lambda: _frozen(svdvals(getattr(self, name))))

    def norm(self, name: str) -> float:
        sv = self.singular_values(name)
        return float(sv[0]) if sv.size else 0.0


@dataclass(frozen=True, eq=False)
class Pencil(_CoefficientNorms):
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


@dataclass(frozen=True, eq=False)
class PoshPencil(_CoefficientNorms):
    """Plus-convention pencil lambda(J1+R1) + (J2+R2).

    The j coefficients must be exactly skew-Hermitian and the r coefficients
    exactly Hermitian with smallest eigenvalue >= -tol, where tol is the
    larger psd_spectrum slack of r1 and r2. Use :func:`posh_from_parts`
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
        spectra = {name: psd_spectrum(mats[name]) for name in ("r1", "r2")}
        tol = max(slack for _, slack in spectra.values())
        for name, (lam, _) in spectra.items():
            if lam < -tol:
                raise PoshValidationError(name, lam, tol)
        for name, m in mats.items():
            object.__setattr__(self, name, m)

    @property
    def n(self) -> int:
        return self.j1.shape[0]

    @property
    def is_real(self) -> bool:
        return all(not np.any(m.imag) for m in (self.j1, self.r1, self.j2, self.r2))

    def pencil(self) -> Pencil:
        """The plus-convention Pencil, built on first use and kept, so callers share its norms."""
        return _kept(self, "_pencil", lambda: Pencil(self.j1 + self.r1, self.j2 + self.r2, PLUS))

    def half_pencil(self, lead: str, const: str) -> Pencil:
        """The plus-convention Pencil of two coefficients, e.g. ("j1", "j2"), kept like pencil()."""
        return _kept(
            self, f"_half_{lead}_{const}", lambda: Pencil(getattr(self, lead), getattr(self, const), PLUS)
        )

    def source(self) -> Pencil:
        """The pencil validate_posh split, else pencil(): its structure stands for this one's."""
        return _kept(self, "_source", self.pencil)


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
            require_psd("q*e", hermitian_part(qe), tol)
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
    reports its smallest eigenvalue.  The result keeps p as its source().
    """
    source, p = p, p.to_plus()
    if not p.is_square:
        raise DimensionError(f"pencil must be square, got shape {p.shape}")
    pp = PoshPencil(
        skew_part(p.lead), hermitian_part(p.lead), skew_part(p.constant), hermitian_part(p.constant)
    )
    _kept(pp, "_source", lambda: source)
    return pp


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
