"""Equivalence to dissipative Hamiltonian pencils and explicit realizations.

A square pencil admits a dH form lambda*E - (J - R)Q exactly when its
Kronecker data satisfies four conditions on the spectrum, the index and
the minimal indices.  Two variants exist: a general Hermitian PSD product
Q*E, and the restricted variant with Q = I.  `check_dh_equivalence`
decides the conditions on a computed structure; `realize_dh` assembles a
concrete (E, J, R, Q) block by block from the same data.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .core import AXIS_TOL, DhPencil, hermitian_part, skew_part
from .errors import PreconditionError
from .kcf import KroneckerStructure

GENERAL_Q = "general_q"
Q_IDENTITY = "q_identity"

_VARIANTS = (GENERAL_Q, Q_IDENTITY)


@dataclass(frozen=True)
class DhVerdict:
    """Outcome of the admissibility conditions for one variant."""

    variant: str
    violated_conditions: tuple
    witness: object = None

    def __post_init__(self):
        object.__setattr__(
            self, "violated_conditions", tuple(self.violated_conditions)
        )

    @property
    def holds(self) -> bool:
        return not self.violated_conditions


def _classify(lam: complex) -> str:
    # zero and imaginary are both inside the closed left half plane
    if abs(lam) <= AXIS_TOL:
        return "zero"
    if abs(lam.real) <= AXIS_TOL * (1.0 + abs(lam)):
        return "imaginary"
    return "lhp" if lam.real < 0.0 else "rhp"


def _require_square(ks: KroneckerStructure):
    if ks.rows != ks.cols:
        raise PreconditionError(
            f"dH equivalence is defined for square pencils, got {ks.rows}x{ks.cols}"
        )


def check_dh_equivalence(ks: KroneckerStructure, variant: str = GENERAL_Q) -> DhVerdict:
    """Test the four admissibility conditions on a Kronecker structure.

    general_q requires: spectrum in the closed left half plane, nonzero
    imaginary eigenvalues semisimple, partial multiplicities at zero of
    size at most two, index at most two, left minimal indices all zero
    and right minimal indices at most one.  q_identity tightens this to
    semisimple eigenvalues everywhere on the axis (zero included) and
    all minimal indices zero.
    """
    if variant not in _VARIANTS:
        raise PreconditionError(f"unknown variant {variant!r}")
    _require_square(ks)
    violations = []
    witness = None

    def mark(tag, datum):
        nonlocal witness
        if tag not in violations:
            violations.append(tag)
        if witness is None:
            witness = datum

    for lam, mults in ks.finite_eigenstructure:
        kind = _classify(lam)
        if kind == "rhp":
            mark("spectrum_lhp", lam)
        elif kind == "imaginary":
            if any(m != 1 for m in mults):
                mark("imaginary_semisimple", lam)
        elif kind == "zero":
            if variant == Q_IDENTITY:
                if any(m != 1 for m in mults):
                    mark("imaginary_semisimple", lam)
            elif any(m > 2 for m in mults):
                mark("zero_multiplicity", lam)
    if ks.index > 2:
        mark("index_bound", ks.index)
    right_cap = 1 if variant == GENERAL_Q else 0
    if any(e != 0 for e in ks.left_minimal_indices):
        mark("minimal_indices", ("left", max(ks.left_minimal_indices)))
    if any(e > right_cap for e in ks.right_minimal_indices):
        mark("minimal_indices", ("right", max(ks.right_minimal_indices)))
    return DhVerdict(
        variant=variant,
        violated_conditions=tuple(violations),
        witness=witness,
    )


def _shift(n: int) -> np.ndarray:
    return np.eye(n, k=1)


def _block_lhp_complex(lam: complex, size: int):
    # Jordan block at lam with superdiagonal alpha = Re(lam) < 0; splitting
    # M into skew and Hermitian parts keeps R positive definite.
    alpha = lam.real
    n_mat = _shift(size)
    m = lam * np.eye(size) + alpha * n_mat
    j, r = skew_part(m), -hermitian_part(m)
    return np.eye(size), j, r, np.eye(size)


def _block_lhp_real_pair(alpha: float, beta: float, size: int):
    # real form of a conjugate pair: 2x2 rotation blocks on the diagonal,
    # alpha*I2 couplings above
    lam2 = np.array([[alpha, beta], [-beta, alpha]])
    m = np.kron(np.eye(size), lam2) + np.kron(_shift(size), alpha * np.eye(2))
    j, r = skew_part(m), -hermitian_part(m)
    dim = 2 * size
    return np.eye(dim), j, r, np.eye(dim)


def _block_imag_complex(beta: float):
    one = np.eye(1)
    return one, 1j * beta * one, 0.0 * one, one


def _block_imag_real_pair(beta: float):
    j = np.array([[0.0, beta], [-beta, 0.0]])
    return np.eye(2), j, np.zeros((2, 2)), np.eye(2)


def _block_zero_simple():
    one = np.eye(1)
    zero = np.zeros((1, 1))
    return one, zero, zero, one


def _block_zero_double():
    j = np.array([[0.0, 1.0], [-1.0, 0.0]])
    q = np.diag([0.0, 1.0])
    return np.eye(2), j, np.zeros((2, 2)), q


def _block_inf_simple():
    one = np.eye(1)
    zero = np.zeros((1, 1))
    return zero, zero, one, one


def _block_inf_double():
    e = np.diag([0.0, 1.0])
    j = np.array([[0.0, 1.0], [-1.0, 0.0]])
    return e, j, np.zeros((2, 2)), np.eye(2)


def _block_pair_00():
    zero = np.zeros((1, 1))
    return zero, zero, zero, np.eye(1)


def _block_pair_01():
    e = np.diag([1.0, 0.0])
    j = np.array([[0.0, 1.0], [-1.0, 0.0]])
    q = np.diag([0.0, 1.0])
    return e, j, np.zeros((2, 2)), q


def _zero_blocks(mults):
    return [_block_zero_simple() if size == 1 else _block_zero_double() for size in mults]


def _conjugate_pairs(entries, is_real):
    """One pass over a sorted group of (eigenvalue, multiplicities) entries.

    An entry that is not real is paired with the first later unpaired entry
    at its conjugate (within AXIS_TOL) carrying the same multiplicities.
    Returns the entries that lead a block as (eigenvalue, multiplicities,
    paired), or None when some entry has no partner, in which case no real
    realization is built.
    """
    taken = set()
    leads = []
    for i, (lam, mults) in enumerate(entries):
        if i in taken:
            continue
        if is_real(lam):
            leads.append((lam, mults, False))
            continue
        reach = AXIS_TOL * (1.0 + abs(lam))
        for k in range(i + 1, len(entries)):
            mu, other = entries[k]
            if k not in taken and other == mults and abs(mu - lam.conjugate()) <= reach:
                taken.add(k)
                leads.append((lam, mults, True))
                break
        else:
            return None
    return leads


def realize_dh(ks: KroneckerStructure, variant: str = GENERAL_Q) -> DhPencil:
    """Assemble a dH pencil whose Kronecker structure equals `ks`.

    Blocks follow the constructive proof case by case and are stacked in
    a fixed order: strict left-half-plane eigenvalues, imaginary ones
    (zero included), infinite blocks, then singular pairs.  When the
    eigenvalue data is closed under conjugation the output is real.
    """
    verdict = check_dh_equivalence(ks, variant)
    if not verdict.holds:
        raise PreconditionError(
            "structure does not satisfy the dH conditions for "
            f"{variant}: {', '.join(verdict.violated_conditions)}"
        )
    lhp_entries = []
    axis_entries = []
    for lam, mults in ks.finite_eigenstructure:
        (lhp_entries if _classify(lam) == "lhp" else axis_entries).append((lam, mults))

    lhp_leads = _conjugate_pairs(
        sorted(lhp_entries, key=lambda t: (t[0].real, abs(t[0].imag), t[0].imag)),
        lambda lam: abs(lam.imag) <= AXIS_TOL * (1.0 + abs(lam)),
    )
    axis_leads = _conjugate_pairs(
        sorted(axis_entries, key=lambda t: (abs(t[0].imag), t[0].imag)),
        lambda lam: _classify(lam) == "zero",
    )

    blocks = []
    if lhp_leads is not None and axis_leads is not None:
        for lam, mults, paired in lhp_leads:
            for size in mults:
                blocks.append(
                    _block_lhp_real_pair(lam.real, abs(lam.imag), size)
                    if paired
                    else _block_lhp_complex(complex(lam.real), size)
                )
        for lam, mults, paired in axis_leads:
            if paired:
                blocks.extend(_block_imag_real_pair(abs(lam.imag)) for _ in mults)
            else:
                blocks.extend(_zero_blocks(mults))
    else:
        lhp_entries.sort(key=lambda t: (t[0].real, t[0].imag))
        for lam, mults in lhp_entries:
            for size in mults:
                blocks.append(_block_lhp_complex(lam, size))
        axis_entries.sort(key=lambda t: (t[0].imag, t[0].real))
        for lam, mults in axis_entries:
            if _classify(lam) == "zero":
                blocks.extend(_zero_blocks(mults))
            else:
                blocks.extend(_block_imag_complex(lam.imag) for _ in mults)

    for size in sorted(ks.infinite_block_sizes):
        blocks.append(_block_inf_simple() if size == 1 else _block_inf_double())

    for eps in sorted(ks.right_minimal_indices):
        blocks.append(_block_pair_00() if eps == 0 else _block_pair_01())

    if not blocks:
        empty = np.zeros((0, 0))
        blocks.append((empty, empty, empty, empty))

    e = scipy.linalg.block_diag(*(b[0] for b in blocks))
    j = scipy.linalg.block_diag(*(b[1] for b in blocks))
    r = scipy.linalg.block_diag(*(b[2] for b in blocks))
    q = scipy.linalg.block_diag(*(b[3] for b in blocks))
    return DhPencil(e=e, j=j, r=r, q=q)
