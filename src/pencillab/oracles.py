"""Independent references and instance generators for the test suites.

Everything here is deliberately naive: canonical-block assembly with a
recorded ground truth, a Routh table for scalar polynomials, determinant
roots by evaluation and interpolation, the named example pencils, and
seeded random generators.  None of it reuses the extraction code it is
meant to check.
"""

import math
from dataclasses import dataclass

import numpy as np

from .core import MINUS, Pencil, PoshPencil, as_complex_matrix, spectral_norm
from .errors import (
    InputFormatError,
    PreconditionError,
    SingularPencilError,
)
from .kcf import KroneckerStructure

RIGHT_SINGULAR = "right_singular"
LEFT_SINGULAR = "left_singular"
FINITE_JORDAN = "finite_jordan"
INFINITE = "infinite"

_ASSEMBLY_SIZE_CAP = 512


@dataclass(frozen=True)
class BlockSpec:
    """One canonical block: kind, size, and eigenvalue where applicable."""

    kind: str
    size: int
    eigenvalue: complex | None = None

    def __post_init__(self):
        if self.kind not in (RIGHT_SINGULAR, LEFT_SINGULAR, FINITE_JORDAN, INFINITE):
            raise InputFormatError(f"unknown block kind {self.kind!r}")
        size = int(self.size)
        object.__setattr__(self, "size", size)
        if self.kind in (RIGHT_SINGULAR, LEFT_SINGULAR):
            if size < 0:
                raise InputFormatError("singular block size must be nonnegative")
            if self.eigenvalue is not None:
                raise InputFormatError("singular blocks carry no eigenvalue")
        else:
            if size < 1:
                raise InputFormatError("regular block size must be positive")
        if self.kind == FINITE_JORDAN:
            if self.eigenvalue is None:
                raise InputFormatError("finite_jordan needs an eigenvalue")
            lam = complex(self.eigenvalue)
            if not (math.isfinite(lam.real) and math.isfinite(lam.imag)):
                raise InputFormatError("finite_jordan eigenvalue must be finite")
            object.__setattr__(self, "eigenvalue", lam)
        elif self.kind == INFINITE and self.eigenvalue is not None:
            raise InputFormatError("infinite blocks carry no eigenvalue")

    @property
    def shape(self) -> tuple:
        if self.kind == RIGHT_SINGULAR:
            return (self.size, self.size + 1)
        if self.kind == LEFT_SINGULAR:
            return (self.size + 1, self.size)
        return (self.size, self.size)


def _block_matrices(spec: BlockSpec) -> tuple:
    """(E, A) of the canonical block in the minus convention lambda E - A."""
    s = spec.size
    if spec.kind == RIGHT_SINGULAR:
        e = np.zeros((s, s + 1), dtype=np.complex128)
        a = np.zeros((s, s + 1), dtype=np.complex128)
        for i in range(s):
            e[i, i] = 1.0
            a[i, i + 1] = 1.0
        return e, a
    if spec.kind == LEFT_SINGULAR:
        e = np.zeros((s + 1, s), dtype=np.complex128)
        a = np.zeros((s + 1, s), dtype=np.complex128)
        for i in range(s):
            e[i, i] = 1.0
            a[i + 1, i] = 1.0
        return e, a
    if spec.kind == FINITE_JORDAN:
        e = np.eye(s, dtype=np.complex128)
        a = np.eye(s, dtype=np.complex128) * spec.eigenvalue
        for i in range(s - 1):
            a[i, i + 1] = 1.0
        return e, a
    e = np.zeros((s, s), dtype=np.complex128)
    for i in range(s - 1):
        e[i, i + 1] = 1.0
    return e, np.eye(s, dtype=np.complex128)


def _structure_from_blocks(blocks) -> KroneckerStructure:
    right = sorted(b.size for b in blocks if b.kind == RIGHT_SINGULAR)
    left = sorted(b.size for b in blocks if b.kind == LEFT_SINGULAR)
    inf_sizes = sorted(b.size for b in blocks if b.kind == INFINITE)
    by_eig: dict = {}
    for b in blocks:
        if b.kind == FINITE_JORDAN:
            by_eig.setdefault(b.eigenvalue, []).append(b.size)
    finite = tuple(
        (lam, tuple(sorted(mults)))
        for lam, mults in sorted(by_eig.items(), key=lambda kv: (kv[0].real, kv[0].imag))
    )
    rows = sum(b.shape[0] for b in blocks)
    cols = sum(b.shape[1] for b in blocks)
    index = max(inf_sizes) if inf_sizes else 0
    regular = rows == cols and not right and not left
    return KroneckerStructure(
        tuple(right), tuple(left), finite, tuple(inf_sizes), index, regular, rows, cols
    )


def _random_transform(rng, n: int, condition_cap: float) -> np.ndarray:
    if n == 0:
        return np.zeros((0, 0), dtype=np.complex128)
    if condition_cap <= 1.0:
        return np.eye(n, dtype=np.complex128)
    u, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    v, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    if n == 1:
        svals = np.array([1.0])
    else:
        svals = np.geomspace(1.0, condition_cap, n)
        rng.shuffle(svals)
    return u @ np.diag(svals.astype(np.complex128)) @ v.conj().T


def assemble_pencil(
    blocks, transform_condition_cap: float = 1.0, seed: int = 0
) -> tuple:
    """Block-diagonal canonical pencil under random equivalence transforms.

    Returns (Pencil in the minus convention, ground-truth structure).
    With a condition cap of 1 the transforms are exact identities.
    """
    specs = list(blocks)
    truth = _structure_from_blocks(specs)
    if max(truth.rows, truth.cols) > _ASSEMBLY_SIZE_CAP:
        raise PreconditionError(
            f"assembled size {truth.rows}x{truth.cols} exceeds {_ASSEMBLY_SIZE_CAP}"
        )
    e = np.zeros((truth.rows, truth.cols), dtype=np.complex128)
    a = np.zeros((truth.rows, truth.cols), dtype=np.complex128)
    r = c = 0
    for spec in specs:
        be, ba = _block_matrices(spec)
        h, w = be.shape
        e[r : r + h, c : c + w] = be
        a[r : r + h, c : c + w] = ba
        r += h
        c += w
    rng = np.random.default_rng(seed)
    s = _random_transform(rng, truth.rows, transform_condition_cap)
    t = _random_transform(rng, truth.cols, transform_condition_cap)
    return Pencil(s @ e @ t, s @ a @ t, MINUS), truth


def _routh_sign_changes(desc: np.ndarray, eps_sign: float) -> tuple:
    """(sign changes of the first column, whether an auxiliary row was used)."""
    n = len(desc) - 1
    width = (n + 2) // 2
    prev = np.zeros(width)
    cur = np.zeros(width)
    prev[: len(desc[0::2])] = desc[0::2]
    cur[: len(desc[1::2])] = desc[1::2]
    first_col = [prev[0]]
    aux_used = False
    power = n - 1
    while power >= 0:
        scale = np.abs(cur).max()
        if scale <= 1e-12 * max(np.abs(prev).max(), 1.0):
            # full zero row: differentiate the auxiliary polynomial above it
            aux_used = True
            cur = np.array(
                [prev[j] * (power + 1 - 2 * j) for j in range(width)], dtype=float
            )
            scale = np.abs(cur).max()
        if abs(cur[0]) <= 1e-12 * max(scale, 1.0):
            cur = cur.copy()
            cur[0] = eps_sign * 1e-25 * max(scale, 1.0)
        first_col.append(cur[0])
        nxt = np.zeros(width)
        for j in range(width - 1):
            nxt[j] = (cur[0] * prev[j + 1] - prev[0] * cur[j + 1]) / cur[0]
        m = np.abs(nxt).max()
        if m > 0:
            nxt = nxt / m
        prev, cur = cur, nxt
        power -= 1
    signs = [1.0 if x > 0 else -1.0 for x in first_col if x != 0.0]
    changes = sum(1 for a, b in zip(signs, signs[1:]) if a != b)
    return changes, aux_used


def routh_hurwitz(coeffs) -> str:
    """Root-location class of a real polynomial given in ascending powers.

    Returns strict_lhp, closed_lhp_marginal (axis roots, none to the
    right), or unstable (at least one root with positive real part).
    """
    c = np.asarray([float(x) for x in coeffs], dtype=float)
    if c.size == 0:
        raise PreconditionError("empty coefficient list")
    scale = np.abs(c).max()
    if scale == 0.0:
        raise PreconditionError("zero polynomial")
    zero_tol = 1e-12 * scale
    if c[-1] <= zero_tol:
        raise PreconditionError("leading coefficient must be positive")
    desc = list(c[::-1])
    marginal = False
    while len(desc) > 1 and abs(desc[-1]) <= zero_tol:
        desc.pop()
        marginal = True
    if len(desc) == 1:
        return "closed_lhp_marginal" if marginal else "strict_lhp"
    if any(x < -zero_tol for x in desc):
        # positive leading with a negative coefficient cannot be closed-LHP
        return "unstable"
    desc = np.asarray(desc)
    ch_pos, aux_pos = _routh_sign_changes(desc, +1.0)
    ch_neg, aux_neg = _routh_sign_changes(desc, -1.0)
    if max(ch_pos, ch_neg) > 0:
        return "unstable"
    if marginal or aux_pos or aux_neg:
        return "closed_lhp_marginal"
    return "strict_lhp"


def scalarized_roots(p, radius: float = 1.0) -> list:
    """Roots of det P by interpolation on a circle, then companion roots.

    Works on anything exposing ascending ``coefficients``.  Refuses
    identically singular polynomials; the check compares determinant
    magnitudes against Hadamard bounds at the sample points.
    """
    coeffs = [as_complex_matrix(a, "coefficient", square=True) for a in p.coefficients]
    n = coeffs[0].shape[0]
    d = len(coeffs) - 1
    if n * d > 64:
        raise PreconditionError(f"n*d = {n * d} exceeds the oracle cap 64")
    m = n * d + 1
    angles = 2.0 * np.pi * np.arange(m) / m + np.pi / (2.0 * m)
    zs = radius * np.exp(1j * angles)
    vals = np.zeros(m, dtype=np.complex128)
    hadamard = np.zeros(m)
    for k, z in enumerate(zs):
        acc = np.zeros((n, n), dtype=np.complex128)
        for a in reversed(coeffs):
            acc = z * acc + a
        vals[k] = np.linalg.det(acc)
        row_norms = np.linalg.norm(acc, axis=1)
        hadamard[k] = float(np.prod(np.maximum(row_norms, 1e-300)))
    if np.all(np.abs(vals) <= 1e-12 * np.maximum(hadamard, 1e-300)):
        raise SingularPencilError(
            "determinant vanishes at all sample points; the polynomial is singular"
        )
    # vals_k = sum_j b_j omega^{jk} with b_j = a_j r^j e^{ij phi}
    b = np.fft.fft(vals) / m
    b *= np.exp(-1j * np.arange(m) * angles[0]) / (radius ** np.arange(m))
    mags = np.abs(b)
    top = mags.max()
    k = len(b) - 1
    while k > 0 and mags[k] <= 1e-10 * top:
        k -= 1
    return [complex(z) for z in np.roots(b[: k + 1][::-1])]


def named_example(name: str, *args):
    """Fixed example pencils, retrievable by name; args feed the parametrized ones."""
    if name == "ex_unstable":
        lead = np.array([[0, -1, 0], [1, 0, 0], [0, 0, 1]], dtype=np.complex128)
        const = np.array([[1, 0, 0], [0, 0, 1], [0, -1, 0]], dtype=np.complex128)
        return PoshPencil(
            (lead - lead.conj().T) / 2,
            (lead + lead.conj().T) / 2,
            (const - const.conj().T) / 2,
            (const + const.conj().T) / 2,
        )
    if name == "ex_jja":
        alpha, beta = float(args[0]), float(args[1])
        if beta < 0:
            raise PreconditionError("beta must be nonnegative; negate the pencil")
        return PoshPencil([[1j]], [[0.0]], [[-1j * alpha]], [[beta]])
    if name == "ex_jjb":
        alpha, beta = float(args[0]), float(args[1])
        if beta < 0:
            raise PreconditionError("beta must be nonnegative")
        j1 = np.array([[0.0, 1.0], [-1.0, 0.0]], dtype=np.complex128)
        j2 = np.array([[0.0, -alpha], [alpha, 0.0]], dtype=np.complex128)
        return PoshPencil(j1, np.zeros((2, 2)), j2, beta * np.eye(2))
    if name == "conjecture":
        t = float(args[0])
        if t < 0:
            raise PreconditionError("t must be nonnegative")
        jj = np.array([[-0.1, 1.0], [0.0, -0.1]], dtype=np.complex128)
        z2 = np.zeros((2, 2), dtype=np.complex128)
        i2 = np.eye(2, dtype=np.complex128)
        j1 = np.block([[z2, i2], [-i2, z2]])
        j2 = np.block([[z2, -jj], [jj.conj().T, z2]])
        r1 = np.ones((4, 4), dtype=np.complex128)
        r2 = 4.0 * np.eye(4, dtype=np.complex128) + np.ones((4, 4))
        return PoshPencil(j1, t * r1, j2, t * r2)
    if name == "mgt":
        a, b, c, t = args
        from .matpoly import linearize_cubic, mgt_polynomial

        return linearize_cubic(mgt_polynomial(a, b, c, t))
    if name == "brake":
        m, d, g, k, nmat = (as_complex_matrix(x, nm, square=True)
                            for x, nm in zip(args, ("m", "d", "g", "k", "n")))
        z = np.zeros_like(m)
        j1 = np.block([[z, z], [z, -nmat]])
        r1 = np.block([[m, z], [z, k]])
        j2 = np.block([[g, k + nmat], [-k + nmat, z]])
        r2 = np.block([[d, z], [z, z]])
        return PoshPencil(j1, r1, j2, r2)
    raise PreconditionError(f"unknown example {name!r}")


# random instance generators; every acceptance suite draws through these


def random_psd_matrix(rng, n: int, rank: int | None = None) -> np.ndarray:
    rng = np.random.default_rng(rng)
    r = n if rank is None else int(rank)
    if r == 0:
        return np.zeros((n, n), dtype=np.complex128)
    g = rng.standard_normal((n, r)) + 1j * rng.standard_normal((n, r))
    m = g @ g.conj().T / max(r, 1)
    return (m + m.conj().T) / 2.0


def random_skew_matrix(rng, n: int) -> np.ndarray:
    rng = np.random.default_rng(rng)
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (g - g.conj().T) / 2.0


def random_posh_pencil(rng, n: int, pd_sum: bool = False) -> PoshPencil:
    """Generic posH pencil; with pd_sum the Hermitian parts sum to PD."""
    rng = np.random.default_rng(rng)
    j1 = random_skew_matrix(rng, n)
    j2 = random_skew_matrix(rng, n)
    if pd_sum:
        r1 = random_psd_matrix(rng, n) + 0.05 * np.eye(n)
        r2 = random_psd_matrix(rng, n) + 0.05 * np.eye(n)
    else:
        r1 = random_psd_matrix(rng, n, rank=int(rng.integers(0, n + 1)))
        r2 = random_psd_matrix(rng, n, rank=int(rng.integers(0, n + 1)))
    return PoshPencil(j1, r1, j2, r2)


def random_unitary(rng, n: int) -> np.ndarray:
    rng = np.random.default_rng(rng)
    q, r = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_shared_kernel_posh_pencil(rng, n: int, k: int) -> PoshPencil:
    """Random posH pencil whose R1 and R2 vanish on a random k-dimensional subspace."""
    rng = np.random.default_rng(rng)
    comp = random_unitary(rng, n)[:, k:]
    r1, r2 = (comp @ random_psd_matrix(rng, n - k) @ comp.conj().T for _ in range(2))
    j1, j2 = random_skew_matrix(rng, n), random_skew_matrix(rng, n)
    return PoshPencil(j1, (r1 + r1.conj().T) / 2.0, j2, (r2 + r2.conj().T) / 2.0)


def random_singular_posh_pencil(rng, n: int, null_dim: int | None = None) -> PoshPencil:
    """Singular posH pencil built by padding a common kernel, then congruence."""
    rng = np.random.default_rng(rng)
    if n < 2:
        raise PreconditionError("need size at least 2 for a padded kernel")
    z = 1 if null_dim is None else int(null_dim)
    if not 1 <= z < n:
        raise PreconditionError("null dimension must be in [1, n)")
    inner = random_posh_pencil(rng, n - z)
    u = random_unitary(rng, n)

    def pad(mat, sign):
        out = np.zeros((n, n), dtype=np.complex128)
        out[: n - z, : n - z] = mat
        out = u.conj().T @ out @ u
        # congruence keeps the structure only up to roundoff; reproject
        return (out + sign * out.conj().T) / 2.0

    return PoshPencil(
        pad(inner.j1, -1.0), pad(inner.r1, +1.0), pad(inner.j2, -1.0), pad(inner.r2, +1.0)
    )


def _skew_infinite_pair(sigma: int) -> tuple:
    """Skew pair equivalent to a single size-sigma block at infinity."""
    jnil = np.zeros((sigma, sigma), dtype=np.complex128)
    for i in range(sigma - 1):
        jnil[i, i + 1] = 1.0
    flip = np.fliplr(np.eye(sigma, dtype=np.complex128))
    return 1j * flip @ jnil, -1j * flip


def _skew_singular_pair(eps: int) -> tuple:
    """Skew pair carrying right and left minimal indices eps on 2*eps+1 dims."""
    n = 2 * eps + 1
    j1 = np.zeros((n, n), dtype=np.complex128)
    j2 = np.zeros((n, n), dtype=np.complex128)
    # basis: e_0..e_eps then f_0..f_{eps-1}
    for i in range(eps):
        e_next = eps + 1 + i  # f_i position
        j1[e_next, i + 1] = 1.0
        j1[i + 1, e_next] = -1.0
        j2[e_next, i] = 1.0
        j2[i, e_next] = -1.0
    return j1, j2


@dataclass(frozen=True)
class SkewPairSample:
    """Skew-Hermitian pair with its index and largest right minimal index."""

    j1: np.ndarray
    j2: np.ndarray
    index: int
    max_right_minimal: int


def random_skew_pair_with_index(rng, kappa: int, extra_blocks: int = 2) -> SkewPairSample:
    """Direct sum of skew canonical pieces with index exactly kappa.

    All right minimal indices are at most kappa - 1; a random unitary
    congruence hides the block structure without changing it.
    """
    rng = np.random.default_rng(rng)
    if kappa < 1:
        raise PreconditionError("kappa must be at least 1")
    parts = [_skew_infinite_pair(kappa)]
    max_right = None
    for _ in range(int(rng.integers(0, extra_blocks + 1))):
        kind = rng.integers(0, 3)
        if kind == 0:
            parts.append(_skew_infinite_pair(int(rng.integers(1, kappa + 1))))
        elif kind == 1:
            eps = int(rng.integers(0, kappa))
            parts.append(_skew_singular_pair(eps))
            max_right = eps if max_right is None else max(max_right, eps)
        else:
            c = float(rng.uniform(0.5, 2.0))
            parts.append(
                (np.array([[1j]], dtype=np.complex128), np.array([[1j * c]]))
            )
    n = sum(p[0].shape[0] for p in parts)
    j1 = np.zeros((n, n), dtype=np.complex128)
    j2 = np.zeros((n, n), dtype=np.complex128)
    at = 0
    for b1, b2 in parts:
        k = b1.shape[0]
        j1[at : at + k, at : at + k] = b1
        j2[at : at + k, at : at + k] = b2
        at += k
    u = random_unitary(rng, n)
    j1 = u.conj().T @ j1 @ u
    j2 = u.conj().T @ j2 @ u
    j1 = (j1 - j1.conj().T) / 2.0
    j2 = (j2 - j2.conj().T) / 2.0
    return SkewPairSample(j1, j2, kappa, -1 if max_right is None else max_right)


def random_admissible_structure(rng, variant: str, max_blocks: int = 3) -> KroneckerStructure:
    """Kronecker structure data satisfying the stability characterization."""
    rng = np.random.default_rng(rng)
    finite: list = []
    seen: set = set()
    for _ in range(int(rng.integers(0, max_blocks + 1))):
        re = -float(rng.uniform(0.2, 3.0))
        im = float(rng.uniform(-2.0, 2.0))
        lam = complex(round(re, 3), round(im, 3))
        if lam in seen:
            continue
        seen.add(lam)
        mults = tuple(sorted(int(rng.integers(1, 4)) for _ in range(rng.integers(1, 3))))
        finite.append((lam, mults))
    for _ in range(int(rng.integers(0, max_blocks + 1))):
        im = float(rng.uniform(0.2, 2.0)) * (1 if rng.integers(0, 2) else -1)
        lam = complex(0.0, round(im, 3))
        if lam in seen:
            continue
        seen.add(lam)
        count = int(rng.integers(1, 3))
        finite.append((lam, tuple([1] * count)))
    if variant == "q_identity":
        if rng.integers(0, 2):
            finite.append((0j, tuple([1] * int(rng.integers(1, 3)))))
        right = [0] * int(rng.integers(0, max_blocks + 1))
    else:
        if rng.integers(0, 2):
            finite.append((0j, tuple(sorted(int(rng.integers(1, 3)) for _ in range(rng.integers(1, 3))))))
        right = sorted(int(rng.integers(0, 2)) for _ in range(rng.integers(0, max_blocks + 1)))
    inf_sizes = sorted(int(rng.integers(1, 3)) for _ in range(rng.integers(0, max_blocks + 1)))
    left = [0] * len(right)
    finite.sort(key=lambda kv: (kv[0].real, kv[0].imag))
    total_finite = sum(sum(m) for _, m in finite)
    rows = sum(right) + sum(e + 1 for e in left) + total_finite + sum(inf_sizes)
    cols = sum(e + 1 for e in right) + sum(left) + total_finite + sum(inf_sizes)
    index = max(inf_sizes) if inf_sizes else 0
    regular = not right and rows == cols
    return KroneckerStructure(
        tuple(right), tuple(left), tuple(finite), tuple(inf_sizes),
        index, regular, rows, cols,
    )


def random_psd_polynomial(rng, n: int, degree: int, pd_constant: bool | None = None):
    """Matrix polynomial with random PSD coefficients.

    pd_constant defaults to True for even degrees so the even-degree
    linearization applies.
    """
    from .matpoly import MatrixPolynomial

    rng = np.random.default_rng(rng)
    if pd_constant is None:
        pd_constant = degree % 2 == 0
    coeffs = []
    for k in range(degree + 1):
        rank = int(rng.integers(0, n + 1))
        mat = random_psd_matrix(rng, n, rank=rank)
        if k == 0 and pd_constant:
            mat = mat + (0.2 + float(rng.uniform(0, 1))) * np.eye(n)
        coeffs.append(mat)
    if all(spectral_norm(c) == 0.0 for c in coeffs):
        coeffs[-1] = coeffs[-1] + np.eye(n)
    return MatrixPolynomial(tuple(coeffs))


def random_positive_cubic(rng) -> tuple:
    """Coefficients (a0, a1, a2, a3) drawn log-uniformly, all positive."""
    rng = np.random.default_rng(rng)
    return tuple(float(np.exp(rng.uniform(-1.5, 1.5))) for _ in range(4))
