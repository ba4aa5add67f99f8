"""Correctness checks on pencil-lab outputs, computed apart from the library.

Every check takes the program's output as parsed data plus the expectation
the benchmark built from its own inputs, and raises CheckError on the first
violation.  Nothing here imports pencillab: the references are scipy
eigenvalues, the benchmark's own quadratic forms and random searches, and
properties the paper's theory requires of any correct output.
"""

import math

import numpy as np
import scipy.linalg
from scipy.optimize import linear_sum_assignment

# eigenvalue agreement, relative to 1 + |lambda| (the library's own matching rule)
EIG_TOL = 1e-6
# pacman parameters are shrunk by this factor before testing sample points,
# so a point on the boundary ray is not a violation
PACMAN_SHRINK = 1.0 - 1e-6
# Rayleigh roots: angle tolerance in radians and the radius treated as zero
SECTOR_TOL = 1e-6
ZERO_RADIUS = 1e-8
# relative offset used to probe definiteness just below and above a threshold
BETA_PROBE = 1e-6
# quadratic-form values above this share of the coefficient scale violate
QUADFORM_TOL = 1e-10


class CheckError(AssertionError):
    """An output contradicts the benchmark's independent reference."""


def _require(cond, message):
    if not cond:
        raise CheckError(message)


def decode_complex(pair):
    return complex(float(pair[0]), float(pair[1]))


def match_eigenvalues(got, want, tol=EIG_TOL):
    """Pair two eigenvalue lists one to one and bound every distance."""
    got = np.asarray(got, dtype=np.complex128)
    want = np.asarray(want, dtype=np.complex128)
    _require(len(got) == len(want), f"{len(got)} eigenvalues, expected {len(want)}")
    if len(got) == 0:
        return
    cost = np.abs(got[:, None] - want[None, :])
    rows, cols = linear_sum_assignment(cost)
    worst = np.max(cost[rows, cols] / (1.0 + np.abs(want[cols])))
    _require(worst <= tol, f"eigenvalue off by {worst:.3e} (relative)")


def check_kcf_structure(kcf, truth):
    """A kcf report section against an assembled ground truth.

    truth holds the integer fields and the finite list as (lambda, mults).
    """
    for key in ("right_minimal_indices", "left_minimal_indices", "infinite_block_sizes"):
        _require(list(kcf[key]) == list(truth[key]), f"{key} {kcf[key]} != {truth[key]}")
    for key in ("index", "regular", "rows", "cols"):
        _require(kcf[key] == truth[key], f"{key} {kcf[key]!r} != {truth[key]!r}")
    got = sorted(
        ((decode_complex(f["eigenvalue"]), tuple(f["multiplicities"])) for f in kcf["finite"]),
        key=lambda item: item[1],
    )
    want = sorted(truth["finite"], key=lambda item: item[1])
    _require(
        [m for _, m in got] == [tuple(m) for _, m in want],
        "partial multiplicities differ from the assembled blocks",
    )
    for mults in {m for _, m in got}:
        match_eigenvalues(
            [lam for lam, m in got if m == mults],
            [lam for lam, m in want if tuple(m) == mults],
        )


def check_kcf_simple(kcf, eigenvalues):
    """A regular pencil with n simple eigenvalues computed by scipy."""
    n = len(eigenvalues)
    _require(kcf["regular"] is True, "pencil reported singular")
    _require(kcf["index"] == 0, f"index {kcf['index']} for an invertible lead")
    _require(kcf["rows"] == n and kcf["cols"] == n, "wrong dimensions")
    _require(
        not kcf["right_minimal_indices"] and not kcf["left_minimal_indices"],
        "minimal indices on a regular pencil",
    )
    _require(not kcf["infinite_block_sizes"], "blocks at infinity for an invertible lead")
    _require(
        all(list(f["multiplicities"]) == [1] for f in kcf["finite"]),
        "a simple eigenvalue reported with multiplicity",
    )
    match_eigenvalues([decode_complex(f["eigenvalue"]) for f in kcf["finite"]], eigenvalues)


def pencil_eigenvalues(j1, r1, j2, r2):
    """Eigenvalues of lam*(J1+R1) + (J2+R2), by scipy."""
    return scipy.linalg.eigvals(-(j2 + r2), j1 + r1)


def quadform_values(mats, X):
    """-(x*R1x)(x*R2x) + Re((x*J1x)(x*J2x)) for each row x of X."""
    j1, r1, j2, r2 = mats
    Xc = X.conj()
    q1 = np.einsum("ni,ni->n", Xc, X @ r1.T).real
    q2 = np.einsum("ni,ni->n", Xc, X @ r2.T).real
    w1 = np.einsum("ni,ni->n", Xc, X @ j1.T)
    w2 = np.einsum("ni,ni->n", Xc, X @ j2.T)
    return -q1 * q2 + (w1 * w2).real


def quadform_scale(mats):
    j1, r1, j2, r2 = (np.linalg.norm(m, 2) for m in mats)
    return QUADFORM_TOL * max(r1 * r2, j1 * j2)


def unit_vectors(rng, count, n):
    X = rng.standard_normal((count, n)) + 1j * rng.standard_normal((count, n))
    return X / np.linalg.norm(X, axis=1)[:, None]


def range_points(mats, X):
    """Numerical-range points -(x*C x)/(x*L x) of lam*L + C."""
    j1, r1, j2, r2 = mats
    Xc = X.conj()
    ql = np.einsum("ni,ni->n", Xc, X @ (j1 + r1).T)
    qc = np.einsum("ni,ni->n", Xc, X @ (j2 + r2).T)
    keep = np.abs(ql) > 1e-12 * np.linalg.norm(j1 + r1, 2)
    return -qc[keep] / ql[keep]


def check_certificate(cert, mats, expect, reference):
    """The certify section of a posH report.

    expect is the status family the input was built for; reference holds
    the benchmark's own random search: the largest quadratic-form value
    found, scipy's pencil eigenvalues and the benchmark's range samples.
    """
    status = cert["eejjx_status"]
    if expect == "norms":
        _require(status == "proved_by_norms", f"norm-bound input reported {status}")
    if status == "falsified":
        _require(cert["witness"] is not None, "falsified without a witness")
        x = np.array([decode_complex(v) for v in cert["witness"]])
        value = float(quadform_values(mats, x[None, :])[0])
        _require(value > 0.0, f"witness gives quadratic-form value {value:.3e}")
    elif status.startswith("proved_by_"):
        _require(
            reference["search_max"] <= quadform_scale(mats),
            f"{status} contradicted: random search found value {reference['search_max']:.3e}",
        )
    conclusion = cert["conclusion"]
    if conclusion == "eigenvalues_in_lhp":
        worst = float(np.max(np.real(reference["eigenvalues"])))
        _require(worst <= 1e-8, f"eigenvalue with real part {worst:.3e}")
    elif conclusion == "numrange_in_lhp":
        worst = float(np.max(np.real(reference["range_points"])))
        _require(worst <= 1e-8, f"range point with real part {worst:.3e}")


def check_polynomial_report(results, degree, eigenvalues):
    idx = results["polynomial_index"]
    _require(idx["degree_bound"] == degree, "degree bound is not the degree")
    _require(0 <= idx["computed"] <= degree, f"index {idx['computed']} exceeds degree {degree}")
    cubic = results.get("cubic_stability")
    _require((cubic is not None) == (degree == 3), "cubic section present iff degree 3")
    if cubic is not None and cubic["conclusion"] == "lhp_certified":
        worst = float(np.max(np.real(eigenvalues)))
        _require(worst < 0.0, f"certified cubic has an eigenvalue with real part {worst:.3e}")


def polynomial_eigenvalues(coefficients):
    """Finite eigenvalues of sum A_k lam^k from its block companion pencil."""
    d = len(coefficients) - 1
    n = coefficients[0].shape[0]
    a = np.zeros((d * n, d * n), dtype=np.complex128)
    b = np.eye(d * n, dtype=np.complex128)
    a[: (d - 1) * n, n:] = np.eye((d - 1) * n)
    for k in range(d):
        a[(d - 1) * n :, k * n : (k + 1) * n] = -coefficients[k]
    b[(d - 1) * n :, (d - 1) * n :] = coefficients[d]
    w = scipy.linalg.eigvals(a, b)
    return w[np.isfinite(w)]


def in_pacman(points, beta, sign):
    """Mask of points inside the pacman region {beta, sign}."""
    z = np.asarray(points, dtype=np.complex128)
    im = z.imag if sign == "plus" else -z.imag
    angle = math.atan(beta)
    arg = np.angle(z) if sign == "plus" else -np.angle(z)
    return (z.real > 0.0) & (im >= 0.0) & (im < beta) & (arg >= 0.0) & (arg < angle)


def parse_regions(doc):
    return [
        (math.inf if r["beta"] == "inf" else float(r["beta"]), r["sign"]) for r in doc
    ]


def parse_points_csv(text):
    lines = text.splitlines()
    _require(lines and lines[0] == "re,im", "point file lacks its header")
    if len(lines) == 1:
        return np.zeros(0, dtype=np.complex128)
    arr = np.array([line.split(",") for line in lines[1:]], dtype=float)
    return arr[:, 0] + 1j * arr[:, 1]


def check_numrange(points, summary, requested, regions, mats):
    """Point count, pacman exclusion and the definiteness thresholds.

    summary is (retained, discarded) from the command's own message.
    """
    retained, discarded = summary
    _require(len(regions) == 2, f"{len(regions)} regions for a definite R1 + R2")
    _require(retained == len(points), f"{len(points)} points written, {retained} reported")
    _require(retained + discarded == requested, "retained plus discarded != requested")
    j1, r1, j2, r2 = mats
    h0 = r1 + r2
    k = 1j * j1
    for beta, sign in regions:
        shrunk = beta if math.isinf(beta) else beta * PACMAN_SHRINK
        hits = int(np.count_nonzero(in_pacman(points, shrunk, sign)))
        _require(hits == 0, f"{hits} points inside the {sign} region beta={beta}")
        direction = k if sign == "plus" else -k
        if math.isinf(beta):
            probes = [(10.0 ** e, True) for e in (0, 3, 6)]
        else:
            step = BETA_PROBE * max(1.0, beta)
            probes = [(beta - step, True), (beta + step, False)]
        for b, definite in probes:
            lo = float(np.linalg.eigvalsh(h0 + b * direction)[0])
            _require(
                (lo > 0.0) == definite,
                f"{sign} threshold {beta}: smallest eigenvalue {lo:.3e} at beta={b}",
            )


def check_rayleigh_roots(roots, degree, samples):
    _require(len(roots) == degree * samples, f"{len(roots)} roots for {samples} samples")
    z = np.asarray(roots, dtype=np.complex128)
    bound = math.pi / degree - SECTOR_TOL
    bad = (np.abs(z) > ZERO_RADIUS) & (np.abs(np.angle(z)) < bound)
    _require(not bad.any(), f"{int(bad.sum())} roots inside |arg z| < pi/{degree}")


def check_same_bytes(first, again):
    _require(first == again, "report differs between passes with the same seed")

