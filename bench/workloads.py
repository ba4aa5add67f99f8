"""Seeded inputs and operations of the three benchmark workloads.

Inputs come from the benchmark's own numpy code, never from
pencillab.oracles, so a change to the library's generators cannot change a
workload.  Sizes and structures are fixed; --seed only draws the random
matrices, eigenvalues and transforms, and the sampling seeds passed to the
program.  The clustered-spectrum kcf inputs use a fixed seed of their own:
they fail on every seed, and the share of failed operations must not
depend on --seed.

Each Op runs one call in-process and returns its raw output; its check
parses that output and compares it with references computed here.  Checks
run after a pass, outside the timed region.
"""

import contextlib
import io
import json
import os
from dataclasses import dataclass

import numpy as np
import scipy.linalg

import checks

# seed of the clustered-spectrum kcf inputs (see CLUSTERED_SIZES)
CLUSTERED_SEED = 20210811
# exit code pencil-lab uses for a rank decision it refuses to guess
EXIT_AMBIGUOUS = 4
# random vectors in the benchmark's own falsifier and range sampler
SEARCH_VECTORS = 4000

# independent draws of each canonical-block template in the small class
KCF_DRAWS = 2
# condition number of the random equivalence transforms
KCF_COND = 3.0
KCF_GENERIC_SIZES = (80, 88)
CLUSTERED_SIZES = (32, 40)
# (n, samples) of the numrange pencils
NUMRANGE_SMALL = ((32, 20000),) * 3
NUMRANGE_LARGE = ((192, 1500),) * 2
# (n, degree, samples) of the Rayleigh-root polynomials
ROOTS = ((8, 3, 2000), (6, 4, 2000))
# (status family, n, file format) of the report pencil files, small and
# large class; a "plain" file holds lead/const, which report splits with
# validate_posh
REPORT_PENCILS_SMALL = (
    ("norms", 12, "posh"), ("kronecker", 12, "posh"),
    ("spectral", 12, "posh"), ("falsified", 16, "plain"),
)
REPORT_PENCILS_LARGE = (
    ("norms", 40, "posh"), ("kronecker", 32, "posh"),
    ("spectral", 32, "posh"), ("falsified", 32, "posh"),
)
# (n, degree, kind) of the report polynomial files
REPORT_POLYS = ((6, 3, "certified"), (8, 3, "random"), (6, 4, "random"), (4, 5, "random"))
REPORT_SAMPLES = 2000
# times the small-class block runs in one pass, spread between the other
# operations: short calls swing with the machine's speed from second to
# second, and more samples of them all through the run steady their medians
SMALL_REPEATS = {"kcf": 2, "report": 4, "sampling": 3}


@dataclass
class Op:
    """One benchmark operation: a timed call and the check of its output.

    check(output) returns True for a success, False for an expected failure
    (exit code 4 on a clustered input), and raises CheckError otherwise.
    """

    name: str
    klass: str
    kind: str
    call: object
    check: object
    expect_failure: bool = False


# --- matrices ---------------------------------------------------------------


def _gauss(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def skew(rng, n, scale=1.0):
    g = _gauss(rng, (n, n)) * scale
    return (g - g.conj().T) / 2.0


def psd(rng, n, rank=None, shift=0.0):
    r = n if rank is None else rank
    g = _gauss(rng, (n, r))
    m = g @ g.conj().T / r + shift * np.eye(n)
    return (m + m.conj().T) / 2.0


def _skew_part(m):
    return (m - m.conj().T) / 2.0


def _transform(rng, n, cond):
    """Random n x n matrix with singular values spread over [1, cond]."""
    u, _ = np.linalg.qr(_gauss(rng, (n, n)))
    v, _ = np.linalg.qr(_gauss(rng, (n, n)))
    s = np.geomspace(1.0, cond, n)
    rng.shuffle(s)
    return (u * s) @ v.conj().T


# --- file formats -----------------------------------------------------------


def _matrix_json(m):
    m = np.asarray(m, dtype=np.complex128)
    return np.stack([m.real, m.imag], axis=-1).tolist()


def write_posh(path, mats):
    doc = {"n": int(mats[0].shape[0])}
    doc.update({k: _matrix_json(m) for k, m in zip(("j1", "r1", "j2", "r2"), mats)})
    _write_json(path, doc)


def write_pencil(path, lead, const, convention="minus"):
    _write_json(
        path,
        {"convention": convention, "lead": _matrix_json(lead), "const": _matrix_json(const)},
    )


def write_polynomial(path, coefficients):
    _write_json(
        path,
        {
            "n": int(coefficients[0].shape[0]),
            "degree": len(coefficients) - 1,
            "coefficients": [_matrix_json(c) for c in coefficients],
        },
    )


def _write_json(path, doc):
    # json.dumps encodes in C; json.dump to a file falls back to Python
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(doc))


# --- running the program ----------------------------------------------------


def run_cli(argv):
    """pencillab.cli.main(argv) with stdout and stderr captured."""
    from pencillab import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _read(path):
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _require_ok(result):
    code, _, err = result
    if code != 0:
        raise checks.CheckError(f"exit code {code}: {err.strip()}")


# --- kcf ----------------------------------------------------------------------

# canonical-block templates of the small class: right and left minimal
# indices, Jordan chains at repeated eigenvalues, blocks at infinity and a
# number of simple eigenvalues drawn from a grid
KCF_TEMPLATES = (
    {"jordan": {-1 + 1j: (3, 2, 1), 0.5: (2, 2), -2.0: (1, 1, 1), 2j: (3,)},
     "infinite": (2, 1), "simple": 20},
    {"right": (0, 1, 2), "left": (1, 3), "jordan": {-1.0: (2, 1), 1 + 1j: (2,)},
     "infinite": (3, 1), "simple": 20},
    {"right": (1, 2), "left": (0, 2, 3), "jordan": {-0.5: (3, 3, 2), 1j: (2, 1)},
     "infinite": (2, 2, 1), "simple": 16},
    {"jordan": {0.0: (3, 2), -1.5: (3, 1)}, "infinite": (4, 3, 2, 1), "simple": 36},
)
_JORDAN_EIGENVALUES = [complex(lam) for t in KCF_TEMPLATES for lam in t.get("jordan", {})]
# pool of simple eigenvalues: a grid with spacing 0.75 away from the Jordan ones
_SIMPLE_POOL = [
    complex(x, y)
    for x in np.arange(-3.0, 3.01, 0.75)
    for y in np.arange(-3.0, 3.01, 0.75)
    if min(abs(complex(x, y) - lam) for lam in _JORDAN_EIGENVALUES) > 0.3
]


def _canonical_blocks(template, simple):
    """Block list [(kind, size, eigenvalue)] of one template."""
    blocks = [("right", e, None) for e in template.get("right", ())]
    blocks += [("left", e, None) for e in template.get("left", ())]
    for lam, sizes in template.get("jordan", {}).items():
        blocks += [("jordan", s, complex(lam)) for s in sizes]
    blocks += [("jordan", 1, lam) for lam in simple]
    blocks += [("infinite", s, None) for s in template.get("infinite", ())]
    return blocks


def _block(kind, size, lam):
    """(E, A) of one canonical block of lam*E - A."""
    if kind == "right":
        e = np.eye(size, size + 1)
        a = np.eye(size, size + 1, k=1)
    elif kind == "left":
        e = np.eye(size + 1, size)
        a = np.eye(size + 1, size, k=-1)
    elif kind == "jordan":
        e = np.eye(size)
        a = lam * np.eye(size) + np.eye(size, k=1)
    else:
        e = np.eye(size, k=1)
        a = np.eye(size)
    return e.astype(np.complex128), a.astype(np.complex128)


def assembled_pencil(rng, template, cond=KCF_COND):
    """Canonical blocks under random equivalence, with their ground truth."""
    pick = rng.choice(len(_SIMPLE_POOL), size=template["simple"], replace=False)
    blocks = _canonical_blocks(template, [_SIMPLE_POOL[i] for i in pick])
    parts = [_block(*b) for b in blocks]
    e = scipy.linalg.block_diag(*[p[0] for p in parts])
    a = scipy.linalg.block_diag(*[p[1] for p in parts])
    rows, cols = e.shape
    s = _transform(rng, rows, cond)
    t = _transform(rng, cols, cond)
    finite = {}
    for kind, size, lam in blocks:
        if kind == "jordan":
            finite.setdefault(lam, []).append(size)
    right = sorted(b[1] for b in blocks if b[0] == "right")
    left = sorted(b[1] for b in blocks if b[0] == "left")
    inf_sizes = sorted(b[1] for b in blocks if b[0] == "infinite")
    truth = {
        "right_minimal_indices": right,
        "left_minimal_indices": left,
        "infinite_block_sizes": inf_sizes,
        "index": max(inf_sizes, default=0),
        "regular": rows == cols and not right and not left,
        "rows": rows,
        "cols": cols,
        "finite": [(lam, tuple(sorted(m))) for lam, m in finite.items()],
    }
    return s @ e @ t, s @ a @ t, truth


def generic_posh(rng, n):
    """Regular posH pencil with definite Hermitian parts and simple spectrum."""
    return (skew(rng, n), psd(rng, n, shift=0.05), skew(rng, n), psd(rng, n, shift=0.05))


def clustered_posh(rng, n):
    """PoshPencil(J1, 0.01 R1, 2 J1, 0.01 R2) with R1, R2 of rank n/2."""
    j1 = skew(rng, n)
    return (j1, 0.01 * psd(rng, n, n // 2), 2.0 * j1, 0.01 * psd(rng, n, n // 2))


def _kcf_op(name, klass, path, out, check, expect_failure=False):
    def call():
        return run_cli(["kcf", path, "--out", out])

    def verify(result):
        code, _, err = result
        if expect_failure and code == EXIT_AMBIGUOUS:
            return False
        if code != 0:
            raise checks.CheckError(f"{name}: exit code {code}: {err.strip()}")
        check(json.loads(_read(out))["results"]["kcf"])
        return True

    return Op(name, klass, "kcf", call, verify, expect_failure)


def kcf_ops(seed, workdir):
    ops = []
    for i in range(KCF_DRAWS * len(KCF_TEMPLATES)):
        rng = np.random.default_rng([seed, 1, i])
        lead, const, truth = assembled_pencil(rng, KCF_TEMPLATES[i % len(KCF_TEMPLATES)])
        path = os.path.join(workdir, f"canon{i}.json")
        write_pencil(path, lead, const)
        ops.append(_kcf_op(
            f"canon{i}-{truth['rows']}x{truth['cols']}", "small", path,
            path + ".out", lambda kcf, truth=truth: checks.check_kcf_structure(kcf, truth),
        ))
    for i, n in enumerate(KCF_GENERIC_SIZES):
        rng = np.random.default_rng([seed, 2, i])
        mats = generic_posh(rng, n)
        path = os.path.join(workdir, f"generic{i}.json")
        write_posh(path, mats)
        eigs = checks.pencil_eigenvalues(*mats)
        ops.append(_kcf_op(
            f"generic-{n}", "large", path, path + ".out",
            lambda kcf, eigs=eigs: checks.check_kcf_simple(kcf, eigs),
        ))
    for i, n in enumerate(CLUSTERED_SIZES):
        rng = np.random.default_rng([CLUSTERED_SEED, i])
        mats = clustered_posh(rng, n)
        path = os.path.join(workdir, f"clustered{i}.json")
        write_posh(path, mats)
        eigs = checks.pencil_eigenvalues(*mats)
        ops.append(_kcf_op(
            f"clustered-{n}", "clustered", path, path + ".out",
            lambda kcf, eigs=eigs: checks.check_kcf_simple(kcf, eigs),
            expect_failure=True,
        ))
    return ops


# --- report -------------------------------------------------------------------


def report_pencil(rng, family, n):
    """posH pencil built to reach one certificate status."""
    if family == "norms":
        # lambda_min(R1) lambda_min(R2) >= 1 > ||J1|| ||J2||
        jscale = 0.3 / np.sqrt(n)
        return (
            skew(rng, n, jscale), psd(rng, n) * 0.1 + np.eye(n),
            skew(rng, n, jscale), psd(rng, n) * 0.1 + np.eye(n),
        )
    if family == "kronecker":
        # J_k = i K_k with K_k PSD: J1 (x) J2 - R1 (x) R2 is negative
        # semidefinite, while rank-deficient R's defeat the norm bound
        return (
            _skew_part(1j * psd(rng, n)), psd(rng, n, n // 2),
            _skew_part(1j * psd(rng, n)), psd(rng, n, n // 2),
        )
    if family == "spectral":
        # J2 proportional to an indefinite J1: the Kronecker matrix has
        # positive eigenvalues off the symmetric subspace
        j1 = skew(rng, n)
        return (j1, psd(rng, n, n // 2), 0.5 * j1, psd(rng, n, n // 2))
    return generic_posh(rng, n)


def report_polynomial(rng, n, degree, kind):
    if kind == "certified":
        # A3, A2 >= A3, A0, A1 >= A0 all positive definite
        a3 = psd(rng, n, shift=0.5)
        a2 = a3 + psd(rng, n, n // 2)
        a0 = psd(rng, n, shift=0.5)
        a1 = a0 + psd(rng, n, n // 2)
        return [a0, a1, a2, a3]
    coeffs = [psd(rng, n, int(rng.integers(1, n + 1))) for _ in range(degree + 1)]
    coeffs[0] = coeffs[0] + 0.5 * np.eye(n)
    coeffs[-1] = coeffs[-1] + 0.1 * np.eye(n)
    return coeffs


def _report_reference(mats, seed):
    """The benchmark's own search, eigenvalues and range samples."""
    rng = np.random.default_rng([seed, 99])
    X = checks.unit_vectors(rng, SEARCH_VECTORS, mats[0].shape[0])
    return {
        "search_max": float(np.max(checks.quadform_values(mats, X))),
        "eigenvalues": checks.pencil_eigenvalues(*mats),
        "range_points": checks.range_points(mats, X),
    }


def _report_op(name, klass, kind, path, seed, check):
    out = path + ".out"

    def call():
        return run_cli(["report", path, "--seed", str(seed),
                        "--samples", str(REPORT_SAMPLES), "--out", out])

    state = {}

    def verify(result):
        _require_ok(result)
        text = _read(out)
        if "first" in state:
            checks.check_same_bytes(state["first"], text)
        else:
            state["first"] = text
            check(json.loads(text)["results"])
        return True

    return Op(name, klass, kind, call, verify)


def report_ops(seed, workdir):
    ops = []
    pencils = [("small",) + p for p in REPORT_PENCILS_SMALL]
    pencils += [("large",) + p for p in REPORT_PENCILS_LARGE]
    for i, (klass, family, n, fmt) in enumerate(pencils):
        rng = np.random.default_rng([seed, 3, i])
        mats = report_pencil(rng, family, n)
        path = os.path.join(workdir, f"pencil{i}.json")
        if fmt == "plain":
            write_pencil(path, mats[0] + mats[1], mats[2] + mats[3], "plus")
        else:
            write_posh(path, mats)
        state = {}

        def check(results, mats=mats, family=family, state=state, i=i):
            if "reference" not in state:
                state["reference"] = _report_reference(mats, seed + i)
            checks.check_certificate(results["certify"], mats, family, state["reference"])

        ops.append(_report_op(f"{family}-{n}", klass, "report-pencil", path, seed, check))
    for i, (n, degree, kind) in enumerate(REPORT_POLYS):
        rng = np.random.default_rng([seed, 4, i])
        coeffs = report_polynomial(rng, n, degree, kind)
        path = os.path.join(workdir, f"poly{i}.json")
        write_polynomial(path, coeffs)

        def check(results, coeffs=coeffs, degree=degree):
            eigs = checks.polynomial_eigenvalues(coeffs) if degree == 3 else None
            checks.check_polynomial_report(results, degree, eigs)

        ops.append(_report_op(f"poly{degree}-{kind}-{n}", "small", "report-poly", path, seed, check))
    return ops


# --- sampling -----------------------------------------------------------------


def _parse_numrange_message(stdout):
    """(retained, discarded) from 'wrote R points to F (D discarded, seed S)'."""
    words = stdout.split()
    retained = int(words[words.index("wrote") + 1])
    discarded = int(words[words.index("discarded,") - 1].lstrip("("))
    return retained, discarded


def _numrange_op(name, klass, path, samples, seed, mats):
    out, regions = path + ".csv", path + ".regions.json"

    def call():
        return run_cli(["numrange", path, "--samples", str(samples), "--seed", str(seed),
                        "--out", out, "--regions", regions])

    def verify(result):
        _require_ok(result)
        with open(regions, encoding="utf-8") as fh:
            region_list = checks.parse_regions(json.load(fh))
        checks.check_numrange(
            checks.parse_points_csv(_read(out)),
            _parse_numrange_message(result[1]),
            samples,
            region_list,
            mats,
        )
        return True

    return Op(name, klass, "numrange", call, verify)


def _roots_op(name, coeffs, samples, seed):
    from pencillab import matpoly

    poly = matpoly.MatrixPolynomial(tuple(coeffs))
    degree = len(coeffs) - 1

    def call():
        return matpoly.sample_rayleigh_roots(poly, samples, seed)

    def verify(roots):
        checks.check_rayleigh_roots(roots, degree, samples)
        return True

    return Op(name, "small", "roots", call, verify)


def sampling_ops(seed, workdir):
    ops = []
    sizes = [("small", n, s) for n, s in NUMRANGE_SMALL]
    sizes += [("large", n, s) for n, s in NUMRANGE_LARGE]
    for i, (klass, n, samples) in enumerate(sizes):
        rng = np.random.default_rng([seed, 5, i])
        mats = generic_posh(rng, n)
        path = os.path.join(workdir, f"range{i}.json")
        write_posh(path, mats)
        ops.append(_numrange_op(f"numrange-{n}-{i}", klass, path, samples, seed + i, mats))
    for i, (n, degree, samples) in enumerate(ROOTS):
        rng = np.random.default_rng([seed, 6, i])
        coeffs = report_polynomial(rng, n, degree, "random")
        ops.append(_roots_op(f"roots-d{degree}-{n}", coeffs, samples, seed + i))
    return ops


WORKLOADS = {"kcf": kcf_ops, "report": report_ops, "sampling": sampling_ops}
