"""Command line surface for pencil and polynomial analysis.

Subcommands: validate, kcf, dh-check, dh-realize, numrange, beta, certify,
eig, polystab, lin, report.  Machine-readable output is JSON with sorted
keys and no timestamps, so identical input, flags, seed, and version give
byte-identical files.

Exit codes: 0 success, 2 parse error, 3 precondition failure,
4 rank ambiguity, 5 internal error.
"""

import argparse
import functools
import os
import sys

import numpy as np

from . import __version__
from .core import (
    AXIS_TOL,
    STRUCTURE_DRIFT_TOL,
    Pencil,
    PoshPencil,
    psd_spectrum,
    spectral_norm,
    validate_posh,
)
from .dh import GENERAL_Q, Q_IDENTITY, check_dh_equivalence, realize_dh
from .errors import (
    DimensionError,
    InputFormatError,
    PencilLabError,
    PreconditionError,
    RankAmbiguityError,
)
from .fileio import (
    atomic_write_text,
    complex_to_json,
    float_to_json,
    load_input_file,
    load_pencil_file,
    load_polynomial_file,
    matrix_to_json,
    points_to_csv,
    region_to_json,
    regions_to_json,
    report_to_json,
)
from .kcf import kronecker_structure
from .localization import lhp_certificate
from .matpoly import (
    MatrixPolynomial,
    cubic_stability,
    linearize_cubic,
    linearize_even,
    linearize_odd,
    mgt_stability,
    polynomial_index,
)
from .numrange import (
    DENOMINATOR_CUTOFF,
    EMISSION_RESIDUAL,
    beta_thresholds,
    beta_thresholds_scaled,
    nocommon_chain_report,
    pacman_betas,
    pacman_regions,
    sample_numerical_range,
)

DEFAULT_SEED = 123456789

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_PRECONDITION = 3
EXIT_AMBIGUOUS = 4
EXIT_INTERNAL = 5


def _resolve_seed(args) -> int:
    if getattr(args, "seed", None) is not None:
        return int(args.seed)
    env = os.environ.get("PENCIL_LAB_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError as err:
            raise InputFormatError(
                f"PENCIL_LAB_SEED must be an integer, got {env!r}"
            ) from err
    return DEFAULT_SEED


def _as_posh(obj) -> PoshPencil:
    if isinstance(obj, PoshPencil):
        return obj
    return validate_posh(obj)


def _as_pencil(obj) -> Pencil:
    return obj.pencil() if isinstance(obj, PoshPencil) else obj


def _fingerprint(path: str, digest: str, obj) -> dict:
    fp = {"file": path, "sha256": digest}
    if isinstance(obj, PoshPencil):
        fp["kind"] = "posh_pencil"
        fp["n"] = int(obj.j1.shape[0])
        fp["norms"] = {k: obj.norm(k) for k in ("j1", "r1", "j2", "r2")}
    elif isinstance(obj, Pencil):
        fp["kind"] = "pencil"
        fp["rows"], fp["cols"] = (int(v) for v in obj.lead.shape)
        fp["convention"] = obj.convention
        fp["norms"] = {"lead": obj.norm("lead"), "const": obj.norm("constant")}
    elif isinstance(obj, MatrixPolynomial):
        fp["kind"] = "matrix_polynomial"
        fp["n"] = obj.n
        fp["degree"] = obj.degree
        fp["norms"] = {
            f"a{k}": spectral_norm(a) for k, a in enumerate(obj.coefficients)
        }
    return fp


def _report(path, digest, obj, analyses: dict, seed=None, tolerances=None) -> dict:
    out = {
        "fingerprint": _fingerprint(path, digest, obj),
        "requested": sorted(analyses),
        "results": analyses,
        "tool_version": __version__,
    }
    if seed is not None:
        out["seed"] = int(seed)
    if tolerances:
        out["tolerances"] = tolerances
    return out


def _emit(args, report: dict):
    text = report_to_json(report)
    if getattr(args, "out", None):
        atomic_write_text(args.out, text)
    else:
        sys.stdout.write(text)


def _structure_json(ks) -> dict:
    return {
        "evidence": "exact",
        "right_minimal_indices": list(ks.right_minimal_indices),
        "left_minimal_indices": list(ks.left_minimal_indices),
        "finite": [
            {"eigenvalue": complex_to_json(lam), "multiplicities": list(mults)}
            for lam, mults in ks.finite_eigenstructure
        ],
        "infinite_block_sizes": list(ks.infinite_block_sizes),
        "index": ks.index,
        "regular": ks.regular,
        "rows": ks.rows,
        "cols": ks.cols,
    }


def _beta_json(bt) -> dict:
    out = {
        "evidence": "exact",
        "beta_plus": float_to_json(bt.beta_plus),
        "beta_minus": float_to_json(bt.beta_minus),
        "lower_bound": float_to_json(bt.lower_bound),
    }
    if bt.strip_bound is not None:
        out["strip_bound"] = float_to_json(bt.strip_bound)
    return out


def _cubic_json(cs) -> dict:
    return {
        "conclusion": cs.conclusion,
        "hypotheses_hold": cs.hypotheses_hold,
        "pos2_holds": cs.pos2_holds,
        "beta_star": float_to_json(cs.beta_star),
        "evidence": "exact",
    }


def _certificate_json(cert) -> dict:
    return {
        "eejjx_status": cert.eejjx_status,
        "hypothesis_route": cert.hypothesis_route,
        "conclusion": cert.conclusion,
        "evidence": cert.evidence,
        "witness": None if cert.witness is None else [
            complex_to_json(complex(v)) for v in np.asarray(cert.witness).ravel()
        ],
        "notes": list(cert.notes),
    }


def _chain_json(chain) -> dict:
    def link(v):
        return {"value": v.value, "evidence": v.evidence, "detail": v.detail}

    return {
        "kernels_trivial": link(chain.a),
        "no_positive_reals": link(chain.b),
        "not_whole_plane": link(chain.c),
        "no_common_isotropic": link(chain.d),
        "pencil_regular": link(chain.e),
        "real_case": chain.real_case,
        "notes": list(chain.notes),
    }


def _dh_verdict_json(verdict) -> dict:
    return {
        "variant": verdict.variant,
        "holds": verdict.holds,
        "violated_conditions": list(verdict.violated_conditions),
        "witness": None if verdict.witness is None else str(verdict.witness),
        "evidence": "exact",
    }


def cmd_validate(args) -> int:
    obj, digest = load_pencil_file(args.file)
    pp = _as_posh(obj)
    n = pp.j1.shape[0]
    print(f"posH pencil of size {n}: valid")
    rep = _report(
        args.file,
        digest,
        pp,
        {
            "validate": {
                "valid": True,
                "evidence": "exact",
                "psd_margins": {
                    "r1": psd_spectrum(pp.r1)[0],
                    "r2": psd_spectrum(pp.r2)[0],
                },
            }
        },
    )
    _emit(args, rep) if args.out else None
    return EXIT_OK


def cmd_kcf(args) -> int:
    obj, digest = load_pencil_file(args.file)
    ks = kronecker_structure(_as_pencil(obj))
    _emit(args, _report(args.file, digest, obj, {"kcf": _structure_json(ks)}))
    return EXIT_OK


def cmd_dh_check(args) -> int:
    obj, digest = load_pencil_file(args.file)
    ks = kronecker_structure(_as_pencil(obj))
    verdict = check_dh_equivalence(ks, args.variant)
    if verdict.holds:
        print(f"dh-equivalence ({args.variant}): holds")
    else:
        print(
            f"dh-equivalence ({args.variant}): fails "
            f"[{', '.join(verdict.violated_conditions)}]"
        )
    rep = _report(
        args.file,
        digest,
        obj,
        {"kcf": _structure_json(ks), "dh_check": _dh_verdict_json(verdict)},
    )
    _emit(args, rep) if args.out else None
    return EXIT_OK


def cmd_dh_realize(args) -> int:
    obj, _ = load_pencil_file(args.file)
    ks = kronecker_structure(_as_pencil(obj))
    dh = realize_dh(ks, args.variant)
    doc = {
        "variant": args.variant,
        "n": int(dh.e.shape[0]),
        "e": matrix_to_json(dh.e),
        "j": matrix_to_json(dh.j),
        "r": matrix_to_json(dh.r),
        "q": matrix_to_json(dh.q),
    }
    text = report_to_json(doc)
    if args.out:
        atomic_write_text(args.out, text)
        print(f"wrote realization of size {doc['n']} to {args.out}")
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_numrange(args) -> int:
    obj, _ = load_pencil_file(args.file)
    pp = _as_posh(obj)
    seed = _resolve_seed(args)
    sample = sample_numerical_range(pp.pencil(), args.samples, seed)
    regions = pacman_regions(*pacman_betas(pp))
    csv_text = points_to_csv(sample.points)
    if args.out:
        atomic_write_text(args.out, csv_text)
        print(
            f"wrote {len(sample.points)} points to {args.out} "
            f"({sample.discarded} discarded, seed {seed})"
        )
    else:
        sys.stdout.write(csv_text)
    if args.regions:
        atomic_write_text(args.regions, regions_to_json(regions))
        print(f"wrote {len(regions)} regions to {args.regions}")
    if args.svg:
        from .fileio import render_scatter_svg

        atomic_write_text(args.svg, render_scatter_svg(sample.points, regions))
        print(f"wrote scatter plot to {args.svg}")
    return EXIT_OK


def cmd_beta(args) -> int:
    obj, digest = load_pencil_file(args.file)
    pp = _as_posh(obj)
    if args.scale is not None:
        bt = beta_thresholds_scaled(pp, args.scale)
    else:
        bt = beta_thresholds(pp)
    payload = _beta_json(bt)
    print(
        f"beta_plus={payload['beta_plus']} beta_minus={payload['beta_minus']} "
        f"lower_bound={payload['lower_bound']}"
        + (f" strip_bound={payload['strip_bound']}" if "strip_bound" in payload else "")
    )
    _emit(args, _report(args.file, digest, pp, {"beta": payload})) if args.out else None
    return EXIT_OK


def cmd_certify(args) -> int:
    obj, digest = load_pencil_file(args.file)
    pp = _as_posh(obj)
    seed = _resolve_seed(args)
    cert = lhp_certificate(pp, falsify_budget=args.budget, seed=seed)
    print(
        f"eejjx: {cert.eejjx_status}; route: {cert.hypothesis_route}; "
        f"conclusion: {cert.conclusion} ({cert.evidence})"
    )
    rep = _report(
        args.file, digest, pp, {"certify": _certificate_json(cert)}, seed=seed
    )
    _emit(args, rep) if args.out else None
    return EXIT_OK


def cmd_eig(args) -> int:
    obj, digest = load_pencil_file(args.file)
    ks = kronecker_structure(_as_pencil(obj))
    lines = []
    for lam, mults in ks.finite_eigenstructure:
        for _ in range(sum(mults)):
            lines.append(f"{lam.real:.12g}{lam.imag:+.12g}j")
    for _ in ks.infinite_block_sizes:
        lines.append("inf")
    for line in lines:
        print(line)
    if not ks.regular and (ks.right_minimal_indices or ks.left_minimal_indices):
        print(
            f"singular pencil: right minimal {list(ks.right_minimal_indices)}, "
            f"left minimal {list(ks.left_minimal_indices)}"
        )
    if args.out:
        _emit(args, _report(args.file, digest, obj, {"kcf": _structure_json(ks)}))
    return EXIT_OK


def _detect_mgt(poly: MatrixPolynomial):
    """Recognize lambda^3 I + a lambda^2 I + b lambda T + c T coefficients."""
    a0, a1, a2, a3 = poly.coefficients
    n = poly.n
    eye = np.eye(n)
    tol = STRUCTURE_DRIFT_TOL
    if spectral_norm(a3 - eye) > tol:
        return None
    a = float(np.real(a2[0, 0])) if n else 0.0
    if spectral_norm(a2 - a * eye) > tol * (1 + abs(a)) or a <= 0:
        return None
    s1 = spectral_norm(a1)
    if s1 <= tol:
        return None
    # a0 must be a positive multiple of a1
    ratio = float(np.real(np.trace(a1.conj().T @ a0) / np.trace(a1.conj().T @ a1)))
    if ratio <= 0 or spectral_norm(a0 - ratio * a1) > tol * (1 + spectral_norm(a0)):
        return None
    return a, ratio


def cmd_polystab(args) -> int:
    poly, digest = load_polynomial_file(args.file)
    if poly.degree != 3:
        raise PreconditionError(
            f"stability certificates cover degree 3, got degree {poly.degree}; "
            "use 'lin' and 'eig' for other degrees"
        )
    rep = cubic_stability(poly)
    cubic = _cubic_json(rep)
    cubic["excluded_regions"] = [region_to_json(r) for r in rep.excluded_regions]
    results = {"cubic_stability": cubic}
    mgt = _detect_mgt(poly)
    if mgt is not None:
        a, ratio = mgt
        verdict = mgt_stability(a, 1.0, ratio, poly.coefficients[1])
        results["mgt"] = {
            "detected": True,
            "a": a,
            "c_over_b": ratio,
            "verdict": verdict,
            "evidence": "exact",
        }
    print(f"conclusion: {rep.conclusion}" + (f"; mgt verdict: {results['mgt']['verdict']}" if mgt else ""))
    _emit(args, _report(args.file, digest, poly, results)) if args.out else None
    return EXIT_OK


def cmd_lin(args) -> int:
    poly, _ = load_polynomial_file(args.file)
    form = args.form
    if form == "auto":
        form = "odd" if poly.degree % 2 == 1 else "even"
    builder = {"odd": linearize_odd, "even": linearize_even, "cubic": linearize_cubic}[form]
    pp = builder(poly)
    doc = {
        "form": form,
        "n": int(pp.j1.shape[0]),
        "j1": matrix_to_json(pp.j1),
        "r1": matrix_to_json(pp.r1),
        "j2": matrix_to_json(pp.j2),
        "r2": matrix_to_json(pp.r2),
    }
    text = report_to_json(doc)
    if args.out:
        atomic_write_text(args.out, text)
        print(f"wrote {form} linearization of size {doc['n']} to {args.out}")
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_report(args) -> int:
    seed = _resolve_seed(args)
    obj, digest = load_input_file(args.file)
    if isinstance(obj, MatrixPolynomial):
        results = {}
        idx, bound = polynomial_index(obj)
        results["polynomial_index"] = {
            "computed": idx,
            "degree_bound": bound,
            "evidence": "exact",
        }
        if obj.degree == 3:
            results["cubic_stability"] = _cubic_json(cubic_stability(obj))
        rep = _report(args.file, digest, obj, results, seed=seed)
        _emit(args, rep)
        return EXIT_OK

    results = {}
    try:
        pp = _as_posh(obj)
        results["validate"] = {"valid": True, "evidence": "exact"}
    except PreconditionError as err:
        pp = None
        results["validate"] = {"valid": False, "evidence": "exact", "reason": str(err)}
    ks = kronecker_structure(_as_pencil(obj))
    results["kcf"] = _structure_json(ks)
    verdict = check_dh_equivalence(ks, args.variant)
    results["dh_check"] = _dh_verdict_json(verdict)
    if pp is not None:
        results["beta"] = _beta_json(beta_thresholds(pp))
        sample = sample_numerical_range(pp.pencil(), args.samples, seed)
        results["numrange"] = {
            "evidence": "sampled",
            "samples": sample.sample_count,
            "emitted": len(sample.points),
            "discarded": sample.discarded,
            "real_part_max": (
                max(z.real for z in sample.points) if sample.points else None
            ),
        }
        results["certify"] = _certificate_json(lhp_certificate(pp, falsify_budget=args.samples, seed=seed))
        results["nocommon_chain"] = _chain_json(nocommon_chain_report(pp))
    rep = _report(
        args.file,
        digest,
        obj,
        results,
        seed=seed,
        tolerances={
            "axis": AXIS_TOL,
            "denominator_cutoff": DENOMINATOR_CUTOFF,
            "emission_residual": EMISSION_RESIDUAL,
        },
    )
    _emit(args, rep)
    return EXIT_OK


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # built once per process: parse_args leaves the parser unchanged
    parser = argparse.ArgumentParser(
        prog="pencil-lab",
        description="Analyze matrix pencils whose coefficients have PSD Hermitian parts.",
    )
    parser.add_argument("--version", action="version", version=f"pencil-lab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text, **flags):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("file", help="input file")
        if flags.get("out", True):
            p.add_argument("--out", help="write the JSON report here")
        if flags.get("seed"):
            p.add_argument("--seed", type=int, help="sampling seed (beats PENCIL_LAB_SEED)")
        if flags.get("variant"):
            p.add_argument(
                "--variant",
                choices=[GENERAL_Q, Q_IDENTITY],
                default=GENERAL_Q,
                help="which dH characterization to use",
            )
        p.set_defaults(handler=func.__name__)
        return p

    add("validate", cmd_validate, "check the posH structure of a pencil file")
    add("kcf", cmd_kcf, "extract the complete Kronecker structure")
    add("dh-check", cmd_dh_check, "test dH-equivalence conditions", variant=True)
    add("dh-realize", cmd_dh_realize, "construct a dH pencil with the same structure", variant=True)
    p_num = add("numrange", cmd_numrange, "sample the numerical range", seed=True, out=False)
    p_num.add_argument("--samples", type=int, default=10000, help="sample count")
    p_num.add_argument("--out", help="write the point cloud CSV here")
    p_num.add_argument("--regions", help="write the excluded regions JSON here")
    p_num.add_argument("--svg", help="write a static scatter plot here")
    p_beta = add("beta", cmd_beta, "definiteness thresholds and bounds")
    p_beta.add_argument("--scale", type=float, help="report thresholds of the scaled pencil")
    p_cert = add("certify", cmd_certify, "left-half-plane certificate", seed=True)
    p_cert.add_argument("--budget", type=int, default=2000, help="falsifier budget")
    add("eig", cmd_eig, "print the eigenvalues with multiplicity")
    add("polystab", cmd_polystab, "cubic stability certificate (and MGT form)")
    p_lin = add("lin", cmd_lin, "emit a structured linearization")
    p_lin.add_argument(
        "--form", choices=["auto", "odd", "even", "cubic"], default="auto"
    )
    p_rep = add("report", cmd_report, "run every applicable analysis", seed=True, variant=True)
    p_rep.add_argument("--samples", type=int, default=2000, help="sampling budget")
    return parser


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as err:
        # argparse exits 2 on usage errors, which matches the parse-error code
        return int(err.code or 0)
    try:
        # looked up by name on each call, so the parser, built once, still
        # dispatches through the module binding as every other call does
        return globals()[args.handler](args)
    except (InputFormatError, DimensionError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_PARSE
    except RankAmbiguityError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_AMBIGUOUS
    except PreconditionError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_PRECONDITION
    except PencilLabError as err:
        print(f"internal error: {err}", file=sys.stderr)
        return EXIT_INTERNAL
    except Exception as err:  # pragma: no cover - safety net
        print(f"internal error: {type(err).__name__}: {err}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
