"""File formats: JSON pencils and polynomials, CSV point clouds, SVG plots.

All writers are atomic (temp file then rename) and deterministic: no
timestamps, sorted keys, repr-stable floats.  Complex scalars travel as
[re, im] pairs.
"""

import gc
import hashlib
import json
import math
import os
import tempfile

import numpy as np
import orjson

from .core import MINUS, PLUS, Pencil, PoshPencil
from .errors import InputFormatError
from .matpoly import MatrixPolynomial
from .numrange import PacmanRegion


def _decode_json(raw: bytes, path: str):
    """The value a JSON text of UTF-8 bytes holds, by orjson.

    orjson parses floats exactly as json does, and rejects NaN, Infinity,
    numbers that overflow to inf, a byte order mark and trailing content.
    """
    try:
        return orjson.loads(raw)
    except orjson.JSONDecodeError as err:
        try:
            raw.decode("utf-8")
        except UnicodeDecodeError as utf_err:
            raise InputFormatError(f"{path}: not valid UTF-8 ({utf_err})") from err
        raise InputFormatError(
            f"{path}: line {err.lineno}, column {err.colno}: {err.msg}"
        ) from err


def _read_bytes(path: str) -> bytes:
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as err:
        raise InputFormatError(f"cannot read {path}: {err}") from err


def _load(path: str, build) -> tuple:
    """build(doc, path) on the JSON document in file path, and the file's sha256.

    The cyclic garbage collector is paused from the decode until the document
    is dropped, so no collection walks the many [re, im] lists while they are
    decoded and converted to arrays; a decoded document has no reference
    cycles, so such a collection could free nothing.  The pause is
    process-wide: collections that other threads would start are put off
    until the window closes, and none is skipped.  A collector that was
    disabled on entry stays disabled.
    """
    raw = _read_bytes(path)
    digest = hashlib.sha256(raw).hexdigest()
    enabled = gc.isenabled()
    gc.disable()
    try:
        doc = _decode_json(raw, path)
        value = build(doc, path)
        # freed by reference counting while the collector is still paused
        del doc
    finally:
        if enabled:
            gc.enable()
    return value, digest


def _require_object(doc, path: str):
    if not isinstance(doc, dict):
        raise InputFormatError(f"{path}: top-level value must be an object")


def _parse_complex(value, where: str) -> complex:
    if (
        not isinstance(value, (list, tuple))
        or len(value) != 2
        or not all(isinstance(v, (int, float)) for v in value)
    ):
        raise InputFormatError(f"{where}: expected a [re, im] pair, got {value!r}")
    return complex(float(value[0]), float(value[1]))


def parse_matrix(obj, where: str) -> np.ndarray:
    """Nested [re, im] lists, as decoded from JSON, to a complex matrix.

    A well-formed matrix is converted by one array call; anything else is
    walked entry by entry, so a rejection names the offending entry.
    """
    try:
        arr = np.array(obj)
    except ValueError:  # ragged nesting
        arr = None
    if (
        arr is not None
        and arr.dtype.kind in "biuf"
        and arr.ndim == 3
        and arr.shape[0] >= 1
        and arr.shape[2] == 2
    ):
        # the float64 (re, im) pairs of a C-ordered array are complex128 entries
        return np.ascontiguousarray(arr, dtype=np.float64).view(np.complex128)[..., 0]
    if not isinstance(obj, list) or not obj:
        raise InputFormatError(f"{where}: expected a nonempty list of rows")
    width = None
    rows = []
    for i, row in enumerate(obj):
        if not isinstance(row, list):
            raise InputFormatError(f"{where}[{i}]: expected a list")
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise InputFormatError(
                f"{where}[{i}]: row has {len(row)} entries, expected {width}"
            )
        rows.append([_parse_complex(v, f"{where}[{i}][{j}]") for j, v in enumerate(row)])
    return np.array(rows, dtype=np.complex128)


def _declared_int(doc: dict, key: str, path: str):
    """The size doc declares under key, or None; it must be a JSON integer."""
    if key not in doc:
        return None
    value = doc[key]
    # bool is an int subclass, but true is no size
    if type(value) is not int:
        raise InputFormatError(f"{path}: declared {key} must be an integer, got {value!r}")
    return value


def matrix_to_json(mat) -> list:
    arr = np.asarray(mat, dtype=np.complex128)
    return [
        [[float(v.real), float(v.imag)] for v in row]
        for row in arr
    ]


def load_pencil_file(path: str) -> tuple:
    """Load a pencil document: a PoshPencil or a plain Pencil, and the file's sha256."""
    return _load(path, pencil_from_document)


def load_input_file(path: str) -> tuple:
    """Load any analysis input and the file's sha256.

    A document with a coefficients key gives a MatrixPolynomial; any other
    gives a pencil, as :func:`load_pencil_file` does.
    """
    return _load(path, _input_from_document)


def _input_from_document(doc, path: str):
    if isinstance(doc, dict) and "coefficients" in doc:
        return polynomial_from_document(doc, path)
    return pencil_from_document(doc, path)


def pencil_from_document(doc: dict, path: str):
    """The pencil a decoded document holds; path only names it in errors.

    Documents with j1/r1/j2/r2 keys produce a PoshPencil; documents with
    lead/const produce a Pencil in the stated convention.
    """
    _require_object(doc, path)
    if all(k in doc for k in ("j1", "r1", "j2", "r2")):
        parts = [parse_matrix(doc[k], f"{path}:{k}") for k in ("j1", "r1", "j2", "r2")]
        n = parts[0].shape[0]
        for k, m in zip(("j1", "r1", "j2", "r2"), parts):
            if m.shape != (n, n):
                raise InputFormatError(f"{path}:{k}: expected shape {n}x{n}")
        declared = _declared_int(doc, "n", path)
        if declared is not None and declared != n:
            raise InputFormatError(f"{path}: declared n={declared} but matrices are {n}x{n}")
        return PoshPencil(*parts)
    if "lead" in doc and "const" in doc:
        lead = parse_matrix(doc["lead"], f"{path}:lead")
        const = parse_matrix(doc["const"], f"{path}:const")
        convention = doc.get("convention", PLUS)
        if convention not in (PLUS, MINUS):
            raise InputFormatError(
                f"{path}: convention must be 'plus' or 'minus', got {convention!r}"
            )
        declared = _declared_int(doc, "n", path)
        if declared is not None and lead.shape != (declared, declared):
            raise InputFormatError(f"{path}: declared n does not match matrix shape")
        return Pencil(lead, const, convention)
    raise InputFormatError(
        f"{path}: need either lead/const or j1/r1/j2/r2 keys"
    )


def load_polynomial_file(path: str) -> tuple[MatrixPolynomial, str]:
    """Load a polynomial document: the MatrixPolynomial and the file's sha256."""
    return _load(path, polynomial_from_document)


def polynomial_from_document(doc: dict, path: str) -> MatrixPolynomial:
    """The matrix polynomial a decoded document holds; path names it in errors."""
    _require_object(doc, path)
    if "coefficients" not in doc:
        raise InputFormatError(f"{path}: missing 'coefficients'")
    coeffs = doc["coefficients"]
    if not isinstance(coeffs, list) or len(coeffs) < 2:
        raise InputFormatError(f"{path}: coefficients must list A0..Ad with d >= 1")
    mats = [parse_matrix(c, f"{path}:coefficients[{k}]") for k, c in enumerate(coeffs)]
    declared = _declared_int(doc, "degree", path)
    if declared is not None and declared != len(mats) - 1:
        raise InputFormatError(f"{path}: declared degree {declared} but found {len(mats) - 1}")
    declared = _declared_int(doc, "n", path)
    if declared is not None and declared != mats[0].shape[0]:
        raise InputFormatError(f"{path}: declared n does not match coefficient shape")
    return MatrixPolynomial(tuple(mats))


def atomic_write_text(path: str, text: str):
    """Write via a sibling temp file and rename, so readers never see halves."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".pencillab-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def points_to_csv(points) -> str:
    """CSV text of complex points, one re,im row each, byte for byte as repr.

    orjson prints every float as its shortest round-trip digits, as repr
    does, and differs from repr only in exponent notation, which repr uses
    outside 1e-4 <= |v| < 1e16.  So all rows are printed by one orjson call,
    and only the rows with a nonzero value outside [1e-4, 1e16), or with
    a nan or inf (null to orjson), are printed again with repr.
    """
    xy = np.ascontiguousarray(points, dtype=np.complex128).view(np.float64).reshape(-1, 2)
    if not len(xy):
        return "re,im\n"
    rows = orjson.dumps(xy, option=orjson.OPT_SERIALIZE_NUMPY).decode()[2:-2].split("],[")
    size = np.abs(xy)
    notation = ~np.isfinite(xy) | ((xy != 0.0) & ((size < 1e-4) | (size >= 1e16)))
    for k in np.flatnonzero(notation.any(axis=1)).tolist():
        rows[k] = f"{xy[k, 0].item()!r},{xy[k, 1].item()!r}"
    return "re,im\n" + "\n".join(rows) + "\n"


def float_to_json(value):
    """A number for a JSON document: None stays null, an infinity is "inf"."""
    if value is None:
        return None
    return "inf" if math.isinf(value) else float(value)


def region_to_json(region: PacmanRegion) -> dict:
    return {"type": "pacman", "beta": float_to_json(region.beta), "sign": region.sign}


def regions_to_json(regions) -> str:
    entries = [region_to_json(r) for r in regions]
    return json.dumps(entries, sort_keys=True, indent=2) + "\n"


def parse_regions_json(path: str) -> list:
    return _load(path, _regions_from_document)[0]


def _regions_from_document(doc, path: str) -> list:
    if not isinstance(doc, list):
        raise InputFormatError(f"{path}: expected a list of region objects")
    out = []
    for k, entry in enumerate(doc):
        if not isinstance(entry, dict) or entry.get("type") != "pacman":
            raise InputFormatError(f"{path}[{k}]: expected a pacman region object")
        beta = entry.get("beta")
        if beta == "inf":
            beta = math.inf
        elif type(beta) not in (int, float):
            raise InputFormatError(f'{path}[{k}]: beta must be a number or "inf", got {beta!r}')
        try:
            out.append(PacmanRegion(beta, str(entry.get("sign"))))
        except InputFormatError as err:
            raise InputFormatError(f"{path}[{k}]: {err}") from err
    return out


def report_to_json(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def complex_to_json(z: complex):
    return [float(z.real), float(z.imag)]


# --- static SVG scatter rendering -----------------------------------------

_SVG_W = 640
_SVG_H = 480
_MARGIN = 40


def _pacman_path(region: PacmanRegion, to_px, x_hi: float, y_abs: float) -> str:
    """Polygonal outline of the region, clipped to the view box."""
    beta = min(region.beta, y_abs) if math.isinf(region.beta) else region.beta
    beta = min(beta, y_abs)
    if beta <= 0 or x_hi <= 0:
        return ""
    angle = math.atan(min(region.beta, 1e18))
    sign = 1.0 if region.sign == "plus" else -1.0
    pts = [(0.0, 0.0)]
    steps = 24
    # lower edge: the ray at arg z = +-arctan(beta), clipped
    for k in range(steps + 1):
        x = x_hi * k / steps
        y = min(x * math.tan(angle), beta) if angle < math.pi / 2 else beta
        pts.append((x, sign * min(y, beta)))
    pts.append((x_hi, 0.0))
    seen = []
    for x, y in pts:
        px, py = to_px(x, y)
        seen.append(f"{px:.2f},{py:.2f}")
    return "M" + " L".join(seen) + " Z"


def render_scatter_svg(points, regions=()) -> str:
    """Static scatter plot with optional excluded-region overlays."""
    xs = [complex(z).real for z in points]
    ys = [complex(z).imag for z in points]
    if xs:
        x_lo, x_hi = min(xs), max(xs)
        y_lo, y_hi = min(ys), max(ys)
    else:
        x_lo = x_hi = y_lo = y_hi = 0.0
    finite_betas = [r.beta for r in regions if not math.isinf(r.beta)]
    for b in finite_betas:
        y_lo = min(y_lo, -b)
        y_hi = max(y_hi, b)
    pad_x = 0.05 * (x_hi - x_lo) or 1.0
    pad_y = 0.05 * (y_hi - y_lo) or 1.0
    x_lo, x_hi = x_lo - pad_x, x_hi + pad_x
    y_lo, y_hi = y_lo - pad_y, y_hi + pad_y

    def to_px(x, y):
        px = _MARGIN + (x - x_lo) / (x_hi - x_lo) * (_SVG_W - 2 * _MARGIN)
        py = _SVG_H - _MARGIN - (y - y_lo) / (y_hi - y_lo) * (_SVG_H - 2 * _MARGIN)
        return px, py

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_W}" height="{_SVG_H}" '
        f'viewBox="0 0 {_SVG_W} {_SVG_H}">',
        f'<rect width="{_SVG_W}" height="{_SVG_H}" fill="white"/>',
    ]
    if x_lo < 0 < x_hi:
        px0, _ = to_px(0.0, 0.0)
        parts.append(
            f'<line x1="{px0:.2f}" y1="{_MARGIN}" x2="{px0:.2f}" '
            f'y2="{_SVG_H - _MARGIN}" stroke="#999" stroke-width="1"/>'
        )
    if y_lo < 0 < y_hi:
        _, py0 = to_px(0.0, 0.0)
        parts.append(
            f'<line x1="{_MARGIN}" y1="{py0:.2f}" x2="{_SVG_W - _MARGIN}" '
            f'y2="{py0:.2f}" stroke="#999" stroke-width="1"/>'
        )
    y_abs = max(abs(y_lo), abs(y_hi))
    for region in regions:
        path = _pacman_path(region, to_px, x_hi, y_abs)
        if path:
            parts.append(
                f'<path d="{path}" fill="#d62728" fill-opacity="0.15" '
                f'stroke="#d62728" stroke-width="1"/>'
            )
    for z in points:
        z = complex(z)
        px, py = to_px(z.real, z.imag)
        parts.append(f'<circle cx="{px:.2f}" cy="{py:.2f}" r="1.5" fill="#1f77b4"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
