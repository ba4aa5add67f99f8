import gc
import hashlib
import json
import math
import os

import numpy as np
import orjson
import pytest

from pencillab import fileio
from pencillab.cli import main
from pencillab.core import Pencil, PoshPencil
from pencillab.errors import InputFormatError, PreconditionError
from pencillab.fileio import (
    _decode_json,
    atomic_write_text,
    load_input_file,
    load_pencil_file,
    load_polynomial_file,
    matrix_to_json,
    parse_matrix,
    parse_regions_json,
    points_to_csv,
    regions_to_json,
    render_scatter_svg,
    report_to_json,
)
from pencillab.matpoly import MatrixPolynomial
from pencillab.numrange import PacmanRegion
from pencillab.oracles import random_posh_pencil


def write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_matrix_round_trip():
    m = np.array([[1.0 + 2.0j, -0.5], [0.0, 3.0]])
    again = parse_matrix(matrix_to_json(m), "m")
    assert np.allclose(m, again)


def test_parse_matrix_rejects_ragged():
    with pytest.raises(InputFormatError):
        parse_matrix([[[1, 0]], [[1, 0], [2, 0]]], "m")
    with pytest.raises(InputFormatError):
        parse_matrix([], "m")
    with pytest.raises(InputFormatError):
        parse_matrix([[[1]]], "m")  # needs [re, im] pairs


def _walk_entries(obj, where):
    """The entry-by-entry parse that parse_matrix falls back to."""
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
        parsed = []
        for j, v in enumerate(row):
            if (
                not isinstance(v, (list, tuple))
                or len(v) != 2
                or not all(isinstance(x, (int, float)) for x in v)
            ):
                raise InputFormatError(f"{where}[{i}][{j}]: expected a [re, im] pair, got {v!r}")
            parsed.append(complex(float(v[0]), float(v[1])))
        rows.append(parsed)
    return np.array(rows, dtype=np.complex128)


@pytest.mark.parametrize(
    "obj",
    [
        [[[1, 0], [2, 0]], [[1, 0]]],  # ragged row
        [[["1.0", 0.0]]],
        None,
        [[[1.0, 2.0], None]],
        [[[1.0, 2.0, 3.0]]],
        [[[[1.0, 2.0]]]],  # 4-deep nesting
        [],
        [[[1.0, 0.0]], 5],
    ],
)
def test_parse_matrix_rejects_like_the_entry_walk(obj):
    with pytest.raises(InputFormatError) as want:
        _walk_entries(obj, "f:m")
    with pytest.raises(InputFormatError) as got:
        parse_matrix(obj, "f:m")
    assert str(got.value) == str(want.value)


def test_parse_matrix_converts_numbers_like_the_entry_walk():
    big = 2**63 + 2**10 + 1  # rounds on conversion to float
    for obj in (
        [[[True, False], [False, True]]],
        [[[1, -2], [big, 0]], [[2**53 + 1, -(2**62) - 1], [0, 7]]],
        [[[0.1, -0.0], [1e308, -5e-324]]],
        [[[True, 2.5], [3, -0.0]]],
        [[[2**64 - 1, 0]]],
    ):
        got, want = parse_matrix(obj, "m"), _walk_entries(obj, "m")
        assert got.dtype == np.complex128 and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def test_load_pencil_file_plain(tmp_path):
    doc = {
        "n": 2,
        "convention": "plus",
        "lead": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]],
        "const": [[[0, 0], [1, 0]], [[-1, 0], [0, 0]]],
    }
    path = write(tmp_path, "p.json", doc)
    p, digest = load_pencil_file(path)
    with open(path, "rb") as fh:
        assert digest == hashlib.sha256(fh.read()).hexdigest()
    assert isinstance(p, Pencil)
    assert p.convention == "plus"
    assert np.allclose(p.lead, np.eye(2))


def test_load_pencil_file_posh(tmp_path):
    doc = {
        "j1": [[[0, 0], [1, 0]], [[-1, 0], [0, 0]]],
        "r1": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]],
        "j2": [[[0, 0], [0, 0]], [[0, 0], [0, 0]]],
        "r2": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]],
    }
    pp, _ = load_pencil_file(write(tmp_path, "pp.json", doc))
    assert isinstance(pp, PoshPencil)
    assert pp.n == 2


def test_load_pencil_file_errors(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(InputFormatError, match="line 1"):
        load_pencil_file(str(bad))
    with pytest.raises(InputFormatError):
        load_pencil_file(write(tmp_path, "list.json", [1, 2]))
    with pytest.raises(InputFormatError, match="n"):
        load_pencil_file(
            write(
                tmp_path,
                "mismatch.json",
                {
                    "n": 3,
                    "lead": [[[1, 0]]],
                    "const": [[[1, 0]]],
                },
            )
        )
    with pytest.raises(InputFormatError):
        load_pencil_file(str(tmp_path / "missing.json"))


ONE = [[[1, 0]]]
DECLARING_DOCS = {
    "posh": ({"j1": [[[0, 0]]], "r1": ONE, "j2": [[[0, 0]]], "r2": ONE}, ("n",)),
    "plain": ({"lead": ONE, "const": ONE}, ("n",)),
    "polynomial": ({"coefficients": [ONE, ONE]}, ("n", "degree")),
}


@pytest.mark.parametrize("kind", sorted(DECLARING_DOCS))
@pytest.mark.parametrize("value", ["abc", [1], 1.0, 2.7, True, None])
def test_declared_sizes_must_be_json_integers(kind, value, tmp_path):
    doc, keys = DECLARING_DOCS[kind]
    load = load_polynomial_file if kind == "polynomial" else load_pencil_file
    for key in keys:
        path = write(tmp_path, f"{kind}.json", {**doc, key: value})
        with pytest.raises(InputFormatError, match=f"declared {key} must be an integer"):
            load(path)
        assert main(["report", path]) == 2
    # the same documents load when each key declares the right integer
    sizes = {"n": 1, "degree": 1}
    load(write(tmp_path, f"{kind}.json", {**doc, **{key: sizes[key] for key in keys}}))


# strings where a float parser is most likely to round wrongly
HARD_NUMBERS = (
    "4.9e-324",
    "2.4703282292062327e-324",
    "2.4703282292062328e-324",
    "2.2250738585072011e-308",
    "2.2250738585072012e-308",
    "1.7976931348623157e308",
    "1.7976931348623158e308",
    "9007199254740993",
    "9007199254740993.0",
    "123456789012345678901234567890",
    "-0.0",
    "1e-400",
)


def test_decoded_matrices_are_bit_identical_to_json(tmp_path):
    rng = np.random.default_rng(11)
    bits = rng.integers(0, 2**64, size=4000, dtype=np.uint64).view(np.float64)
    normals = rng.standard_normal(4000) * 10.0 ** rng.integers(-300, 300, size=4000)
    texts = [repr(x) for x in bits[np.isfinite(bits)].tolist()]
    for fmt in ("%r", "%.17g", "%.20g", "%.25e", "%.12g"):
        texts += [fmt % x for x in normals.tolist()]
    texts += list(HARD_NUMBERS)
    texts += texts[: len(texts) % 2]  # whole [re, im] pairs
    pairs = [f"[{a}, {b}]" for a, b in zip(texts[::2], texts[1::2])]
    rows = [", ".join(pairs[k : k + 50]) for k in range(0, len(pairs), 50)]
    rows[-1] += ", [0, 0]" * (-len(pairs) % 50)
    text = '{"m": [' + ", ".join(f"[{row}]" for row in rows) + "]}"
    path = tmp_path / "numbers.json"
    path.write_text(text)
    doc = _decode_json(path.read_bytes(), str(path))
    got = parse_matrix(doc["m"], "m")
    want = parse_matrix(json.loads(text)["m"], "m")
    assert got.shape == want.shape == (len(rows), 50)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize(
    "raw, message",
    [
        (b'{"m": [[[NaN, 0]]]}', "line 1, column 10"),
        (b'{"m": [[[Infinity, 0]]]}', "line 1, column 10"),
        (b'{"m": [[[0, -Infinity]]]}', "line 1, column 13"),
        (b'{"m":\n [[[1e400, 0]]]}', "line 2, column 5"),
        (b'{"m": [[[' + b"9" * 400 + b', 0]]]}', "line 1, column 10"),
        (b'\xef\xbb\xbf{"m": [[[1, 0]]]}', "line 1, column 1"),
        (b'{"m": [[[1, 0]]]} {}', "line 1, column 19"),
        (b'{"m": [[["\xff", 0]]]}', "not valid UTF-8"),
    ],
)
def test_decoder_rejects_with_a_position(raw, message, tmp_path):
    path = tmp_path / "bad.json"
    path.write_bytes(raw)
    for load in (load_pencil_file, parse_regions_json):
        with pytest.raises(InputFormatError, match=message):
            load(str(path))


def test_load_polynomial_file(tmp_path):
    doc = {
        "n": 1,
        "degree": 2,
        "coefficients": [[[[1, 0]]], [[[0, 0]]], [[[1, 0]]]],
    }
    p, _ = load_polynomial_file(write(tmp_path, "q.json", doc))
    assert p.degree == 2
    with pytest.raises(InputFormatError, match="degree"):
        load_polynomial_file(
            write(
                tmp_path,
                "q2.json",
                {"degree": 5, "coefficients": [[[[1, 0]]], [[[1, 0]]]]},
            )
        )


def posh_doc(n, seed=0):
    pp = random_posh_pencil(np.random.default_rng(seed), n)
    return {k: matrix_to_json(getattr(pp, k)) for k in ("j1", "r1", "j2", "r2")}


POLYNOMIAL_DOC = {"coefficients": [[[[1, 0]]], [[[0, 0]]], [[[1, 0]]]]}
# each loader with a document it accepts and the type it builds from it
LOADS = {
    "pencil": (load_pencil_file, lambda: posh_doc(4), PoshPencil),
    "polynomial": (load_polynomial_file, lambda: POLYNOMIAL_DOC, MatrixPolynomial),
    "input-pencil": (load_input_file, lambda: posh_doc(4), PoshPencil),
    "input-polynomial": (load_input_file, lambda: POLYNOMIAL_DOC, MatrixPolynomial),
}


@pytest.mark.parametrize("case", sorted(LOADS))
def test_loaders_decode_and_convert_with_the_collector_paused(case, tmp_path, monkeypatch):
    load, doc, kind = LOADS[case]
    path = write(tmp_path, "in.json", doc())
    seen = {"loads": [], "parse_matrix": []}

    def recording(name, fn):
        def wrapper(*args, **kwargs):
            seen[name].append(gc.isenabled())
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(orjson, "loads", recording("loads", orjson.loads))
    monkeypatch.setattr(fileio, "parse_matrix", recording("parse_matrix", fileio.parse_matrix))
    assert gc.isenabled()
    obj, digest = load(path)
    assert isinstance(obj, kind)
    with open(path, "rb") as fh:
        assert digest == hashlib.sha256(fh.read()).hexdigest()
    assert seen["loads"] == [False]
    assert seen["parse_matrix"] and not any(seen["parse_matrix"])
    assert gc.isenabled()


@pytest.mark.parametrize("load", [load_pencil_file, load_polynomial_file, load_input_file])
def test_loaders_restore_the_collector_after_errors(load, tmp_path):
    nan = tmp_path / "nan.json"
    nan.write_bytes(b'{"m": [[[NaN, 0]]]}')
    with pytest.raises(InputFormatError, match="line 1, column 10"):
        load(str(nan))
    assert gc.isenabled()
    if load is not load_polynomial_file:
        doc = posh_doc(4)
        doc["r1"] = matrix_to_json(-np.eye(4))
        with pytest.raises(PreconditionError, match="r1"):
            load(write(tmp_path, "not_psd.json", doc))
        assert gc.isenabled()


@pytest.mark.parametrize("case", sorted(LOADS))
def test_loaders_leave_a_disabled_collector_disabled(case, tmp_path):
    load, doc, _ = LOADS[case]
    path = write(tmp_path, "in.json", doc())
    gc.disable()
    try:
        load(path)
        assert not gc.isenabled()
    finally:
        gc.enable()


def test_no_collection_starts_while_a_pencil_file_loads(tmp_path):
    # about 16 500 decoded lists: 23 gen-0 collections at the default threshold
    path = write(tmp_path, "n64.json", posh_doc(64))
    starts = []

    def callback(phase, info):
        if phase == "start":
            starts.append(info["generation"])

    gc.collect()
    gc.callbacks.append(callback)
    try:
        load_pencil_file(path)
    finally:
        gc.callbacks.remove(callback)
    assert starts == []


def test_atomic_write_and_hash(tmp_path):
    target = tmp_path / "out.txt"
    atomic_write_text(str(target), "hello\n")
    assert target.read_text() == "hello\n"
    atomic_write_text(str(target), "replaced\n")
    assert target.read_text() == "replaced\n"
    # no temp files left behind
    leftovers = [f for f in os.listdir(tmp_path) if f.startswith(".pencillab-")]
    assert leftovers == []
    h1 = hashlib.sha256(target.read_bytes()).hexdigest()
    atomic_write_text(str(target), "replaced\n")
    assert hashlib.sha256(target.read_bytes()).hexdigest() == h1


def test_points_csv_format():
    text = points_to_csv([1.5 - 0.25j, -2.0 + 1.0j])
    lines = text.split("\n")
    assert lines[0] == "re,im"
    assert lines[1] == "1.5,-0.25"
    assert lines[2] == "-2.0,1.0"
    assert text.endswith("\n")
    assert "\r" not in text


def _repr_csv(points) -> str:
    """The per-row repr CSV that points_to_csv must match byte for byte."""
    return "re,im\n" + "".join(f"{z.real!r},{z.imag!r}\n" for z in points)


def test_points_csv_matches_repr_on_random_bit_patterns():
    # random 64-bit patterns cover every exponent, subnormals, inf and nan;
    # a change in orjson's float format shows up here first
    rng = np.random.default_rng(17)
    bits = rng.integers(0, 2**64, size=100_000, dtype=np.uint64).view(np.float64)
    bits[:6] = [5e-324, -1e-310, 1.7976931348623157e308, math.nan, math.inf, -math.inf]
    points = [complex(re, im) for re, im in bits.reshape(-1, 2).tolist()]
    assert points_to_csv(points) == _repr_csv(points)


def test_points_csv_matches_repr_at_the_notation_edges():
    # +-0, nan, +-inf, and 1e-4, 1e16 with their float neighbours, both signs
    edges = [0.0, -0.0, math.nan, math.inf, -math.inf]
    for edge in (1e-4, 1e16):
        for v in (edge, np.nextafter(edge, 0.0), np.nextafter(edge, math.inf)):
            edges += [float(v), -float(v)]
    points = [complex(re, im) for re in edges for im in edges]
    assert points_to_csv(points) == _repr_csv(points)


@pytest.mark.parametrize("points", [[], [0j], [complex(-0.0, -0.0)], [math.nan + 1j]])
def test_points_csv_matches_repr_on_empty_and_one_point(points):
    assert points_to_csv(points) == _repr_csv(points)


def test_regions_json_round_trip(tmp_path):
    regions = [PacmanRegion(1.5, "plus"), PacmanRegion(math.inf, "minus")]
    path = tmp_path / "regions.json"
    path.write_text(regions_to_json(regions))
    back = parse_regions_json(str(path))
    assert len(back) == 2
    assert back[0].beta == 1.5 and back[0].sign == "plus"
    assert math.isinf(back[1].beta) and back[1].sign == "minus"
    not_list = tmp_path / "notlist.json"
    not_list.write_text('{"type": "pacman"}')
    with pytest.raises(InputFormatError):
        parse_regions_json(str(not_list))
    wrong_kind = tmp_path / "wrongkind.json"
    wrong_kind.write_text('[{"type": "disk", "beta": 1, "sign": "plus"}]')
    with pytest.raises(InputFormatError):
        parse_regions_json(str(wrong_kind))
    good = {"type": "pacman", "beta": 2, "sign": "minus"}
    for bad in (
        {"type": "pacman", "sign": "plus"},
        {"type": "pacman", "beta": "abc", "sign": "plus"},
        {"type": "pacman", "beta": [1], "sign": "plus"},
        {"type": "pacman", "beta": True, "sign": "plus"},
        {"type": "pacman", "beta": -1.0, "sign": "plus"},
        {"type": "pacman", "beta": 1.0, "sign": "up"},
    ):
        path = tmp_path / "bad_entry.json"
        path.write_text(json.dumps([good, bad]))
        with pytest.raises(InputFormatError, match=r"bad_entry\.json\[1\]: "):
            parse_regions_json(str(path))


def test_report_json_is_deterministic():
    doc = {"b": 1, "a": {"z": [1, 2], "y": "inf"}}
    t1 = report_to_json(doc)
    t2 = report_to_json({"a": {"y": "inf", "z": [1, 2]}, "b": 1})
    assert t1 == t2
    assert t1.endswith("\n")


def test_svg_renders_points_and_regions():
    pts = [complex(x, y) for x, y in ((-1, 0), (0.5, 0.5), (2, -1))]
    svg = render_scatter_svg(pts, [PacmanRegion(1.0, "plus")])
    assert svg.startswith("<svg")
    assert svg.count("<circle") == 3
    assert "path" in svg
    # no external references
    assert "http://" not in svg.replace("http://www.w3.org", "")
    svg_empty = render_scatter_svg([])
    assert svg_empty.startswith("<svg")
