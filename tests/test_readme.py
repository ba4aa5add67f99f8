"""The README's library quick start and command-line session run as documented."""

import contextlib
import io
import json
import math
import shlex
from pathlib import Path

from pencillab.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def quick_start_block() -> str:
    section = README.read_text(encoding="utf-8").split("## Library quick start", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_readme_quick_start():
    block = quick_start_block()
    scope = {}
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(block, scope)
    eigs = scope["ks"].eigenvalues
    assert len(eigs) == 2 and all(abs(z + 1.0) < 1e-12 for z in eigs)
    bt = scope["beta_thresholds"](scope["pp"])
    assert bt.beta_plus == bt.beta_minus and math.isclose(bt.beta_plus, 2.0, rel_tol=1e-12)
    assert scope["cert"].eejjx_status == "proved_by_norms"
    assert scope["cert"].conclusion == "numrange_in_lhp"
    printed = out.getvalue().splitlines()
    assert printed[2:] == ["proved_by_norms", "numrange_in_lhp"]
    # the block's comments quote the printed eigenvalues and verdicts
    for line in (printed[0], *printed[2:]):
        assert f"# {line}\n" in block


def short_session_block() -> str:
    text = README.read_text(encoding="utf-8")
    section = text.split("A short session, starting from nothing:", 1)[1]
    return section.split("```\n", 1)[1].split("```", 1)[0]


def test_readme_short_session(tmp_path, monkeypatch, capsys):
    block = short_session_block()
    monkeypatch.chdir(tmp_path)
    exec(block.split("<<'PY'\n", 1)[1].split("\nPY\n", 1)[0], {})
    printed = {}
    for line in block.splitlines():
        if line.startswith("pencil-lab "):
            argv = shlex.split(line)[1:]
            assert main(argv) == 0, line
            printed[argv[0]] = capsys.readouterr().out
    assert sorted(printed) == ["eig", "kcf", "numrange", "polystab"]
    # eig: one eigenvalue near -1 and a complex pair with positive real part
    eigs = [complex(line) for line in printed["eig"].splitlines()]
    assert len(eigs) == 3
    near = [z for z in eigs if abs(z + 1.0) < 1e-9]
    pair = [z for z in eigs if z not in near]
    assert len(near) == 1 and len(pair) == 2
    assert all(z.real > 0.0 and z.imag != 0.0 for z in pair)
    assert abs(pair[0] - pair[1].conjugate()) < 1e-9
    assert json.loads(printed["kcf"])["results"]["kcf"]["regular"] is True
    assert printed["numrange"].startswith("wrote 100000 points to pts.csv")
    # polystab certifies stability and detects the mass-gyro-damper form,
    # whose parameters its --out document holds
    assert printed["polystab"] == "conclusion: lhp_certified; mgt verdict: lhp_certified\n"
    assert main(["polystab", "mgt.poly.json", "--out", "mgt.json"]) == 0
    mgt = json.loads((tmp_path / "mgt.json").read_text())["results"]["mgt"]
    assert mgt["detected"] is True and (mgt["a"], mgt["c_over_b"]) == (2.0, 0.5)
