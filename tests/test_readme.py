"""The README's library quick start runs and prints what its comments say."""

import contextlib
import io
import math
from pathlib import Path

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
