"""Shared test settings and fixtures.

Property tests run under one hypothesis profile: derandomized, so every run
draws the same examples, and without an example database.  Hypothesis
still caches the constants it reads from source files; that cache goes to
the system temporary directory, so no .hypothesis/ directory is written
into the checkout.
"""

import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

set_hypothesis_home_dir(Path(tempfile.gettempdir()) / "pencillab-hypothesis")
settings.register_profile("pencillab", derandomize=True, database=None, deadline=None)
settings.load_profile("pencillab")


@pytest.fixture
def spectral_norm_calls(monkeypatch):
    """The arrays passed to spectral_norm and svdvals, patched in every pencillab module.

    Coefficient norms come from the singular values that Pencil and
    PoshPencil keep, so svdvals records each coefficient norm taken.
    """
    from pencillab import core

    seen = []

    def recording(function):
        def recorded(a):
            seen.append(np.array(a))
            return function(a)

        return recorded

    for name in ("spectral_norm", "svdvals"):
        wrapped = recording(getattr(core, name))
        for module_name, module in list(sys.modules.items()):
            if module_name.startswith("pencillab.") and hasattr(module, name):
                monkeypatch.setattr(module, name, wrapped)
    return seen
