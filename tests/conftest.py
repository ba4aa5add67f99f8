"""Shared test settings.

Property tests run under one hypothesis profile: derandomized, so every run
draws the same examples, and without an example database.  Hypothesis
still caches the constants it reads from source files; that cache goes to
the system temporary directory, so no .hypothesis/ directory is written
into the checkout.
"""

import tempfile
from pathlib import Path

from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

set_hypothesis_home_dir(Path(tempfile.gettempdir()) / "pencillab-hypothesis")
settings.register_profile("pencillab", derandomize=True, database=None, deadline=None)
settings.load_profile("pencillab")
