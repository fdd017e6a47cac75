"""Shared test settings.

Property tests draw the same examples on every run (derandomized), keep no
example database on disk, and set no per-example deadline; a test that needs
fewer examples or no shrink phase overrides only those settings.  After every
test, no derivative pass may be left counted as running: a leaked count would
silently switch every later ``gradient`` to per-direction seeds.
"""

import pytest
from hypothesis import settings

from lpmech import _dual

settings.register_profile("lpmech", derandomize=True, database=None, deadline=None)
settings.load_profile("lpmech")


@pytest.fixture(autouse=True)
def no_open_derivative_pass():
    yield
    assert _dual._active_passes == 0
