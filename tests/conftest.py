"""Shared test settings.

Property tests draw the same examples on every run (derandomized), keep no
example database on disk, and set no per-example deadline; a test that needs
fewer examples or no shrink phase overrides only those settings.
"""

from hypothesis import settings

settings.register_profile("lpmech", derandomize=True, database=None, deadline=None)
settings.load_profile("lpmech")
