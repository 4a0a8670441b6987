"""Suite-wide test settings.

Hypothesis draws its examples from a fixed derivation of each test
instead of fresh randomness, so a property-test failure reproduces on
every run, and example runtime never fails a test by itself.
"""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")
