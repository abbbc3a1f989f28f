"""Shared pytest setup: one hypothesis profile for every property test.

Property examples at N up to 64 take milliseconds each but vary with
machine load, so no per-example deadline is enforced.
"""

from hypothesis import settings

settings.register_profile("qpl", deadline=None)
settings.load_profile("qpl")
