"""Shared pytest setup: one hypothesis profile for every property test, and
a fixture that empties the per-dimension fock caches.

Property examples at N up to 64 take milliseconds each but vary with
machine load, so no per-example deadline is enforced.
"""

import pytest
from hypothesis import settings

from qpl import fock

settings.register_profile("qpl", deadline=None)
settings.load_profile("qpl")


@pytest.fixture
def clear_fock_caches():
    """Empty the per-dimension fock caches now; the returned function empties them again."""

    def clear():
        for cache in (fock._quadratures, fock._q_spectrum, fock._k_spectrum):
            cache.cache_clear()

    clear()
    return clear
