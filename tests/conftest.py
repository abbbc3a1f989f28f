"""Shared pytest setup: one hypothesis profile for every property test, a
fixture that empties the per-dimension fock caches, and one that records
every eigendecomposition.

Property examples at N up to 64 take milliseconds each but vary with
machine load, so no per-example deadline is enforced.
"""

import numpy as np
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


@pytest.fixture
def eigh_sizes(monkeypatch):
    """(size, complex?) of every np.linalg.eigh call made while the test runs."""
    calls = []
    eigh = np.linalg.eigh

    def recording_eigh(a, *args, **kwargs):
        calls.append((np.shape(a)[0], np.iscomplexobj(a)))
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", recording_eigh)
    return calls
