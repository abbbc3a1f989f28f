"""Shared pytest setup: one hypothesis profile for every property test, a
fixture that empties the per-dimension fock caches, one that records every
eigendecomposition and one that records every input check.

Property examples at N up to 64 take milliseconds each but vary with
machine load, so no per-example deadline is enforced.
"""

import sys
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import settings

from qpl import fock, linalg

settings.register_profile("qpl", deadline=None)
settings.load_profile("qpl")


@pytest.fixture
def clear_fock_caches():
    """Empty every `lru_cache` defined in qpl.fock now; the returned function empties them again."""
    caches = [f for f in vars(fock).values() if hasattr(f, "cache_clear") and f.__module__ == "qpl.fock"]

    def clear():
        for cache in caches:
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


VALIDATORS = ("as_ket", "as_unit_ket", "as_operator", "as_hermitian", "expectation")


class ValidatorCall(NamedTuple):
    module: str  # the qpl module whose global name was called
    name: str
    caller: str | None  # the recorded call this one was made from, None at top level


@pytest.fixture
def validator_calls(monkeypatch):
    """A `ValidatorCall` for every call of a name in VALIDATORS made while the test runs.

    The name is replaced in each qpl module that binds it, so a call is
    recorded under the module that looks it up: `as_hermitian`'s own
    `as_operator` call reads ("qpl.linalg", "as_operator", "as_hermitian").
    """
    calls, stack = [], []

    def recording(module, name, func):
        def record(*args, **kwargs):
            calls.append(ValidatorCall(module, name, stack[-1] if stack else None))
            stack.append(name)
            try:
                return func(*args, **kwargs)
            finally:
                stack.pop()

        return record

    originals = {name: getattr(linalg, name) for name in VALIDATORS}
    modules = [(key, m) for key, m in sys.modules.items() if key == "qpl" or key.startswith("qpl.")]
    for key, module in modules:
        for name, func in originals.items():
            if getattr(module, name, None) is func:
                monkeypatch.setattr(module, name, recording(key, name, func))
    return calls
