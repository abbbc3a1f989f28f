"""The per-dimension phase-space tables: read-only, built once per N, bounded.

`schwinger._phase_table` (Φ), `weylwigner._weyl_tables` (Φ̄, h, Φ·h/N
and the shift index tables) and `modular._conjugate_dft` (F̄) depend on
nothing but N, and so does `coherent._overlap_factors`, the closed-form
factor table.  Each is built on the first request at a dimension and
shared by every later one; what is computed from them is not cached, so a
cold and a warm call give the same array.
"""

import numpy as np
import pytest
from bytecheck import _qpl_caches

from qpl import (
    commutator_expansion,
    phase_point,
    random_density,
    weyl_reconstruct,
    wigner_map,
)
from qpl.cli import MAX_GRAM_DIM, main
from qpl.coherent import _overlap_factors
from qpl.fock import _band_table, _spectrum
from qpl.modular import _conjugate_dft
from qpl.schwinger import TABLE_DIMS, _phase_table
from qpl.weylwigner import _weyl_tables

TABLE_CACHES = (_phase_table, _weyl_tables, _conjugate_dft)

# The dimensions the phase-space benchmark workload runs at, and one cycle of
# its request kinds there: az at each factor pair, nslit and wigner at 64,
# structure-constants at 15, coherent-gram at 16, gauss-trace over 1..64.
POOL_DIMS = (3, 4, 5, 7, 8, 11, 15, 16, 64)
POOL_CYCLE = (
    ["wigner", "--n", "64", "--state", "random", "--seed", "3", "--format", "csv"],
    ["wigner", "--n", "64", "--state", "v5"],
    ["structure-constants", "--n", "15", "--a", "3,4", "--b", "5,6"],
    ["coherent-gram", "--n", "16"],
    ["coherent-gram", "--n", "16", "--format", "csv"],
    ["nslit", "--n", "64", "--potential", "0.5,1.5,2.5,3.5"],
    ["gauss-trace", "1", "64"],
    *(["az", str(na), str(nb), "1", "2"] for na, nb in ((7, 9), (5, 12), (8, 7), (4, 15), (3, 20), (11, 5))),
)


def weyl_arrays(n):
    return list(vars(_weyl_tables(n)).values())


@pytest.mark.parametrize("n", (1, 2, 3, 4, 15, 16))
def test_every_cached_table_is_read_only(n):
    for table in (_phase_table(n), *weyl_arrays(n), _conjugate_dft(n), _overlap_factors(n)):
        with pytest.raises(ValueError, match="read-only"):
            table[(0,) * table.ndim] = 0


def run_quietly(capsys, argv):
    assert main(argv) == 0, argv
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv, built, unused",
    (
        (["wigner", "--n", "64", "--state", "random"], (_phase_table, _weyl_tables), (_overlap_factors,)),
        (["structure-constants", "--n", "15"], (_phase_table, _weyl_tables), (_overlap_factors,)),
        # the reference state's momentum column is the constant 1/√N, read from no table
        (["coherent-gram", "--n", "16"], (_overlap_factors,), (_phase_table, _weyl_tables)),
        (["nslit", "--n", "64", "--potential", "0.5,1.5"], (_phase_table, _conjugate_dft), (_weyl_tables,)),
    ),
    ids=("wigner", "structure-constants", "coherent-gram", "nslit"),
)
def test_repeated_requests_build_each_table_once(capsys, clear_qpl_caches, argv, built, unused):
    for _ in range(3):
        run_quietly(capsys, argv)
    for cache in built:
        info = cache.cache_info()
        assert (info.misses, info.currsize) == (1, 1), cache.__name__
    for cache in unused:
        assert cache.cache_info().misses == 0, cache.__name__


RNG = np.random.default_rng(20261020)


def random_grid(n):
    return RNG.standard_normal((n, n)) + 1j * RNG.standard_normal((n, n))


COLD_CALLS = {
    "wigner_map": lambda n: wigner_map(random_density(n, RNG)).values,
    "weyl_reconstruct": lambda n: weyl_reconstruct(random_grid(n)),
    "commutator_expansion": lambda n: commutator_expansion(random_grid(n).real),
    "phase_point": lambda n: phase_point(n, np.array([0, 1, n - 1, 5]), np.array([2, 0, 3, n + 1])),
}


@pytest.mark.parametrize("n", (1, 2, 3, 4, 7, 8, 15, 16, 64))
@pytest.mark.parametrize("name", COLD_CALLS)
def test_results_after_cache_clear_equal_the_warm_ones(clear_qpl_caches, name, n):
    state = RNG.bit_generator.state
    clear_qpl_caches()
    cold = COLD_CALLS[name](n)
    RNG.bit_generator.state = state
    warm = COLD_CALLS[name](n)
    assert _weyl_tables.cache_info().hits >= 1
    assert np.array_equal(cold, warm)


@pytest.mark.parametrize("n", (1, 2, 3, 4, 7, 8, 15, MAX_GRAM_DIM))
def test_closed_form_check_after_cache_clear_equals_the_warm_one(capsys, clear_qpl_caches, n):
    """A `coherent-gram` request that builds its factor table prints what a repeated one prints."""
    argv = ["coherent-gram", "--n", str(n)]
    for fmt in ("json", "csv"):
        clear_qpl_caches()
        assert main(argv + ["--format", fmt]) == 0
        cold = capsys.readouterr().out
        assert main(argv + ["--format", fmt]) == 0
        assert _overlap_factors.cache_info().hits == 1
        assert capsys.readouterr().out == cold


def test_table_bytes_match_the_documented_bound():
    """The bytes the module docstrings and the README state, at N = 64 and N = 16."""
    assert _phase_table(64).nbytes == 64 * 2**10
    assert _phase_table(16).nbytes == 4 * 2**10
    assert _conjugate_dft(64).nbytes == 64 * 2**10
    # the Weyl tables share schwinger's Φ and add 72·N² bytes
    assert _weyl_tables(64).phases is _phase_table(64)
    for n in (16, 64):
        assert sum(a.nbytes for a in weyl_arrays(n)) - _phase_table(n).nbytes == 72 * n**2
    # the worst case: TABLE_DIMS distinct dimensions at or below each cap
    assert TABLE_DIMS * 72 * 64**2 == 4.5 * 2**20


def test_pool_dimensions_never_evict_each_other(clear_qpl_caches):
    assert TABLE_DIMS >= len(POOL_DIMS)
    for table in TABLE_CACHES:
        for n in POOL_DIMS * 2:
            table(n)
        assert table.cache_info().misses == len(POOL_DIMS)


def test_a_second_pool_cycle_misses_no_qpl_cache(capsys, clear_qpl_caches):
    """After one cycle of the phase-space workload's request kinds, a second finds every table cached."""
    for argv in POOL_CYCLE:
        run_quietly(capsys, argv)
    misses = {cache: cache.cache_info().misses for cache in _qpl_caches()}
    for argv in POOL_CYCLE:
        run_quietly(capsys, argv)
    assert {cache: cache.cache_info().misses for cache in _qpl_caches()} == misses


def test_bytecheck_cold_order_empties_every_table_cache():
    """`tools/bytecheck.py --order cold` empties the caches it finds; these must be among them."""
    found = _qpl_caches()
    for cache in (*TABLE_CACHES, _overlap_factors, _band_table, _spectrum):
        assert any(f is cache for f in found), cache.__name__
