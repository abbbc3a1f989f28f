"""Pin the public namespace of qpl.

Each public name has one job.  Adding or removing one is a deliberate
change and shows up here as an explicit edit to PUBLIC.
"""

import importlib
import re
import types
from pathlib import Path

import qpl

PUBLIC = [
    "AzState", "CoherentFamily", "CrtMap", "FockSpace", "PostSelection", "PreMeasurement",
    "WeakConfig", "WignerMap", "as_ket", "as_operator", "az_state", "basis_ket", "coherent_overlap",
    "coherent_overlap_closed", "coherent_state", "commutator_expansion", "crt_map",
    "crt_permutation", "delta_product", "dft", "displacement", "expectation", "fs_speed_check",
    "gauss_trace", "gauss_trace_closed_form", "modular_cell_coords", "momentum_amplitudes",
    "normalize", "nslit_evolve", "pancharatnam_phase", "parity_operator", "phase_point",
    "phase_space_symbol", "pre_measurement", "random_density", "random_hermitian", "random_ket",
    "reference_state", "structure_constants", "symplectic_area", "symplectic_phase", "weak_run",
    "weak_value", "weyl_reconstruct", "weyl_relation_defect", "weyl_transform", "wigner_map",
]


# A pointer operator is named by key; the dense matrix comes from `operator`.
FOCK_SPACE_PUBLIC = [
    "GENERATORS", "apply", "coherent", "dim", "displacement", "operator", "rotation", "scale",
    "spectrum", "vacuum", "variance",
]


def test_fock_space_members_are_pinned():
    names = sorted(name for name in dir(qpl.FockSpace(2)) if not name.startswith("_"))
    assert names == FOCK_SPACE_PUBLIC


def test_public_names_are_pinned():
    names = sorted(
        name
        for name, obj in vars(qpl).items()
        if not name.startswith("_") and not isinstance(obj, types.ModuleType)
    )
    assert names == PUBLIC


def test_readme_library_tour_imports_exist():
    """Every name a `from qpl… import` line of the README's library tour names exists."""
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    tour = readme.split("## Library tour", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    imports = re.findall(r"^from (qpl[\w.]*) import (.+)$", tour, flags=re.MULTILINE)
    assert imports
    for module, names in imports:
        found = importlib.import_module(module)
        missing = [name for name in map(str.strip, names.split(",")) if not hasattr(found, name)]
        assert not missing, f"{module} has no {missing}"


def test_every_readme_timing_names_its_bench_file():
    """A README line outside code blocks that gives a time or a rate (a number
    before ms, µs or requests/s) names the `BENCH_` file that measured it, so
    no timing outlives the harness run behind it."""
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    prose = "\n".join(readme.split("```")[::2])
    timing = re.compile(r"\d\s*(ms|µs|requests/s)\b")
    unbacked = [line for line in prose.splitlines() if timing.search(line) and "BENCH_" not in line]
    assert not unbacked, unbacked
