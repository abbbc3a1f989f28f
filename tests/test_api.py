"""Pin the public namespace of qpl.

Each public name has one job.  Adding or removing one is a deliberate
change and shows up here as an explicit edit to PUBLIC.
"""

import types

import qpl

PUBLIC = [
    "AzState", "CoherentFamily", "CrtMap", "FactoredEvolution", "FockSpace", "Kinematics",
    "PointerScan", "PostSelection", "PreMeasurement", "StructureConstants", "WeakConfig",
    "WeylWignerBasis", "WignerMap", "annihilator_shift", "annihilator_shift_prediction",
    "anticommutator", "as_ket", "as_operator", "az_state", "basis_ket", "coherent_overlap",
    "coherent_overlap_closed", "coherent_state", "commutator", "conditioned_shift",
    "crt_map", "crt_permutation", "delta_product", "dft", "displacement", "evolve_exact",
    "expectation", "fs_speed_check", "gauss_trace", "gauss_trace_closed_form", "hs_inner",
    "is_hermitian", "is_unitary", "measured_shift", "modular_cell_coords",
    "momentum_amplitudes", "normalize", "nslit_evolve", "pancharatnam_phase",
    "parity_operator", "partial_trace", "phase_point", "phase_space_symbol", "post_select",
    "pre_measurement", "predicted_shift", "projector", "qubit_pointer_profile",
    "random_density", "random_hermitian", "random_ket", "reference_state",
    "selection_probability", "shift_residual", "symplectic_area", "symplectic_phase",
    "tensor", "unitary_exp", "weak_run", "weak_value", "weyl_relation_defect", "wigner_map",
]


def test_public_names_are_pinned():
    names = sorted(
        name
        for name, obj in vars(qpl).items()
        if not name.startswith("_") and not isinstance(obj, types.ModuleType)
    )
    assert names == PUBLIC
