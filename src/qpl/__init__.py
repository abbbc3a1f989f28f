"""qpl: a finite-dimensional quantum phase-space toolkit.

Cyclic kinematics on Z_N (shift, clock, discrete Fourier transform), the
phase-point operator basis and discrete Wigner transform, displaced
Fourier-invariant coherent states, a truncated bosonic mode, weak-value
measurement simulation, and modular-variable constructions on composite
dimensions.  The `qpl` console script exposes the experiments.
"""

from .linalg import (
    as_ket,
    as_operator,
    basis_ket,
    commutator,
    anticommutator,
    expectation,
    hs_inner,
    is_hermitian,
    is_unitary,
    normalize,
    partial_trace,
    projector,
    random_density,
    random_hermitian,
    random_ket,
    tensor,
    unitary_exp,
)
from .schwinger import (
    Kinematics,
    dft,
    gauss_trace,
    gauss_trace_closed_form,
    weyl_relation_defect,
)
from .weylwigner import (
    StructureConstants,
    WeylWignerBasis,
    WignerMap,
    delta_product,
    parity_operator,
    phase_point,
    phase_space_symbol,
    symplectic_area,
    wigner_map,
)
from .coherent import (
    CoherentFamily,
    coherent_overlap,
    coherent_overlap_closed,
    coherent_state,
    displacement,
    reference_state,
    symplectic_phase,
)
from .fock import FockSpace
from .weak import (
    FactoredEvolution,
    PointerScan,
    PostSelection,
    PreMeasurement,
    WeakConfig,
    annihilator_shift,
    annihilator_shift_prediction,
    conditioned_shift,
    evolve_exact,
    fs_speed_check,
    measured_shift,
    pancharatnam_phase,
    post_select,
    pre_measurement,
    predicted_shift,
    qubit_pointer_profile,
    selection_probability,
    shift_residual,
    weak_value,
)
from .modular import (
    AzState,
    CrtMap,
    az_state,
    crt_map,
    crt_permutation,
    modular_cell_coords,
    momentum_amplitudes,
    nslit_evolve,
)

__version__ = "0.1.0"
