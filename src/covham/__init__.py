"""Covariant Hamiltonian mode dynamics for classical fields with point sources."""

__version__ = "0.1.0"

from covham.brackets import (
    BracketConfig,
    GeneralObservable,
    QuadraticObservable,
    StateLayout,
    bracket_observable,
    canonical_pair_bracket,
    coordinate_observable,
    dw_conservation_check,
    jacobi_defect,
    jacobi_terms,
    momentum_vector_observable,
    poisson_bracket,
    product,
)
from covham.canonical import (
    CanonicalGauge,
    CanonicalMode,
    canonical_at_point,
    constant_amplitudes,
    from_canonical,
    gradient_consistency,
    hamilton_residual,
    history_amplitudes,
    mode_hamiltonian,
    mode_hamiltonian_canonical,
    mode_hamiltonian_gradients,
    to_canonical,
)
from covham.dirac import (
    DiracCoupling,
    clifford_defect,
    projector_defects,
    shell_projector,
    slash,
)
from covham.dynamics import (
    AmplitudeHistory,
    evolve_amplitudes,
    mode_equation_residual,
    reconstruct_field,
    source_rate,
    straight_line_amplitudes,
)
from covham.errors import (
    CanonicalStructureError,
    CovhamError,
    CrossingError,
    GridDomainError,
    ModeBudgetError,
    ScenarioError,
    ZeroModeError,
)
from covham.fields import (
    FieldSpec,
    contract_full,
    em_field,
    scalar_field,
    spinor_field,
    tensor_field,
)
from covham.green import em_potential, green_oracle, scalar_yukawa
from covham.minkowski import (
    METRIC_DIAG,
    lower_index,
    mass_shell_energy,
    minkowski_dot,
    on_shell_k,
)
from covham.modes import ModeGrid, box_mode_grid, build_mode_grid
from covham.position import parseval_check
from covham.scenario import Scenario, load_scenario, scenario_from_dict
from covham.verify import (
    DEFAULT_TOLERANCES,
    Report,
    averaged_profile,
    run_verification,
    write_report,
)
from covham.worldlines import (
    Worldline,
    circular_worldline,
    static_worldline,
    uniform_worldline,
)
