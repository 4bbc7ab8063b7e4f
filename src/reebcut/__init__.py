"""Hamiltonian disc maps as Reeb return maps on the 3-sphere.

The library realizes area-preserving diffeomorphisms of the unit disc as
Poincare return maps of Reeb flows obtained by collapsing the boundary of
the solid torus S^1 x D^2 along a circle action (a contact cut), and audits
every numerically checkable step of that construction: contact conditions,
smooth extension of the induced form over the binding circle, the square
Poincare lemma and Moser flow, and dynamical invariants (Conley-Zehnder
indices, self-linking, resonance).
"""

from .errors import (
    ConfigurationError,
    DegenerateOrbitError,
    EvaluationError,
    InconclusiveError,
    IntegrationError,
    NonEllipticOrbitError,
    PreconditionError,
    ReebcutError,
    ResolutionError,
    ValidationError,
)
from .geometry import DiscPoint, polar_grid, wrap_angle
from .hamiltonians import (
    CallableHamiltonian,
    ContactAuditReport,
    Hamiltonian,
    QuadraticHamiltonian,
    RigidRotationHamiltonian,
    SamplingGrid,
    contact_audit,
    contact_margin,
    cosine_defect_hamiltonian,
    hamiltonian_vector_field,
    liouville_pairing,
)
from .flows import (
    FlowSettings,
    IsotopyPath,
    PeriodicPointRecord,
    ReturnMapReport,
    area_preservation_audit,
    integrate_isotopy,
    linearized_return,
    periodic_point_scan,
    reeb_period,
    return_map,
    return_map_report,
)

__version__ = "0.1.0"

from .binding import (  # noqa: E402
    BindingChart,
    ExtensionReport,
    ExtensionSettings,
    QuotientMapSpec,
    adapted_collar_g,
    binding_function_f,
    extended_contact_audit,
    extension_test,
    phi_embed,
    phi_invert,
    primitive_change_audit,
    pullback_residual,
    quotient_map,
)
from .invariants import (  # noqa: E402
    CZReport,
    Frame,
    cz_ellipsoid,
    cz_from_rotation,
    gauss_linking_integral,
    resonance_check,
    rotation_number,
    self_linking,
)
from .moser import (  # noqa: E402
    BumpProfile,
    CanonicalRecoverySettings,
    GridFunction2D,
    HamiltonianIsotopyPath,
    MoserSettings,
    OneForm2D,
    canonical_hamiltonian,
    moser_flow,
    moser_pullback_residual,
    poincare_primitive,
    primitive_residual,
    zero_integral_fixture,
)
from .pseudorotations import (  # noqa: E402
    ApproximationStage,
    ComposedHamiltonian,
    ConjugatorSchedule,
    ConjugatorSpec,
    boundary_jet_check,
    build_conjugator,
    conjugated_stage,
    continued_fraction_convergents,
    golden_mean_inverse,
    orbit_statistics,
    stage_sequence,
)
