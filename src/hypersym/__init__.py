"""Complete spectra of hypergraph matrices from their symmetries.

A hypergraph automorphism splits every compatible matrix into small
blocks, one per root of unity of its cycle lengths, the trivial root's
block being the orbit quotient; a unit bijection adds known
eigenvalues for free and reduces the rest to the unit quotient. Both
routes lift block eigenvectors back to full ones, and every result can
be replayed against the dense spectrum.
"""

from .dynamics import SYNC_TOL, SyncReport, Trajectory, check_orbit_synchronization, iterate
from .errors import (
    DocumentError,
    HypersymError,
    IncompatibleMatrixError,
    NotAutomorphismError,
    NotEquitableError,
    NotUnitAutomorphismError,
    NotUnitCompatibleError,
)
from .generators import (
    compatible_matrix,
    cycle_types,
    invariant_hypergraph,
    invariant_weights,
    permutation_with_type,
    random_instance,
)
from .hypergraph import (
    ContractionResult,
    Hyperedge,
    Hypergraph,
    Unit,
    UnitPartition,
    compute_units,
    edge_unit_covers,
    parse_hypergraph,
    sort_labels,
    unit_contraction,
    unit_key,
)
from .jsonutil import canonical_json, complex_pair, parse_json
from .matrices import (
    MATRIX_KINDS,
    HypergraphMatrix,
    RowSumReport,
    WeightFunctions,
    as_array,
    build_matrix,
    row_sum_check,
)
from .oracle import (
    MATCH_TOL,
    SpectrumReport,
    dense_spectrum,
    match_multisets,
    verify_decomposition,
)
from .spectral import (
    COMPAT_TOL,
    LIFT_RESIDUAL_TOL,
    LiftedBlock,
    LiftedPair,
    RootOfUnity,
    RotationBlock,
    SpectralDecomposition,
    decompose_automorphism,
    lift_orbit_vector,
    lift_rotation_vector,
    roots_of_unity,
    rotation_matrix,
    spectral_radius_via_quotient,
)
from .symmetry import (
    EQUITABLE_TOL,
    Automorphism,
    OrbitPartition,
    Permutation,
    Rotation,
    as_rotation,
    check_commutation,
    compatibility_deviation,
    equitable_witness,
    is_equitable,
    orbit_quotient,
    orbits,
    rotation_decomposition,
    validate_automorphism,
)
from .unit_symmetry import (
    MERGE_TOL,
    UnitAutomorphism,
    UnitEigenReport,
    blow_up,
    decompose_unit_automorphism,
    lift_cardinality_preserving,
    profile_unit_compatibility,
    unit_compatibility_witness,
    unit_eigenvalues,
    unit_quotient,
    validate_unit_automorphism,
)

__version__ = "0.1.0"
