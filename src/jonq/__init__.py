"""jonq: exact implicitization of de Jonquieres parametrizations over Q."""

__version__ = "0.1.0"

from jonq.birational import (
    RationalMapData,
    VerifiedCremona,
    base_ideal,
    compose,
    identity_map,
    verify_cremona,
)
from jonq.groebner import (
    Budget,
    GroebnerBasis,
    IdealHandle,
    buchberger,
    colon,
    colon_ideal,
    dim_and_codim,
    eliminate,
    graded_piece_dim,
    ideal_equal,
    intersect,
    normal_form,
    saturate,
)
from jonq.implicitize import (
    ImplicitMonoid,
    JonquieresData,
    eulerian_equation,
    implicitize,
    inclusion_case_equivalence,
    nzd_case,
    oracle_implicitize,
    predicted_degree,
    syzygetic_polynomials,
    verify_inverse_representative,
)
from jonq.rees import (
    MonoidParametrization,
    ReesPresentation,
    downgrade,
    downgraded_rees_ideal,
    iterated_downgrades,
    monoid_association,
    rees_ideal,
    saturation_identities,
    x_framing,
)
from jonq.ring import (
    Polynomial,
    VariableSet,
    divide_exact,
    parse_polynomial,
    poly_gcd,
    random_form,
)
from jonq.syzygies import (
    ConductorData,
    GradedMatrix,
    conductor_data,
    lift,
    mapping_cone_matrix,
    regularity_bound_checks,
    regularity_dim1,
    regularity_oracle,
    syzygy_basis,
    verify_syzygy_generation,
)
