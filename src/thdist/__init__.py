"""thdist: a workbench for distances between formal logical theories.

Desk-scale fragments (sentential logic and finite-variable first-order
logic on bounded finite models) with exact brute-force oracles, verifiable
edge certificates, and 0/1-weighted distances on cluster networks:
axiomatic, conceptual, faithful-interpretation and their directed variants.
"""

__version__ = "0.1.0"

from .errors import (
    CapExceededError,
    CatalogError,
    FormulaSyntaxError,
    InconsistencyError,
    LanguageError,
    RemovalError,
    ThdistError,
    UnsupportedFragmentError,
    VariableBudgetError,
)
from .syntax import Formula, Language, make_psi_n, parse_formula, print_formula
from .translation import Translation, apply_translation, make_pairing
from .semantics import (
    FiniteModel,
    Theory,
    bounded_consequence,
    conservative_extension,
    enumerate_models,
    eval_formula,
    is_true,
    logically_equivalent,
    sat_assignments,
    spectrum,
)
from .concepts import (
    check_defeq,
    check_interpretation,
    concept_closure,
    cz_lower_bound,
    cz_of_model,
    cz_sentential,
    sentential_defeq_witness,
)
from .relations import (
    EdgeCertificate,
    axiom_add_exists,
    check_axiom_add,
    check_concept_add,
    collapse_concepts,
    concept_removals,
    theorem_removals,
    verify_certificate,
)
from .network import (
    ClusterNetwork,
    DistanceResult,
    ExtNat,
    INFINITY,
    axiomatic_distance,
    bidirected_conceptual_distance,
    build_network,
    check_amalgamation,
    classify_ad,
    conceptual_distance,
    directed_step_distance,
    distance_matrix,
    distances_from,
    export_dot,
    export_json,
    faithful_interpretation_distance,
    lower_bound_certificates,
    sentential_cd_solve,
    step_distance,
)
from .catalog import Catalog, load_catalog, loads_catalog, verify_all
