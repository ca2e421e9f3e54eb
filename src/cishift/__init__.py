"""Complete-intersection testing for monomial curves and their shifted families."""

from .delorme import (
    CICertificate,
    DelormeSplit,
    Leaf,
    SplitNode,
    certificate_from_json,
    certificate_to_json,
    clear_caches,
    enumerate_splits,
    format_certificate,
    is_complete_intersection,
    verify_certificate,
)
from .errors import (
    CapExceededError,
    CishiftError,
    InvalidCertificateError,
    NotCompleteIntersectionError,
)
from .semigroup import (
    divisors,
    find_representation,
    find_representation_with_sum,
    frobenius,
    is_member,
)
from .seqcore import (
    BaseSequence,
    GeneratorSequence,
    differences,
    normalize,
    parse_base,
    parse_gens,
    shift,
)
from .shiftscan import (
    CISet,
    MainTheoremWitness,
    N2Witness,
    N3Witness,
    PeriodicityReport,
    ci_at,
    converse_predicate,
    eventual_report,
    main_theorem_witness,
    n2_criterion,
    n3_criterion,
    scan,
    solve_two_term,
    top_split_anatomy,
)
from .toricoracle import (
    BettiProfile,
    FactorizationSet,
    betti_profile,
    factorizations,
    graph_components,
    is_ci_oracle,
    profile_from_json,
    profile_to_json,
)

__version__ = "0.1.0"
