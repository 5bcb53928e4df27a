"""turankit: exact clique-density bounds and certificates for uniform hypergraphs.

The package computes, entirely in rational arithmetic: finite-n and
asymptotic upper bounds for the density of complete g-sets in k-graphs with
no complete r-set (via a tridiagonal multiplier system), comparison and
lower-bound values, isomorphism-free enumeration of small hypergraphs, an
exact typed-flag expansion engine, and an exhaustively checked
sum-of-squares certificate pinning the limiting empty-4-set density of
3-graphs without empty 5-sets at 3/8.
"""

from .bounds import (
    BoundReport,
    PartiteBound,
    RecurrenceTables,
    SandwichTable,
    TridiagonalSystem,
    asymptotic_product,
    build_system,
    de_caen_bound,
    inverse_matrix,
    partite_lower_bound,
    recurrences,
    sandwich_table,
    solve_delta,
    upper_bound,
)
from .certificate import (
    CertificateReport,
    CertificateTerm,
    FlagCatalog,
    catalog_flags,
    certificate_terms,
    e5free_six_classes,
    two_clique_density,
    verify_certificate,
)
from .combinat import (
    EpsilonMode,
    binomial,
    decimal_string,
    epsilon_threshold,
    epsilon_value,
    exp_bounds,
    multinomial,
    vertex_threshold,
    x_ratio,
)
from .flags import (
    ExpansionVector,
    Flag,
    chain_lift,
    flag_code,
    square_expansion,
    typed_code,
)
from .hypergraph import (
    Hypergraph,
    canonical_mask,
    clique_counts,
    colex_subsets,
    disjoint_union,
    enumerate_all,
    has_no_empty_set,
    induced_density,
    read_hgr,
    restriction_class_counts,
    subset_rank,
    write_hgr,
)
from .relations import (
    InequalityCheck,
    check_relaxed_rows,
    check_square_intermediate,
    check_three_term_inequality,
    telescoped_combination,
)

__version__ = "0.1.0"
