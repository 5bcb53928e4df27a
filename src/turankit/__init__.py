"""turankit: exact clique-density bounds and certificates for uniform hypergraphs.

The package computes, entirely in rational arithmetic: finite-n and
asymptotic upper bounds for the density of complete g-sets in k-graphs with
no complete r-set (via a tridiagonal multiplier system), comparison and
lower-bound values, isomorphism-free enumeration of small hypergraphs, an
exact typed-flag expansion engine, and an exhaustively checked
sum-of-squares certificate pinning the limiting empty-4-set density of
3-graphs without empty 5-sets at 3/8.  A flag is a plain `Hypergraph` whose
first s vertices carry its type, a `Hypergraph` on s vertices.

Import runs only `combinat`.  The other submodules run on the first use of
one of their names: `bounds` needs no numpy, while `hypergraph`, `flags`,
`certificate` and `relations` load it.  `from turankit import *` binds the
public names of every submodule, and so runs them all.
"""

import importlib.util
import sys

# the public names of each submodule, read as its `__all__`: combinat runs
# on import, the others on first use
_NAMES = {
    "combinat": "EpsilonMode binomial decimal_string epsilon_threshold epsilon_value "
    "multinomial vertex_threshold x_ratio",
    "bounds": "BoundReport PartiteBound SandwichTable TridiagonalSystem "
    "asymptotic_product build_system de_caen_bound inverse_matrix partite_lower_bound "
    "recurrences sandwich_table solve_delta upper_bound",
    "certificate": "CertificateReport CertificateTerm certificate_terms e5free_six_classes "
    "two_clique_density verify_certificate",
    "flags": "ExpansionVector chain_lift square_expansion",
    "hypergraph": "MAX_VERTICES Hypergraph canonical_mask clique_counts colex_subsets "
    "disjoint_union enumerate_all has_no_empty_set induced_density read_hgr "
    "restriction_class_counts subset_rank tuple_bits write_hgr",
    "relations": "SUITES InequalityCheck check_relaxed_rows check_square_intermediate "
    "check_three_term_inequality telescoped_combination",
}

from .combinat import *  # after _NAMES, which combinat reads

_LAZY = {name: module for module, names in _NAMES.items() for name in names.split()}
__all__ = list(_LAZY)  # a star import binds every public name, running each submodule
# every submodule but combinat: in sys.modules now, for tools that look there; run on first use
for _module in list(_NAMES)[1:]:
    _spec = importlib.util.find_spec(f".{_module}", __name__)
    _spec.loader = importlib.util.LazyLoader(_spec.loader)
    globals()[_module] = sys.modules[_spec.name] = importlib.util.module_from_spec(_spec)
    _spec.loader.exec_module(globals()[_module])


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(globals()[_LAZY[name]], name)


__version__ = "0.1.0"
