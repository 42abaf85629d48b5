"""Graphs whose squares are complete multipartite, and certificates that
their squares separate list chromatic number from chromatic number.

The pipeline: the n - 1 orthogonal Latin squares of prime order n, a
plain tuple, give a graph G on 2n^2 - n vertices whose square is the
complete multipartite graph with 2n - 1 parts of size n, handed on as a
tuple of vertex tuples.  Once that is verified, coloring by part
and one vertex per part (a clique) pin the chromatic number of the square
at 2n - 1, and an exhaustive refutation of a structured list assignment
shows the list chromatic number is at least 3(n - 1) + 1, so the gap is
at least n - 1.
"""

from .errors import SearchBudgetExceeded
from .latin import (
    are_orthogonal,
    build_latin,
    build_mols_family,
    is_latin,
    require_prime,
)
from .graphcore import SimpleGraph, square
from .construction import ConstructedGraph, construct_counterexample
from .verification import (
    LemmaReport,
    check_independence,
    check_lemma_nv,
    check_lemma_nw,
    check_pq_adjacency,
    check_square_structure,
    run_all_checks,
)
from .coloring import (
    GapCertificate,
    ListAssignment,
    ListColoringResult,
    SearchAttestation,
    certify_gap,
    is_list_colorable,
    multipartite_list_colorable,
    vetrik_assignment,
    vetrik_lower_bound,
)
from . import serialize

__version__ = "0.1.0"

# Every name imported above except the submodules, which importing binds
# here too; serialize is exported as a module.
__all__ = [name for name, value in globals().items()
           if not name.startswith("_")
           and (name == "serialize" or not isinstance(value, type(serialize)))]
