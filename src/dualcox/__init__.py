"""Exact computations in finite Coxeter groups generated by their reflections.

The package treats a finite Coxeter group through the full set of its
reflections rather than just the simple generators: reflection length and
absolute order, reduced reflection factorizations and the braid (Hurwitz)
action on them, parabolic closures of elements, reflection subgroups with
their canonical generators, and the commuting cycle-type decomposition that
generalizes the disjoint-cycle decomposition of permutations.

Everything is exact: coordinates live in Q or Q(sqrt 5), elements are signed
permutations of the positive roots, and absolute order is read off sums of
root orbits.
"""

from .algebra import Matrix, Scalar
from .coxeter import (
    CoxeterDescriptor,
    CoxeterSystem,
    Element,
    build_group,
    classical_order,
    classical_root_count,
    element_from_matrix,
    element_from_refl_word,
    element_from_simple_word,
    enumerate_group,
)
from .cycles import (
    AllDecompositions,
    CycleDecomposition,
    all_decompositions,
    cycle_decomposition,
    decomposition_in_subgroup,
    is_indecomposable,
    is_indecomposable_brute,
    verify_decomposition,
)
from .dual import (
    RedSet,
    absolute_leq,
    below_reflections,
    count_reduced,
    first_reduced_word,
    interval,
    iter_reduced,
    parabolic_closure,
    reduced_expressions,
    reflection_below,
    reflection_length,
)
from .errors import (
    CapExceededError,
    DualcoxError,
    GroupTooLargeError,
    InternalInvariantError,
    MixedGroupsError,
    NoLinearModelError,
    NotQuasiCoxeterError,
    UnsupportedTypeError,
    WordParseError,
)
from .hurwitz import (
    HurwitzOrbit,
    hurwitz_move,
    hurwitz_orbits,
    is_parabolic_quasi_coxeter,
    is_quasi_coxeter,
    orbit_search,
)
from .permmodel import (
    Permutation,
    SignedPermutation,
    classical_cycles,
    cycles_str,
    element_from_permutation,
    element_from_signed,
    perm_reflection_length,
    signed_cycles,
    to_permutation,
    to_signed,
)
from .subgroups import (
    ReflectionSubgroup,
    canonical_generators,
    contains_element,
    embed_by_roots,
    full_subgroup,
    is_parabolic,
    reflection_closure,
)

__version__ = "0.1.0"
