"""Generalized preprojective algebras over symmetrizable Cartan data:
Weyl groups, tilting ideals, and support tau-tilting modules."""

from .cartan import (
    CartanData,
    cartan_data,
    default_orientation,
    double_quiver,
    find_symmetrizer,
    is_dynkin,
    validate_cartan,
)
from .coxeter import coxeter_order, enumerate_weyl
from .fields import QQ, PrimeField
from .pathalg import (
    build_algebra,
    preprojective_relations,
    verify_algebra,
)
from .repmod import (
    auslander_reiten_translate,
    generalized_simple,
    hom_space,
    hom_to_tau_vanishes,
    in_fac,
    is_indecomposable,
    is_isomorphic,
    locally_free_rank,
    minimal_projective_presentation,
    nakayama,
    structure_series,
)
from .tautilt import (
    IdealSemigroup,
    classification_report,
    exchange_graph,
    ideal_product,
    left_mutation,
    mutation_graph,
    stt_pair,
    verify_stt,
)

__version__ = "0.1.0"
