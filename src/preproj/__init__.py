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
from .coxeter import (
    all_reduced_words,
    coxeter_order,
    demazure_product,
    enumerate_weyl,
    simple_reflection_matrix,
)
from .fields import QQ, PrimeField
from .pathalg import (
    build_algebra,
    groebner_quotient,
    normal_form,
    preprojective_relations,
    verify_algebra,
)
from .repmod import (
    auslander_reiten_translate,
    ext1_dim,
    generalized_simple,
    hom_space,
    in_fac,
    is_indecomposable,
    is_isomorphic,
    is_tau_rigid,
    locally_free_rank,
    minimal_projective_presentation,
    nakayama,
    projective_module,
    structure_series,
)
from .tautilt import (
    IdealSemigroup,
    classification_report,
    ideal_product,
    left_mutation,
    mutation_graph,
    stt_pair,
    verify_stt,
    vertex_ideal,
)

__version__ = "0.1.0"
