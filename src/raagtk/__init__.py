"""raagtk: exact computations in right-angled Artin groups.

Defining graphs, canonical normal forms, geodesics and walls, medians and
median-subalgebra closures, element invariants and centralizers, tree
actions with arc and almost-stabilizers, parabolic/semi-parabolic subgroup
forms, splitting automorphisms (twists, folds, partial conjugations) with
non-innerness certificates, finite-radius coarse-median defect measurement,
and geodesic/chain decomposition with double-centralizer classification.
"""

from .errors import RaagError
from .graph import DefGraph, VertexSet
from .words import (
    ClosureResult,
    CyclicDecomposition,
    Hyperplane,
    NormalForm,
    Word,
    ball,
    cyclic_reduce,
    dist,
    identity,
    invert,
    median,
    multiply,
    normalize,
    parse_word,
    subalgebra_closure,
)
from .elements import (
    CentralizerForm,
    LIDecomposition,
    centralizer,
    commutes,
    gamma,
    is_label_irreducible,
    li_components,
    membership_centralizer,
    primitive_root,
)
from .trees import (
    AlmostStabilizerResult,
    TreeArc,
    TreeVertex,
    almost_stabilizer,
    arc,
    arc_stabilizer,
    tree_vertex,
    tv_distance,
    tv_translation_length,
)
from .subgroups import (
    SubgroupForm,
    ValidationReport,
    intersect,
    member,
    parabolic,
    semi_parabolic,
    validate,
)
from .dls import (
    DlsAutomorphism,
    SplittingData,
    apply,
    build_partial_conjugation,
    build_transvection,
    compose,
    inverse,
    outer_order_certificate,
    verify_automorphism,
)
from .cmp import CertifyReport, DefectReport, cmp_certify, cmp_defect
from .decomp import (
    Decomposition,
    HyperplanePair,
    classify_decent_pair,
    decompose_chain,
    decompose_good,
    delta_invariants,
    is_decent,
    pair_from_word,
)

__version__ = "0.1.0"
