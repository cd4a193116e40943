"""Exact alcove combinatorics for products of GL_n.

Public surface: the root datum layer (weights, roots, depth), the extended
affine Weyl group (lengths, reduced words, Bruhat and raising orders,
admissible sets), Serre weight and Deligne-Lusztig presentation calculus
(Jordan-Holder sets, outer factors, covering), predicted weight sets with
elimination certificates and the weight-connectivity graph.

The brute-force oracles that certify these paths, and the lemma sweeps built
on them, are not part of this namespace: import :mod:`alcove.oracle`.
Importing ``alcove`` does not load it.
"""

from .affine_weyl import (
    ExtAffineElt,
    OmegaDecomp,
    adm_eta,
    bruhat_interval,
    bruhat_leq,
    diamond,
    is_dominant_elt,
    is_restricted_elt,
    length,
    omega_decompose,
    p_dot,
    reduced_word,
    restricted_reps,
    up_leq,
    wh_element,
)
from .herzig import (
    ConnectionEdge,
    ConnectivityGraph,
    EliminationCertificate,
    NotEliminableError,
    TameParam,
    admissible_pair,
    connectivity_graph,
    eliminate,
    equivalence_report,
    herzig_twist,
    wobv,
    wset,
    wset_by_definition,
)
from .root_data import (
    AlcoveError,
    BudgetError,
    DepthError,
    FiniteWeylElt,
    Root,
    RootDatum,
    ValidationError,
    WeightVec,
    depth_of,
    frobenius_pi,
    h_value,
    pairing,
)
from .weights_dl import (
    DLPresentation,
    SerrePresentation,
    SerreWeight,
    covers,
    d_sigma,
    dl_equal,
    is_m_generic,
    jh_outer,
    jh_set,
    jh_set_by_reflection,
    max_genericity,
    presentations_of,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
