"""alcovekit: exact tamely ramified Bruhat-Tits combinatorics.

Modules:
  rootdata     based root data, Weyl groups, fundamental groups, Tate H^0
  apartment    rational apartment points, Frobenius, genericity, patterns
  galois       Galois types, censuses, strictification
  weyl_affine  Iwahori-Weyl combinatorics: lengths, words, Bruhat, Adm(mu)
  loop_sim     truncated loop groups over Z/p^a and the straightening solver
  figures      deterministic SVG apartment pictures
  acceptance   the nine-criterion verification gate
  cli          the command table and its one-pass parser
"""
from .rootdata import (
    CapExceeded,
    GammaData,
    RefusedError,
    RootDatum,
    UnsupportedLabel,
    WeylElement,
    build_root_datum,
    pi1,
    pi1_coinvariants,
    split_gamma,
    tate_h0,
    weyl_group,
)
from .apartment import (
    ApartmentPoint,
    ValuationPattern,
    ZERO_PLUS,
    frobenius,
    is_d_generic,
    parahoric_pattern,
    point_from_type,
)
from .galois import (
    CensusResult,
    CoboundaryChain,
    GaloisType,
    census,
    check_cocycle_relations,
    cocycle_values,
    frobenius_invariant,
    strictify,
    type_from_s_mu,
)
from .weyl_affine import (
    AffineWeylElement,
    BaseAlcove,
    admissible_set,
    base_alcove,
    bruhat_leq,
    h_mu,
    length,
    reduced_word,
    translation_element,
)
from .loop_sim import (
    LoopElement,
    PrecisionError,
    Ring,
    TruncSeries,
    congruence_compare,
    conjugation_depth_bound,
    straighten_right,
)
from .monomial import MonomialMatrix

__version__ = "0.1.0"
