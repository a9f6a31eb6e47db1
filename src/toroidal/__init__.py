"""Toroidal sets as symbolic towers of nested solid tori.

Computes Cech cohomology profiles, genus, stabilized Alexander polynomials
and attractor-realizability obstructions for toroidal sets, with an
independent knot-diagram engine for cross-checking invariants.
"""

__version__ = "0.1.0"

from .laurent import LaurentPoly, ONE, T, ZERO, parse_poly
from .knots import (
    KnotExpr,
    KnotGenus,
    Sum,
    Table,
    Torus,
    UNKNOT,
    Unknot,
    alexander_of_knot,
    genus_of_knot,
    normalize,
    parse_knot,
    prime_summands,
)
from .diagrams import (
    Diagram,
    alexander_from_diagram,
    genus_bounds,
    load_corpus_diagram,
    parse_pd,
    seifert_genus_upper,
)
from .towers import (
    CohProfile,
    FlowVerdict,
    GenusResult,
    HomeoVerdict,
    Stage,
    Tower,
    cech_h1,
    classify_by_r,
    core_parallel,
    distinguish_connected_sums,
    flow_attractor_verdict,
    generic,
    genus_of_tower,
    homeo_attractor_verdict,
    is_unknotted_tower,
    load_tower,
    r_of_toroidal,
    reembed_unknotted,
    swallow,
    tower_alexander,
    validate_tower,
    wind,
)
from .catalog import built_in_towers, mask_tower
