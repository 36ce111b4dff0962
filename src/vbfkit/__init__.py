"""vbfkit: vectorial Boolean functions over GF(2^m).

Field arithmetic, lookup-table function algebra, Walsh and differential
spectra, graph-based equivalence transforms, and the quadratic APN/AB
construction families, plus a small CLI (``vbfkit --help``).
"""

from vbfkit.ccz import (
    BinLinearMap,
    CczWitness,
    ccz_transform,
    gold_graph_completion_search,
    graph_image,
    linear_completion_search,
    power_inequivalence_witness,
)
from vbfkit.constructions import (
    family_exponent,
    theorem1,
    theorem2,
    theorem3,
    theorem4,
)
from vbfkit.gf2m import Field, default_poly, is_irreducible
from vbfkit.spectra import (
    DifferentialSpectrum,
    WalshSpectrum,
    differential_spectrum,
    differential_uniformity,
    is_ab,
    is_apn,
    nonlinearity,
    walsh_spectrum,
)
from vbfkit.vbf import (
    FuncTable,
    UnivariatePoly,
    add,
    algebraic_degree,
    component_degree,
    compose,
    evaluate,
    interpolate,
    invert,
    is_permutation,
    monomial,
    two_weight,
)

__version__ = "0.1.0"

__all__ = [
    "Field",
    "default_poly",
    "is_irreducible",
    "FuncTable",
    "UnivariatePoly",
    "add",
    "algebraic_degree",
    "component_degree",
    "compose",
    "evaluate",
    "interpolate",
    "invert",
    "is_permutation",
    "monomial",
    "two_weight",
    "WalshSpectrum",
    "DifferentialSpectrum",
    "walsh_spectrum",
    "differential_spectrum",
    "nonlinearity",
    "differential_uniformity",
    "is_ab",
    "is_apn",
    "BinLinearMap",
    "CczWitness",
    "graph_image",
    "ccz_transform",
    "linear_completion_search",
    "gold_graph_completion_search",
    "power_inequivalence_witness",
    "family_exponent",
    "theorem1",
    "theorem2",
    "theorem3",
    "theorem4",
    "__version__",
]
