"""
crystalcharge: exact charge statistics on type-A crystals.

Computes the charge statistic Z - (1/2) length(wt) on semistandard
tableau crystals of SL_{n+1} via atomic decompositions, the atomic
number Z, twisted Bruhat graphs and swapping functions, and validates
the resulting Kostka-Foulkes polynomials against two independent
classical oracles.  All arithmetic is exact and in integers: Z, charge,
recharge and the Hecke exponents are half-integers, returned doubled.
"""

from .affine_graph import (
    STAGE_INFINITY,
    AffineCoroot,
    IntervalGraph,
    TwistedGraph,
    apply_affine_reflection,
    arr_infinity_formula,
    build_graph,
    build_interval,
    interval_graph,
    interval_size,
    stabilization_stage,
    stage_reflection,
)
from .atoms import (
    Atom,
    AtomDecomposition,
    AtomStructureError,
    atomic_number,
    bplus_components,
    decompose,
)
from .charge_kostka import (
    HalfLaurentPolynomial,
    SwappingError,
    charge,
    hecke_atomic_expansion,
    kostka,
    kostka_from_hecke,
    llt_gamma,
    ls_word_charge,
    recharge,
    recharge_table,
    swapping_map,
)
from .crystal import (
    Crystal,
    CrystalSizeError,
    normalize_shape,
    reading_word,
    semistandard_tableaux,
    weyl_dimension,
)
from .root_data import (
    LineOrder,
    bruhat_leq_dominant,
    is_dominant,
    length,
    length_along,
    pairing,
    positive_roots,
    rho_doubled,
)
from .verify import VerifyReport, run_verify, validate_atom
