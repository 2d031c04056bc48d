"""Exact m-free sieves over orders in number fields, lattice point counts,
and the constructive tower of quadratic extensions whose top ring of
integers is generated by units."""

from .density import (
    DensityParams,
    SievePolynomial,
    density_gap_check,
    empirical_count,
    error_exponent,
    euler_density,
    mfree_threshold,
    root_count,
)
from .field import AlgebraicInt, NumberField, is_square_in_field
from .fieldspec import load_field_spec
from .geometry import (
    EmbeddedLattice,
    RegionBox,
    enumerate_region,
    in_region,
    widmer_bound,
)
from .ideal import IdealLattice, PrimeIdealData, split_prime
from .order import SubOrder, index_lower_bound
from .tower import (
    Tower,
    TowerStep,
    belcher_criterion,
    build_tower,
    find_omega,
    quadratic_step,
    unit_order,
    verify_unit_generation,
)

__all__ = [
    "AlgebraicInt",
    "DensityParams",
    "EmbeddedLattice",
    "IdealLattice",
    "NumberField",
    "PrimeIdealData",
    "RegionBox",
    "SievePolynomial",
    "SubOrder",
    "Tower",
    "TowerStep",
    "belcher_criterion",
    "build_tower",
    "density_gap_check",
    "empirical_count",
    "enumerate_region",
    "error_exponent",
    "euler_density",
    "find_omega",
    "in_region",
    "index_lower_bound",
    "is_square_in_field",
    "load_field_spec",
    "mfree_threshold",
    "quadratic_step",
    "root_count",
    "split_prime",
    "unit_order",
    "verify_unit_generation",
    "widmer_bound",
]

__version__ = "0.1.0"
