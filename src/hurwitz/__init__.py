"""Exact Hurwitz-number computation with certified large-genus asymptotics.

The package evaluates completed-cycle and hypergeometric (rational
weight) Hurwitz numbers, their orbifold and Gromov-Witten relatives, and
Jack-deformed b-content variants, all in exact rational arithmetic; it
evaluates the matching closed-form large-genus leading terms; and it
certifies both against independent brute-force permutation oracles at
small degree.
"""

from .core import (
    GSpec,
    HurwitzResult,
    character_sum,
    classical_hurwitz,
    completed_hurwitz,
    connected_transform,
    f_bar,
    gw_correlator,
    hypergeometric_hurwitz,
    m_ds,
    orbifold_hurwitz,
    structure_coefficients,
)
from .errors import (
    DomainError,
    EmptyReportError,
    HurwitzError,
    SingularParameterError,
    SizeLimitError,
)
from .partitions import (
    ClassData,
    FrobeniusShifted,
    Partition,
    class_data,
    enumerate_partitions,
    frobenius_shifted,
    transpose,
)

__version__ = "0.1.0"

__all__ = [
    "ClassData",
    "DomainError",
    "EmptyReportError",
    "FrobeniusShifted",
    "GSpec",
    "HurwitzError",
    "HurwitzResult",
    "Partition",
    "SingularParameterError",
    "SizeLimitError",
    "character_sum",
    "class_data",
    "classical_hurwitz",
    "completed_hurwitz",
    "connected_transform",
    "enumerate_partitions",
    "f_bar",
    "frobenius_shifted",
    "gw_correlator",
    "hypergeometric_hurwitz",
    "m_ds",
    "orbifold_hurwitz",
    "structure_coefficients",
    "transpose",
]
