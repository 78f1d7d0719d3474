"""Exact and floating scalar arithmetic, polynomials, and the entry parser."""

from .exprparse import EntrySyntaxError, parse_entry
from .matrices import char_poly
from .multipoly import MultiPoly, mp_content, mp_gcd
from .scalars import GR_I, GR_ONE, GR_ZERO, GaussianRational
from .unipoly import (
    UniPoly,
    derivative,
    pseudo_divmod,
    square_free_part,
    subresultant_gcd,
    subresultant_prs,
)

__all__ = [
    "EntrySyntaxError",
    "GaussianRational",
    "GR_I",
    "GR_ONE",
    "GR_ZERO",
    "MultiPoly",
    "UniPoly",
    "char_poly",
    "derivative",
    "mp_content",
    "mp_gcd",
    "parse_entry",
    "pseudo_divmod",
    "square_free_part",
    "subresultant_gcd",
    "subresultant_prs",
]
