"""Parameterized matrix families with polynomial entries."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from .algebra.exprparse import parse_entry
from .algebra.matrices import as_matrix, char_poly
from .algebra.multipoly import MultiPoly, StackedEvaluator
from .algebra.unipoly import UniPoly
from .ranklab import NonFiniteError


#: most parameters a family spec may name; sampling memory grows with it
MAX_PARAMS = 16


def _strings(value) -> bool:
    return isinstance(value, list) and all(isinstance(x, str) for x in value)


def _finite(evaluator: StackedEvaluator, points, message: str) -> np.ndarray:
    """The evaluator's values at the points; a value beyond the float64
    range raises NonFiniteError with ``message``."""
    values = evaluator(points)
    if not np.all(np.isfinite(values)):
        raise NonFiniteError(message)
    return values


@dataclass
class MatrixFamily:
    """An n x n grid of MultiPoly entries over shared parameters."""

    n: int
    params: List[str]
    entries: List[List[MultiPoly]]
    label: Optional[str] = None

    def __post_init__(self):
        if self.n < 1 or len(self.params) < 1:
            raise ValueError("need n >= 1 and at least one parameter")
        if len(self.entries) != self.n or any(len(r) != self.n for r in self.entries):
            raise ValueError("entry grid is not n x n")
        nv = len(self.params)
        for row in self.entries:
            for e in row:
                if e.nvars != nv:
                    raise ValueError("entry does not share the parameter list")

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_entries(cls, texts: Sequence[Sequence[str]], params: Sequence[str],
                     label: Optional[str] = None) -> "MatrixFamily":
        params = list(params)
        grid = [[parse_entry(t, params) for t in row] for row in texts]
        return cls(n=len(grid), params=params, entries=grid, label=label)

    @classmethod
    def from_spec_dict(cls, doc: dict) -> "MatrixFamily":
        """The family of a JSON spec; a malformed one raises ValueError
        (KeyError for a missing key) before any entry is parsed."""
        if not isinstance(doc, dict):
            raise ValueError("a family spec is a JSON object")
        n, params, texts = doc["n"], doc["params"], doc["entries"]
        if type(n) is not int or n < 1:
            raise ValueError("n must be a positive integer")
        if not _strings(params) or len(set(params)) != len(params):
            raise ValueError("params must be a list of distinct strings")
        if len(params) > MAX_PARAMS:
            raise ValueError(f"{len(params)} parameters exceed the cap of {MAX_PARAMS}")
        if not (isinstance(texts, list) and len(texts) == n
                and all(_strings(row) and len(row) == n for row in texts)):
            raise ValueError("entries must be n lists of n strings")
        return cls.from_entries(texts, params, label=doc.get("label"))

    def to_spec_dict(self) -> dict:
        return {
            "n": self.n,
            "params": list(self.params),
            "entries": [
                [e.to_string(self.params) for e in row] for row in self.entries
            ],
            "label": self.label,
        }

    # -- evaluation ----------------------------------------------------------

    @property
    def nparams(self) -> int:
        return len(self.params)

    def at(self, point) -> np.ndarray:
        """Evaluate the family at a complex parameter point."""
        return self.at_many([point])[0]

    def at_many(self, points) -> np.ndarray:
        """Evaluate at a stack of points: shape (N, n, n). Values beyond
        the float64 range raise NonFiniteError."""
        if not hasattr(self, "_entry_eval"):
            self._entry_eval = StackedEvaluator(
                [e for row in self.entries for e in row], self.nparams
            )
        values = _finite(self._entry_eval, points, "matrix has non-finite entries")
        return values.reshape(-1, self.n, self.n)

    def at_exact(self, point) -> np.ndarray:
        """Evaluate at a GaussianRational point; an exact object array."""
        return as_matrix([[e.eval_exact(point) for e in row] for row in self.entries])

    def char_poly_family(self) -> UniPoly:
        """Symbolic characteristic polynomial, coefficients in the
        parameter ring (computed once, cached)."""
        if not hasattr(self, "_charpoly"):
            self._charpoly = char_poly(self.entries)
        return self._charpoly

    def char_poly_at(self, point) -> UniPoly:
        """Characteristic polynomial at a point, complex coefficients."""
        return self.char_poly_at_many([point])[0]

    def char_poly_at_many(self, points) -> List[UniPoly]:
        """Characteristic polynomials at a stack of points, complex
        coefficients, from one evaluator call. Each row depends only on
        its own point, so every polynomial has the bits that
        ``char_poly_at`` gives at that point. Coefficients beyond the
        float64 range at any point raise NonFiniteError, as in
        :meth:`at_many`."""
        if not hasattr(self, "_charpoly_eval"):
            self._charpoly_eval = StackedEvaluator(
                self.char_poly_family().coeffs, self.nparams
            )
        values = _finite(self._charpoly_eval, points,
                         "characteristic polynomial has non-finite coefficients")
        return [UniPoly(row) for row in values.tolist()]

    def operator_norm_at(self, point) -> float:
        """Operator 2-norm at a point, from an SVD."""
        return float(np.linalg.norm(self.at(point), 2))
