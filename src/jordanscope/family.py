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
        n = int(doc["n"])
        params = list(doc["params"])
        texts = doc["entries"]
        if len(texts) != n or any(len(row) != n for row in texts):
            raise ValueError("entries grid does not match n")
        fam = cls.from_entries(texts, params, label=doc.get("label"))
        return fam

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
        try:
            values = self._entry_eval(points)
        except OverflowError:  # a power beyond float64
            raise NonFiniteError() from None
        if not np.all(np.isfinite(values)):
            raise NonFiniteError()
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
        if not hasattr(self, "_charpoly_eval"):
            self._charpoly_eval = StackedEvaluator(
                self.char_poly_family().coeffs, self.nparams
            )
        return UniPoly(self._charpoly_eval([point])[0].tolist())

    def operator_norm_at(self, point) -> float:
        return self.operator_norms([point])[0]

    def operator_norms(self, points) -> List[float]:
        """Operator 2-norms at a stack of points, from one stacked SVD."""
        return np.linalg.norm(self.at_many(points), 2, axis=(1, 2)).tolist()
