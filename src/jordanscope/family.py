"""Parameterized matrix families with polynomial entries."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from .algebra.exprparse import parse_entry
from .algebra.matrices import char_poly
from .algebra.multipoly import MultiPoly
from .algebra.unipoly import UniPoly


class StackedEvaluator:
    """A list of polynomials compiled for evaluation at many points.

    Every monomial that occurs in some polynomial is one row of an
    exponent matrix; a complex coefficient matrix maps the monomial
    values to the polynomials. Evaluating at N points is then one power
    table per parameter, one product over parameters and one matrix
    product.
    """

    def __init__(self, polys: Sequence[MultiPoly], nvars: int):
        monomials = sorted({e for p in polys for e in p.terms})
        if not monomials:
            monomials = [(0,) * nvars]
        row = {e: k for k, e in enumerate(monomials)}
        self.exponents = np.array(monomials, dtype=np.intp).reshape(-1, nvars)
        self.coeffs = np.zeros((len(monomials), len(polys)), dtype=complex)
        for j, p in enumerate(polys):
            for e, c in p.terms.items():
                self.coeffs[row[e], j] = complex(c)

    def __call__(self, points) -> np.ndarray:
        """Values at a stack of points: shape (N, len(polys))."""
        x = np.asarray(points, dtype=complex)
        if x.ndim != 2 or x.shape[1] != self.exponents.shape[1]:
            raise ValueError("point dimension mismatch")
        values = np.ones((x.shape[0], self.exponents.shape[0]), dtype=complex)
        for v in range(x.shape[1]):
            expo = self.exponents[:, v]
            table = np.ones((x.shape[0], int(expo.max()) + 1), dtype=complex)
            for e in range(1, table.shape[1]):
                table[:, e] = table[:, e - 1] * x[:, v]
            values *= table[:, expo]
        return values @ self.coeffs


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

    # One point is evaluated term by term in Python and a stack of
    # points by compiled numpy evaluators. The two round differently in
    # the last bits, and the single-point callers (path tracking, bound
    # checks, verify) keep the loop so that their reports do not change.

    def at(self, point) -> np.ndarray:
        """Evaluate the family at a complex parameter point."""
        return np.array(
            [[e.eval_complex(point) for e in row] for row in self.entries],
            dtype=complex,
        )

    def at_many(self, points) -> np.ndarray:
        """Evaluate at a stack of points: shape (N, n, n)."""
        if not hasattr(self, "_entry_eval"):
            self._entry_eval = StackedEvaluator(
                [e for row in self.entries for e in row], self.nparams
            )
        return self._entry_eval(points).reshape(-1, self.n, self.n)

    def at_exact(self, point):
        """Evaluate at a GaussianRational point; exact list-of-lists."""
        return [[e.eval_exact(point) for e in row] for row in self.entries]

    def char_poly_family(self) -> UniPoly:
        """Symbolic characteristic polynomial, coefficients in the
        parameter ring (computed once, cached)."""
        if not hasattr(self, "_charpoly"):
            self._charpoly = char_poly(self.entries)
        return self._charpoly

    def char_poly_at(self, point) -> UniPoly:
        """Characteristic polynomial at a point, complex coefficients."""
        return self.char_poly_family().eval_coeffs_complex(point)

    def char_poly_coeffs_many(self, points) -> np.ndarray:
        """Characteristic-polynomial coefficients, constant term first,
        at a stack of points: shape (N, n + 1)."""
        if not hasattr(self, "_charpoly_eval"):
            self._charpoly_eval = StackedEvaluator(
                self.char_poly_family().coeffs, self.nparams
            )
        return self._charpoly_eval(points)

    def operator_norm_at(self, point) -> float:
        return float(np.linalg.norm(self.at(point), 2))
