"""Dense matrices over every scalar ring, and the characteristic
polynomial via the Faddeev-LeVerrier recursion.

Matrices are numpy arrays: complex for floating points, ``dtype=object``
for GaussianRational and MultiPoly entries. Numpy runs the object
arrays' ``@``, ``+`` and ``trace`` element by element in Python, a sum
of products starting from its first product, so each algorithm below is
written once for every ring.

The exact kernels of MultiPoly matrices, :func:`char_poly` and
``ranklab.minors``, run on one Gaussian-integer image (:func:`_scaled_rows`
keyed by :class:`_Keys`); each bounds its radixes and values itself
(:func:`_keyed`, :class:`_Packing`).
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm, prod

import numpy as np

from .multipoly import MultiPoly, _sum_terms, one_like, zero_like
from .scalars import GaussianRational
from .unipoly import UniPoly


def as_matrix(rows) -> np.ndarray:
    """The matrix of ``rows`` in the ring its entries decide: numeric
    arrays pass through, a float, complex or numpy scalar entry anywhere
    makes it complex128, and otherwise it is an object array, int and
    Fraction entries becoming GaussianRational (others pass through)."""
    if isinstance(rows, np.ndarray) and rows.dtype != object:
        return rows
    rows = [list(row) for row in rows]
    if not rows or not rows[0]:
        raise ValueError("empty matrix")
    if any(len(row) != len(rows[0]) for row in rows):
        raise ValueError("ragged matrix")
    kinds = {type(x) for row in rows for x in row}
    if any(issubclass(t, (float, complex, np.number)) for t in kinds):
        return np.array(rows, dtype=complex)
    if any(issubclass(t, (int, Fraction)) for t in kinds):
        rows = [[GaussianRational(x) if isinstance(x, (int, Fraction)) else x
                 for x in row] for row in rows]
    return np.array(rows, dtype=object)


def identity_like(a: np.ndarray) -> np.ndarray:
    """The n x n identity in the ring of the entries of an (..., n, n)
    array."""
    n = a.shape[-1]
    if a.dtype != object:
        return np.eye(n, dtype=a.dtype)
    sample = a.flat[0]
    out = np.full((n, n), zero_like(sample), dtype=object)
    np.fill_diagonal(out, one_like(sample))
    return out


def poly_at_matrix(coeffs, a: np.ndarray) -> np.ndarray:
    """Evaluate sum_k coeffs[k] * a**k by Horner."""
    diagonal = np.arange(a.shape[-1])
    acc = coeffs[-1] * identity_like(a)
    for c in reversed(coeffs[:-1]):
        acc = acc @ a
        acc[diagonal, diagonal] += c
    return acc


def char_poly(matrix) -> UniPoly:
    """Monic characteristic polynomial det(lam*I - matrix), by
    :func:`char_poly_stack` on a stack of one (of :func:`_keyed` entries)."""
    a = as_matrix(matrix)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("characteristic polynomial needs a square matrix")
    if not isinstance(a.flat[0], MultiPoly):
        return UniPoly(char_poly_stack(a[None])[0].tolist())
    (keyed, keys, d), coeffs = _keyed(a), [MultiPoly.one(a.flat[0].nvars)]
    for k, c in enumerate(char_poly_stack(keyed[None])[0, -2::-1], 1):
        coeffs.insert(0, keys.decode(((key, (int(v.real), int(v.imag)) if v.__class__ is complex
                                       else v.ints[:2]) for key, v in c.terms.items()), d**k))
    return UniPoly(coeffs)


def _scaled_rows(m) -> list:
    """(terms, s, size, degrees) of each row of a matrix of MultiPoly
    entries: the terms of each entry times s, the lcm of the row's
    denominators, as (exponent, re, im) ints in term order; the sum of
    |re| + |im| over them; and the largest exponent of each variable."""
    out = []
    for row in m:
        ints = [[(e, *c.ints) for e, c in p.terms.items()] for p in row]
        s = lcm(*(d for entry in ints for *_, d in entry))
        terms = [[(e, a * (s // d), b * (s // d)) for e, a, b, d in entry] for entry in ints]
        flat = [t for entry in terms for t in entry]
        out.append((terms, s, sum(abs(a) + abs(b) for _, a, b in flat),
                    [max((e[v] for e, _, _ in flat), default=0) for v in range(row[0].nvars)]))
    return out


class _Keys:
    """Mixed-radix int keys of exponent vectors: e has the key sum_v e_v *
    prod(radixes[:v]), so a sum of keys is the key of the sum of their
    exponents while each exponent of that sum stays below its radix."""

    def __init__(self, radixes: list):
        self.digits = [(prod(radixes[:v]), radix) for v, radix in enumerate(radixes)]

    def key(self, e) -> int:
        return sum(x * place for x, (place, _) in zip(e, self.digits))

    def decode(self, pairs, d: int) -> MultiPoly:
        """The MultiPoly of (key, (re, im)) pairs of ints: the term (re +
        im*i)/d * x**e for the exponent e of each key, in their order."""
        return MultiPoly(len(self.digits), {
            tuple(key // place % radix for place, radix in self.digits):
            GaussianRational.from_ints(*z, d) for key, z in pairs})


class _KeyedPoly:
    """A MultiPoly of :func:`char_poly`, or a constant: int keys, Python
    complex or GaussianRational values. ``+`` and ``*`` make MultiPoly's
    dict insertions and deletions with exact zero tests, so every result
    has the MultiPoly one's terms in their order."""

    __slots__ = ("terms",)

    def __init__(self, terms):
        self.terms = terms if type(terms) is dict else {0: terms} if terms else {}

    def __add__(self, other):
        return _KeyedPoly(_sum_terms(dict(self.terms), other.terms.items()))

    def __mul__(self, other):  # _sum_terms, inlined: the loop of char_poly
        terms = {}
        for k1, c1 in self.terms.items():
            for k2, c2 in other.terms.items():
                if (s := terms.get(k1 + k2)) is None:
                    terms[k1 + k2] = c1 * c2
                elif s := s + c1 * c2:
                    terms[k1 + k2] = s
                else:
                    del terms[k1 + k2]
        return _KeyedPoly(terms)

    def __neg__(self):
        return _KeyedPoly({key: -c for key, c in self.terms.items()})

    def __truediv__(self, k: int):
        return _KeyedPoly({key: c / k for key, c in self.terms.items()})


def _keyed(a: np.ndarray):
    """(D*A, keys, D) of a square MultiPoly matrix A: D the lcm of its
    denominators, D*A of :class:`_KeyedPoly` entries.

    The :class:`_Keys` radix of parameter v is n * deg_v + 1, so key sums
    are exponent sums in products of up to n entries. Step k of
    Faddeev-LeVerrier on D*A scales every value on A by D**k, keeping each
    zero test. The values are complex, and exact, if B = n * 2**n *
    alpha**n < 2**53, alpha the largest row sum of ||D*a_ij||, ||p|| the
    sum of |re| + |im| over the terms of p (submultiplicative; it bounds
    each term and partial sum). A k x k minor is at most alpha**k, so
    ||c_{n-k}|| <= C(n, k) * alpha**k; an entry of M_k = sum_{j<=k} c_{n-j}
    (D*A)**(k-j), and a product or partial sum forming D*A @ M_{k-1}, is
    at most 2**n * alpha**k, and a partial trace or diagonal update at most
    n * 2**n * alpha**k <= B. Float sums and products of Gaussian integers
    below 2**53 are exact, and so is -tr/k, a Gaussian integer as c_{n-k}(D*A)
    lies in Z[i][zeta]. Else the values are GaussianRationals, exact.
    """
    n = len(a)
    if len({p.nvars for p in a.flat}) > 1:
        raise ValueError("parameter count mismatch")
    rows = _scaled_rows(a.tolist())
    keys = _Keys([n * max(column) + 1 for column in zip(*(deg for *_, deg in rows))])
    d = lcm(*(s for _, s, _, _ in rows))
    alpha = max(d // s * size for _, s, size, _ in rows)
    scalar = complex if n * 2**n * alpha**n < 2**53 else GaussianRational
    return as_matrix([[_KeyedPoly({keys.key(e): scalar(re * (d // s), im * (d // s))
                                   for e, re, im in entry}) for entry in terms]
                      for terms, s, _, _ in rows]), keys, d


def char_poly_stack(a) -> np.ndarray:
    """The characteristic polynomial of every matrix of an (N, n, n)
    stack: shape (N, n + 1), constant term first.

    Faddeev-LeVerrier, from M_1 = A (object) or A @ I (numeric): exact
    over GaussianRational, MultiPoly and :class:`_KeyedPoly` scalars (the
    divisions by k are exact); numeric stacks run in complex float64, for
    the supported sizes n <= 8, where its conditioning weakness does not bite.
    Floating coefficients beyond float64 come out non-finite, silently.
    """
    a = np.asarray(a)
    if a.dtype != object:
        a = a.astype(complex)
    n = a.shape[-1]
    coeffs = np.empty((len(a), n + 1), dtype=a.dtype)
    coeffs[:, n] = one_like(a.flat[0])
    diagonal = np.arange(n)
    with np.errstate(over="ignore", invalid="ignore"):
        m = a.copy() if a.dtype == object else a @ identity_like(a)
        for k in range(1, n + 1):
            if k > 1:
                m = a @ m
            coeffs[:, n - k] = -np.trace(m, axis1=1, axis2=2) / k
            m[:, diagonal, diagonal] += coeffs[:, n - k, None]
    return coeffs


#: a packed polynomial of the minor sweep takes width * prod(radixes) bits
#: (:class:`_Packing`); a matrix beyond this sweeps over MultiPoly entries,
#: as any matrix in which 16 variables occur does (the width is at least 4
#: and each radix then at least 2). Sparse polynomials in many variables
#: fill little of their box: on families in 5 to 7 variables the packed
#: sweep was the slower one from about 2**18 bits. A dense 5 x 5 family in
#: 2 variables takes 2**16.6 bits and its sweep runs 4 times faster packed.
PACKED_BITS_CAP = 2**17


class _Packed:
    """A polynomial with Gaussian-integer coefficients, packed by a
    :class:`_Packing`: the packed real parts and the packed imaginary parts."""

    __slots__ = ("re", "im")

    def __init__(self, re: int, im: int):
        self.re, self.im = re, im

    def __add__(self, other):
        return _Packed(self.re + other.re, self.im + other.im)

    def __mul__(self, other):
        a, b, c, d = self.re, self.im, other.re, other.im
        return _Packed(a * c - b * d, a * d + b * c)

    def __neg__(self):
        return _Packed(-self.re, -self.im)

    def is_zero(self) -> bool:
        return not (self.re or self.im)


class _Packing:
    """Kronecker substitution x_v -> 2**(width * stride_v) for the minors of
    order at most ``order`` of one matrix, stride_v the :class:`_Keys`
    place of x_v (Kronecker 1882; Harvey, J. Symbolic Comput. 44 (2009)).

    Row i is scaled by s_i (:func:`_scaled_rows`), so a minor on rows R is
    prod(s_i, i in R) times the minor of the input. Its coefficients have
    |re| + |im| at most the product of the ``order`` largest row sums of
    |re| + |im| (each at least 1); ``width`` holds that bound and a sign
    bit, rounded up to whole hex digits. Its degree in x_v is at most the
    sum of the ``order`` largest row degrees in x_v, one less than the
    radix of x_v. Both bounds hold for every lower-order minor and every
    partial sum of the sweep, so a packed value is an exact image of its
    polynomial: balanced base-2**width digits, one per monomial, and zero
    iff the polynomial is.
    """

    def __init__(self, rows: list, width: int, keys: _Keys):
        self.width, self.keys, self.scales = width, keys, [s for _, s, _, _ in rows]
        self.rows = [[self._pack(entry) for entry in terms] for terms, *_ in rows]

    @classmethod
    def of(cls, m, order: int):
        """The packing of ``m`` for minors up to ``order``, or None where a
        packed polynomial would exceed ``PACKED_BITS_CAP`` bits."""
        rows = _scaled_rows(m)

        def largest(values):
            return sorted(values, reverse=True)[:order]

        bounds = [max(1, size) for _, _, size, _ in rows]
        width = -(-(prod(largest(bounds)).bit_length() + 1) // 4) * 4
        radixes = [1 + sum(largest(column)) for column in zip(*(deg for *_, deg in rows))]
        if width * prod(radixes) > PACKED_BITS_CAP:
            return None
        return cls(rows, width, _Keys(radixes))

    def _pack(self, entry) -> _Packed:
        re = im = 0
        for e, a, b in entry:
            shift = self.width * self.keys.key(e)
            re += a << shift
            im += b << shift
        return _Packed(re, im)

    def _digits(self, value: int) -> dict:
        """{slot: digit} of the nonzero balanced base-2**width digits."""
        hexes = self.width // 4
        zero = "8" + "0" * (hexes - 1)  # the digit 0 plus the offset 2**(width - 1)
        count = abs(value).bit_length() // self.width + 2
        text = format(value + int(zero * count, 16), "x").zfill(count * hexes)
        half = 1 << (self.width - 1)
        return {count - 1 - q: int(text[p:p + hexes], 16) - half
                for q, p in enumerate(range(0, count * hexes, hexes))
                if text[p:p + hexes] != zero}

    def unpack(self, p: _Packed, rows) -> MultiPoly:
        """The minor on ``rows`` of the input from its packed scaled value,
        with its terms in ``sorted_terms()`` order."""
        re, im = self._digits(p.re), self._digits(p.im)
        out = self.keys.decode(((t, (re.get(t, 0), im.get(t, 0))) for t in re.keys() | im.keys()),
                               prod(self.scales[i] for i in rows))
        out.terms = dict(out.sorted_terms())
        return out
