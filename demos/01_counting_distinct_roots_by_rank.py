"""Counting distinct polynomial roots with a rank computation.

A monic polynomial p of degree n feeds the linear map
(s, q) |-> p*s - p'*q; the rank of its (2n-1) x (2n-1) representation
matrix is n + m - 1 where m is the number of distinct roots of p.
No root finding happens at all: multiplicity structure comes out of
exact rational elimination.
"""

from fractions import Fraction

from jordanscope.algebra import (
    GaussianRational,
    GR_ONE,
    MultiPoly,
    UniPoly,
    gcd_squarefree_oracle,
)
from jordanscope.ranklab import det_multipoly, exact_rank
from jordanscope.sylv import build_split_matrix, distinct_zero_count


def gr(x):
    return GaussianRational(Fraction(x))


print("=== distinct roots by rank ===\n")

cases = [
    ("lam^3 (triple root)", [0, 0, 0]),
    ("lam(lam-1)(lam+1)", [0, 1, -1]),
    ("(lam-1)^2(lam+2)", [1, 1, -2]),
    ("(lam-2)^2(lam+2)^2", [2, 2, -2, -2]),
]
for label, roots in cases:
    p = UniPoly.from_roots([gr(r) for r in roots], one=GR_ONE)
    n = p.degree
    sm = build_split_matrix(p)
    rank = exact_rank(sm)
    m_rank = distinct_zero_count(p)
    m_gcd, q0 = gcd_squarefree_oracle(p)
    print(f"{label:28s} n={n}  rank={rank}  ->  m={m_rank}  (gcd oracle: {m_gcd})")
    assert m_rank == m_gcd == rank - n + 1

print("\n=== the full-size minor is the discriminant ===\n")

# p = lam^2 - c with a symbolic parameter c: det of the rank matrix is -4c,
# which vanishes exactly where the two roots collide (c = 0)
c = MultiPoly.variable(1, 0)
p_sym = UniPoly([-c, MultiPoly.zero(1), MultiPoly.one(1)])
sm = build_split_matrix(p_sym)
det = det_multipoly(sm)
print("p = lam^2 - c   det(rank matrix) =", det.to_string(["c"]))
print("root collision locus: {c = 0}")
