"""Explicit polynomials cutting out the bad parameter sets, with bounds.

Two nested bad sets admit explicit polynomial equations built from the
matrix entries alone: where eigenvalues split (minors of the rank
matrix of the characteristic polynomial) and where the Jordan
structure jumps (products with rank minors of the powers of the
square-free evaluation Theta). The characteristic polynomial is monic,
so by Gauss's lemma its square-free part, and with it Theta, has
polynomial entries. Each defining polynomial obeys an a-priori norm
bound, checked here by sampling.
"""

import random

from jordanscope.family import MatrixFamily
from jordanscope.scanner import (
    check_jst_bound,
    check_split_bound,
    jst_defining_functions,
)

print("=== splitting set of the shear family ===\n")
shear = MatrixFamily.from_entries([["z", "1"], ["0", "-z"]], ["z"])
res = jst_defining_functions(shear)
print("characteristic polynomial family: lam^2 - z^2")
print("splitting-set polynomials:",
      [g.to_string(["z"]) for g in res.split_functions])
print("(zero set: the collision point z = 0)")

print("\n=== non-stable set of the nilpotent family ===\n")
nilpotent = MatrixFamily.from_entries(
    [["z*w", "-z^2"], ["w^2", "-z*w"]], ["z", "w"]
)
res = jst_defining_functions(nilpotent)
print(f"generic ranks of the powers of Theta: {res.rank_values}")
print("defining polynomials of the non-stable set:")
for h in res.functions:
    print("   ", h.to_string(["z", "w"]))
print("(common zero set: exactly the origin)")

print("\n=== sampled norm bounds ===\n")
rng = random.Random(1)
pts = [
    [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(2)]
    for _ in range(5000)
]
bound = check_jst_bound(nilpotent, res, pts)
print(
    f"non-stable-set bound: checked {bound.checked} evaluations, "
    f"passed={bound.passed}, max ratio to the bound {bound.max_ratio:.2e}"
)
pts1 = [[p[0]] for p in pts]
res_shear = jst_defining_functions(shear)
for g in res_shear.split_functions:
    rep = check_split_bound(shear, [g], pts1)
    print(
        f"splitting-set bound on {g.to_string(['z'])}: passed={rep.passed}, "
        f"max ratio {rep.max_ratio:.2e}"
    )
