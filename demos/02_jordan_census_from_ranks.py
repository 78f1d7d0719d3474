"""The Jordan block census without eigenvectors.

For each eigenvalue lam, the number of Jordan blocks of size k is the
second difference of the rank profile of the powers (lam - Phi)^k.
This script hides a known Jordan structure behind a random similarity
and recovers it from ranks alone, then verifies the rank identities
tying the census to the nilpotent product over the eigenvalues.
"""

import numpy as np

from jordanscope.jordan import jordan_census, verify_rank_identities
from jordanscope.tracker import theta_stack

rng = np.random.default_rng(7)

# hidden structure: eigenvalue 2 with blocks (2, 1), eigenvalue -1 with (2)
J = np.array(
    [
        [2, 1, 0, 0, 0],
        [0, 2, 0, 0, 0],
        [0, 0, 2, 0, 0],
        [0, 0, 0, -1, 1],
        [0, 0, 0, 0, -1],
    ],
    dtype=complex,
)
T = rng.integers(-2, 3, size=(5, 5)).astype(complex) + np.eye(5) * 3
Phi = T @ J @ np.linalg.inv(T)

census = jordan_census(Phi, [(2.0, 3), (-1.0, 2)])
profiles = {prof.eigenvalue: prof for prof in census.profiles}

print("=== rank profiles ===\n")
for lam in (2.0, -1.0):
    print(f"lam = {lam:+.0f}: rank (lam - Phi)^k for k = 0..n+1 ->", profiles[lam].ranks)

print("\n=== census (second differences) ===\n")
for lam, mult, blocks in zip(
    census.eigenvalues, census.multiplicities, census.blocks
):
    print(f"eigenvalue {lam:+.3f}  multiplicity {mult}  blocks {blocks}")
print("aggregate:", census.aggregate)
assert census.aggregate == {1: 1, 2: 2}

print("\n=== identity suite ===\n")
report = verify_rank_identities(Phi, census)
by_name = {}
for check in report.checks:
    by_name.setdefault(check.name, []).append(check.ok)
for name, oks in by_name.items():
    print(f"{name:28s} {sum(oks)}/{len(oks)} hold")
assert report.passed

# Theta = prod (lam - Phi) over the distinct eigenvalues, a stack of one
thetas, _ = theta_stack(Phi[None], [[(lam, 1) for lam in census.eigenvalues]])
theta = thetas[0]
print("\nnilpotent product at exponent n: |Theta^5| =",
      f"{np.linalg.norm(np.linalg.matrix_power(theta, 5), 2):.2e}")
