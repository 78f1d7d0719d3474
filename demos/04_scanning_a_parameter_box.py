"""Scanning a parameter box for points with unstable Jordan structure.

The family A(z, w) = [[z w, -z^2], [w^2, -z w]] squares to zero
everywhere, so its eigenvalues never split; but at the origin the
matrix itself vanishes and the single nilpotent 2-block collapses into
two 1-blocks. The scan classifies every grid node and finds exactly
that one jump point.
"""

from jordanscope.family import MatrixFamily
from jordanscope.scanner import PointKind, scan_grid

family = MatrixFamily.from_entries(
    [["z*w", "-z^2"], ["w^2", "-z*w"]], ["z", "w"],
    label="rank-one nilpotent family",
)

report = scan_grid(family, box=[(-1, 1), (-1, 1)], resolution=21)

print("=== scan summary ===\n")
print(f"grid: 21 x 21 on [-1,1]^2   tolerance {report.rel_tol}")
for kind, count in report.summary.items():
    print(f"  {kind:16s} {count}")
print("max rank Theta^k over the grid:", report.rank_theta_maxima)

print("\n=== flagged points ===\n")
for pc in (p for p in report.points if p.kind is not PointKind.STABLE_CANDIDATE):
    pt = tuple(round(c.real, 3) for c in pc.point)
    print(f"  {pt}  ->  {pc.kind.value}")
    print(f"     rank Theta at the point: {pc.rank_theta}")
    print(f"     census there: {pc.census.aggregate}")

stable = next(p for p in report.points if p.kind is PointKind.STABLE_CANDIDATE)
print("\na generic node for contrast:")
print(
    f"  {tuple(round(c.real, 3) for c in stable.point)} -> "
    f"{stable.kind.value}, census {stable.census.aggregate}"
)
