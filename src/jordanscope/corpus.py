"""Built-in matrix families with known answers, for demos and verify runs."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .family import MatrixFamily


@dataclass
class CorpusCase:
    name: str
    family: MatrixFamily
    #: parameter points that are NOT Jordan stable, with their kind
    non_stable: List[Tuple[tuple, str]] = field(default_factory=list)
    #: a known Jordan stable point with its aggregate block census
    stable_point: Optional[tuple] = None
    stable_census: Optional[Dict[int, int]] = None
    #: a split point with known splitting amounts, if any
    split_point: Optional[tuple] = None
    splitting_amounts: Optional[Tuple[int, ...]] = None


def builtin_cases() -> List[CorpusCase]:
    nilpotent = MatrixFamily.from_entries(
        [["z*w", "-z^2"], ["w^2", "-z*w"]],
        ["z", "w"],
        label="rank-one nilpotent family",
    )
    shear = MatrixFamily.from_entries(
        [["z", "1"], ["0", "-z"]], ["z"], label="shear family (eigenvalues +-z)"
    )
    sqrt = MatrixFamily.from_entries(
        [["0", "1"], ["z", "0"]], ["z"], label="companion family (eigenvalues +-sqrt z)"
    )
    double_eig = MatrixFamily.from_entries(
        [["z", "0", "0"], ["0", "z", "0"], ["0", "0", "1"]],
        ["z"],
        label="diagonal family with a double branch",
    )
    jordan_cell = MatrixFamily.from_entries(
        [["z", "1", "0"], ["0", "z", "0"], ["0", "0", "1"]],
        ["z"],
        label="moving Jordan cell",
    )
    constant = MatrixFamily.from_entries(
        [["1", "1"], ["0", "2"]], ["z"], label="constant family"
    )
    return [
        CorpusCase(
            name="nilpotent",
            family=nilpotent,
            non_stable=[((0.0, 0.0), "Jump")],
            stable_point=(1.0, 1.0),
            stable_census={2: 1},
        ),
        CorpusCase(
            name="shear",
            family=shear,
            non_stable=[((0.0,), "Split")],
            stable_point=(1.0,),
            stable_census={1: 2},
            split_point=(0.0,),
            splitting_amounts=(2,),
        ),
        CorpusCase(
            name="sqrt",
            family=sqrt,
            non_stable=[((0.0,), "Split")],
            stable_point=(1.0,),
            stable_census={1: 2},
            split_point=(0.0,),
            splitting_amounts=(2,),
        ),
        CorpusCase(
            name="double-eig",
            family=double_eig,
            non_stable=[((1.0,), "Split")],
            stable_point=(3.0,),
            stable_census={1: 3},
            split_point=(1.0,),
            splitting_amounts=(2,),
        ),
        CorpusCase(
            name="jordan-cell",
            family=jordan_cell,
            non_stable=[((1.0,), "Split")],
            stable_point=(3.0,),
            stable_census={1: 1, 2: 1},
            split_point=(1.0,),
            splitting_amounts=(2,),
        ),
        CorpusCase(
            name="constant",
            family=constant,
            non_stable=[],
            stable_point=(0.5,),
            stable_census={1: 2},
        ),
    ]


def builtin_families() -> Dict[str, MatrixFamily]:
    return {case.name: case.family for case in builtin_cases()}
