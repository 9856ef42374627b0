"""Printed matrix displays and their recorded orientation flags.

All package matrices act on column vectors.  Classical sources mix row-
and column-vector conventions between displays; each fixture below records
the printed block together with the orientation under which the stored
matrix reproduces it.  The flag is determined once, by checking which
orientation makes the braid relations and the cross-identities (the
reversal conjugation, the stabilization criterion) hold, and is asserted
by the tests rather than guessed at runtime.
"""

from lmkit.laurent import ONE, PolyMatrix, ZERO, T

T2 = T * T

# name -> (display rows, flag); flag "transposed" means the stored block is
# the transpose of the printed one.
DISPLAYS = {
    "burau-block": ([[ONE - T, T], [ONE, ZERO]], "transposed"),
    "tym-block": ([[ZERO, T], [ONE, ZERO]], "as-displayed"),
    "reduced-burau-bottom": ([[-T, ZERO], [ONE, ONE]], "transposed"),
    "reduced-burau-middle": (
        [[ONE, T, ZERO], [ZERO, -T, ZERO], [ZERO, ONE, ONE]],
        "transposed",
    ),
    "reduced-burau-top": ([[ONE, T], [ZERO, -T]], "transposed"),
    "lm-constant-block": ([[ZERO, ONE], [T2, ONE - T2]], "transposed"),
    "difference-lk-block": ([[ZERO, T], [ONE, ONE - T]], "as-displayed"),
}


def oriented(name: str) -> PolyMatrix:
    rows, flag = DISPLAYS[name]
    return PolyMatrix.from_rows([list(col) for col in zip(*rows)] if flag == "transposed" else rows)
