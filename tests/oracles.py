"""Slow, textbook forms of fast paths in ``nilinv``, kept for tests to compare against."""

from fractions import Fraction
from math import lcm


def bareiss(matrix):
    """Textbook fraction-free (Bareiss) elimination: (rank, determinant).

    Every row below the pivot is updated at every step, whatever its entry
    in the pivot column.  The determinant is 0 unless the matrix is square
    and regular; the 0 x 0 matrix has determinant 1.
    """
    rows = []
    scale = 1
    for row in matrix:
        row = [Fraction(x) for x in row]
        mult = lcm(*(x.denominator for x in row))
        scale *= mult
        rows.append([int(x * mult) for x in row])
    nr, nc = len(rows), len(rows[0]) if rows else 0
    prev = 1
    r = 0
    sign = 1
    for c in range(nc):
        pivot_row = next((p for p in range(r, nr) if rows[p][c] != 0), None)
        if pivot_row is None:
            continue
        if pivot_row != r:
            rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
            sign = -sign
        pivot = rows[r][c]
        for p in range(r + 1, nr):
            factor = rows[p][c]
            for q in range(c + 1, nc):
                rows[p][q] = (rows[p][q] * pivot - factor * rows[r][q]) // prev
            rows[p][c] = 0
        prev = pivot
        r += 1
        if r == nr:
            break
    return r, Fraction(sign * prev, scale) if r == nr == nc else Fraction(0)
