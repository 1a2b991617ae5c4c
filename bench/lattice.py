"""Independent arithmetic for the degree-0 class group, used to size and check
ops without calling the engine under test.

The group is Z^n modulo an integer lattice: the reduced Laplacian's columns
for a general graph, and the banana tuple relations (1,...,1) and
n0*e0 - na*ea for a banana.  The order of a class x is the least m with
m*x in the lattice, i.e. the lcm of the denominators of M^-1 x; the group
order J is |det M|.  Exact rational elimination, no floating point.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm, prod


def _solve(matrix, rhs_list):
    """Solve matrix * y = rhs for each rhs; returns (|det|, [y, ...]).

    Fraction-free (Bareiss) elimination on the augmented matrix keeps every
    entry an integer; only the back substitution uses fractions.
    """
    n = len(matrix)
    a = [list(row) + [r[i] for r in rhs_list] for i, row in enumerate(matrix)]
    width = n + len(rhs_list)
    sign, prev = 1, 1
    for col in range(n):
        piv = next(r for r in range(col, n) if a[r][col] != 0)
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            sign = -sign
        p = a[col][col]
        row_c = a[col]
        for r in range(col + 1, n):
            row_r = a[r]
            lead = row_r[col]
            for j in range(col + 1, width):
                row_r[j] = (row_r[j] * p - lead * row_c[j]) // prev
            row_r[col] = 0
        prev = p
    sols = []
    for k in range(len(rhs_list)):
        y = [Fraction(0)] * n
        for i in range(n - 1, -1, -1):
            acc = Fraction(a[i][n + k]) - sum(a[i][j] * y[j] for j in range(i + 1, n))
            y[i] = acc / a[i][i]
        sols.append(y)
    return abs(sign * a[n - 1][n - 1]), sols


class BananaGroup:
    """The banana case in closed form.  Writing x = t*(1,...,1) +
    sum_a s_a*(n0*e0 - na*ea) and solving gives s_a = (t - x_a)/n_a and
    t = (x_0 + n0*sum x_a/n_a) / (1 + n0*sum 1/n_a), over a >= 1."""

    def __init__(self, lengths):
        self.lengths = tuple(lengths)
        n0, rest = self.lengths[0], self.lengths[1:]
        self._denom = 1 + n0 * sum(Fraction(1, n) for n in rest)
        self.size = sum(prod(self.lengths[:a] + self.lengths[a + 1:])
                        for a in range(len(self.lengths)))

    def order(self, divisor) -> int:
        raw = [0] * len(self.lengths)
        for name, c in divisor.items():
            a, i = (int(t) for t in name[1:].split("."))
            raw[a] += c * i
        n0, rest = self.lengths[0], self.lengths[1:]
        t = (raw[0] + n0 * sum(Fraction(x, n) for x, n in zip(raw[1:], rest))) / self._denom
        ys = [t] + [(t - x) / n for x, n in zip(raw[1:], rest)]
        return lcm(*(y.denominator for y in ys))


class GraphGroup:
    """A general graph: Z^(n-1) modulo the columns of the reduced Laplacian
    (the first vertex in sorted order is dropped)."""

    def __init__(self, vertices, edges):
        names = sorted(vertices)
        self.index = {x: i for i, x in enumerate(names)}
        n = len(names)
        lap = [[0] * n for _ in range(n)]
        for a, b in edges:
            i, j = self.index[a], self.index[b]
            lap[i][i] += 1
            lap[j][j] += 1
            lap[i][j] -= 1
            lap[j][i] -= 1
        self.matrix = [row[1:] for row in lap[1:]]
        self._size = None

    @property
    def size(self) -> int:
        """The group order J."""
        if self._size is None:
            self._size, _ = _solve(self.matrix, [])
        return self._size

    def order(self, divisor) -> int:
        """Order of a degree-0 divisor given as a {vertex: chips} map."""
        vec = [0] * len(self.matrix)
        for name, c in divisor.items():
            if self.index[name]:
                vec[self.index[name] - 1] += c
        self._size, (sol,) = _solve(self.matrix, [vec])
        return lcm(*(y.denominator for y in sol))
