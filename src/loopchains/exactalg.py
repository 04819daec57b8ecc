"""Exact integer linear algebra over Z.

Smith normal form with unimodular transforms, free (co)chain complexes,
integral homology with torsion, and chain map verification.  Everything
is exact: entries are Python ints, there is no floating point anywhere.

Matrices are sparse: only nonzero entries are stored, keyed by
(row, column) and iterated row-major.  This matters because the chain
complexes produced elsewhere in this package are large and very sparse.
"""

from __future__ import annotations

from dataclasses import dataclass


class ShapeError(ValueError):
    """A structural problem: mismatched dimensions, not a failed identity."""


class IntMatrix:
    """An exact integer matrix of fixed shape with sparse storage.

    Entries are kept in a dict keyed by (row, col); zeros are never
    stored.  Shape is explicit so zero matrices of any shape exist.
    """

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries=None):
        if rows < 0 or cols < 0:
            raise ShapeError(f"negative shape ({rows}, {cols})")
        self.rows = rows
        self.cols = cols
        self.entries = {}
        if entries:
            for (i, j), v in entries.items():
                self[i, j] = v

    @classmethod
    def from_rows(cls, data) -> "IntMatrix":
        data = [list(row) for row in data]
        rows = len(data)
        cols = len(data[0]) if data else 0
        if any(len(row) != cols for row in data):
            raise ShapeError("ragged rows")
        m = cls(rows, cols)
        for i, row in enumerate(data):
            for j, v in enumerate(row):
                m[i, j] = v
        return m

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        m = cls(n, n)
        for i in range(n):
            m.entries[(i, i)] = 1
        return m

    def copy(self) -> "IntMatrix":
        m = IntMatrix(self.rows, self.cols)
        m.entries = dict(self.entries)
        return m

    def __getitem__(self, key) -> int:
        return self.entries.get(key, 0)

    def __setitem__(self, key, value: int):
        i, j = key
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise ShapeError(f"index {key} outside {self.rows}x{self.cols}")
        if value:
            self.entries[key] = value
        else:
            self.entries.pop(key, None)

    def to_rows(self):
        return [[self[i, j] for j in range(self.cols)] for i in range(self.rows)]

    def is_zero(self) -> bool:
        return not self.entries

    def __eq__(self, other) -> bool:
        return (isinstance(other, IntMatrix)
                and self.rows == other.rows and self.cols == other.cols
                and self.entries == other.entries)

    def __hash__(self):
        return hash((self.rows, self.cols, frozenset(self.entries.items())))

    def __repr__(self):
        if self.rows * self.cols <= 36:
            return f"IntMatrix({self.to_rows()!r})"
        return f"IntMatrix({self.rows}x{self.cols}, {len(self.entries)} nonzero)"

    def __add__(self, other: "IntMatrix") -> "IntMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ShapeError("shape mismatch in addition")
        m = self.copy()
        for k, v in other.entries.items():
            m[k] = m[k] + v
        return m

    def __neg__(self) -> "IntMatrix":
        m = IntMatrix(self.rows, self.cols)
        m.entries = {k: -v for k, v in self.entries.items()}
        return m

    def __sub__(self, other: "IntMatrix") -> "IntMatrix":
        return self + (-other)

    def scale(self, c: int) -> "IntMatrix":
        m = IntMatrix(self.rows, self.cols)
        if c:
            m.entries = {k: c * v for k, v in self.entries.items()}
        return m

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise ShapeError(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        # bucket the right factor by row so the product only touches
        # pairs of nonzero entries
        by_row = {}
        for (i, j), v in other.entries.items():
            by_row.setdefault(i, []).append((j, v))
        acc = {}
        for (i, k), v in self.entries.items():
            for j, w in by_row.get(k, ()):
                key = (i, j)
                acc[key] = acc.get(key, 0) + v * w
        m = IntMatrix(self.rows, other.cols)
        m.entries = {k: v for k, v in acc.items() if v}
        return m

    def transpose(self) -> "IntMatrix":
        m = IntMatrix(self.cols, self.rows)
        m.entries = {(j, i): v for (i, j), v in self.entries.items()}
        return m

    def column(self, j: int):
        return [self[i, j] for i in range(self.rows)]

    def apply(self, vector):
        """Matrix times column vector, given and returned as a list."""
        if len(vector) != self.cols:
            raise ShapeError("vector length mismatch")
        out = [0] * self.rows
        for (i, j), v in self.entries.items():
            if vector[j]:
                out[i] += v * vector[j]
        return out


def det(m: IntMatrix) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    if m.rows != m.cols:
        raise ShapeError("determinant of a non-square matrix")
    n = m.rows
    if n == 0:
        return 1
    a = [row[:] for row in m.to_rows()]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k]:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


@dataclass(frozen=True)
class SmithForm:
    """U @ M @ V == D with U, V unimodular and D diagonal.

    ``diagonal`` lists the nonnegative diagonal entries d_1 | d_2 | ...
    (the divisibility chain), padded with zeros up to min(rows, cols).
    """
    diagonal: tuple
    left: IntMatrix
    right: IntMatrix

    @property
    def rank(self) -> int:
        return sum(1 for d in self.diagonal if d)

    def diagonal_matrix(self, rows: int, cols: int) -> IntMatrix:
        m = IntMatrix(rows, cols)
        for i, d in enumerate(self.diagonal):
            m[i, i] = d
        return m


def smith_normal_form(m: IntMatrix) -> SmithForm:
    """Smith normal form over Z.

    Pivot rule: the nonzero entry of smallest absolute value, ties broken
    row-major.  That rule eats +-1 entries first, which keeps fill-in and
    coefficient growth tame on the sparse complexes this package builds.
    """
    a = m.copy()
    u = IntMatrix.identity(m.rows)
    v = IntMatrix.identity(m.cols)

    # row/col elementary operations, mirrored into the transforms
    def row_add(i, k, c):  # row_i += c * row_k
        for j in range(a.cols):
            if a[k, j]:
                a[i, j] = a[i, j] + c * a[k, j]
        for j in range(u.cols):
            if u[k, j]:
                u[i, j] = u[i, j] + c * u[k, j]

    def col_add(j, k, c):  # col_j += c * col_k
        for i in range(a.rows):
            if a[i, k]:
                a[i, j] = a[i, j] + c * a[i, k]
        for i in range(v.rows):
            if v[i, k]:
                v[i, j] = v[i, j] + c * v[i, k]

    def row_swap(i, k):
        for j in range(a.cols):
            a[i, j], a[k, j] = a[k, j], a[i, j]
        for j in range(u.cols):
            u[i, j], u[k, j] = u[k, j], u[i, j]

    def col_swap(j, k):
        for i in range(a.rows):
            a[i, j], a[i, k] = a[i, k], a[i, j]
        for i in range(v.rows):
            v[i, j], v[i, k] = v[i, k], v[i, j]

    def row_negate(i):
        for j in range(a.cols):
            a[i, j] = -a[i, j]
        for j in range(u.cols):
            u[i, j] = -u[i, j]

    n = min(a.rows, a.cols)

    def reduce_block(t: int) -> bool:
        """Diagonalize position t against the block [t:, t:].

        Returns False when the block is already all zero.  On return the
        pivot a[t, t] is positive and alone in its row and column.
        """
        pivot = None
        best = None
        for (i, j), val in a.entries.items():
            if i < t or j < t:
                continue
            key = (abs(val), i, j)
            if best is None or key < best:
                best = key
                pivot = (i, j)
        if pivot is None:
            return False
        pi, pj = pivot
        if pi != t:
            row_swap(t, pi)
        if pj != t:
            col_swap(t, pj)
        if a[t, t] < 0:
            row_negate(t)
        # remainder loop: whenever a reduction leaves a residue smaller
        # than the pivot, the residue becomes the new pivot
        while True:
            p = a[t, t]
            residue = False
            for i in range(t + 1, a.rows):
                if a[i, t]:
                    q = a[i, t] // p
                    if q:
                        row_add(i, t, -q)
                    if a[i, t]:
                        row_swap(t, i)
                        if a[t, t] < 0:
                            row_negate(t)
                        residue = True
                        break
            if residue:
                continue
            for j in range(t + 1, a.cols):
                if a[t, j]:
                    q = a[t, j] // p
                    if q:
                        col_add(j, t, -q)
                    if a[t, j]:
                        col_swap(t, j)
                        if a[t, t] < 0:
                            row_negate(t)
                        residue = True
                        break
            if not residue:
                return True

    t = 0
    while t < n and reduce_block(t):
        t += 1

    # enforce the divisibility chain: fold d_{i+1} into column i and
    # re-reduce, which replaces (d_i, d_{i+1}) by (gcd, lcm)
    i = 0
    while i + 1 < n:
        di, dj = a[i, i], a[i + 1, i + 1]
        if dj and (not di or dj % di):
            col_add(i, i + 1, 1)
            reduce_block(i)
            reduce_block(i + 1)
            i = max(0, i - 1)  # the new d_i may violate the chain upstream
        else:
            i += 1
    # a re-reduction can leave a later diagonal entry negative, and the
    # chain test above reads divisibility only, not sign
    for i in range(n):
        if a[i, i] < 0:
            row_negate(i)

    diagonal = tuple(a[i, i] for i in range(n))
    return SmithForm(diagonal=diagonal, left=u, right=v)


def rank(m: IntMatrix) -> int:
    return smith_normal_form(m).rank


@dataclass(frozen=True)
class HomologySummary:
    """H^degree = Z^rank + sum of Z/t for t in torsion (divisibility order)."""
    degree: int
    rank: int
    torsion: tuple

    def describe(self) -> str:
        parts = []
        if self.rank:
            parts.append(f"Z^{self.rank}" if self.rank > 1 else "Z")
        parts.extend(f"Z/{t}" for t in self.torsion)
        return " + ".join(parts) if parts else "0"


@dataclass(frozen=True)
class ComplexVerdict:
    """Outcome of an identity check on a complex or a chain map.

    ``ok`` is False exactly when the identity fails somewhere, and then
    ``first_failing_degree`` names the least degree where it does.
    Structural problems (mismatched shapes) raise ShapeError instead of
    producing a verdict: a malformed complex is not a complex that fails.
    """
    ok: bool
    first_failing_degree: int | None = None
    message: str = ""


class FreeComplex:
    """A finitely supported complex of free Z-modules.

    The differential raises degree by one: diff(n) maps degree n to
    degree n + 1.  Inputs indexed the other way around (a differential
    that lowers degree) can be ingested with from_homological, which
    negates the grading.
    """

    def __init__(self, dims: dict, diffs: dict):
        self.dims = {n: d for n, d in dims.items() if d}
        self.diffs = {}
        for n, m in diffs.items():
            expected = (self.dim(n + 1), self.dim(n))
            if (m.rows, m.cols) != expected:
                raise ShapeError(
                    f"differential at degree {n} has shape {m.rows}x{m.cols}, "
                    f"expected {expected[0]}x{expected[1]}")
            if not m.is_zero():
                self.diffs[n] = m

    @classmethod
    def from_homological(cls, dims: dict, diffs: dict) -> "FreeComplex":
        """Ingest a homologically graded complex (differential lowers degree).

        Degree n becomes degree -n; the boundary C_n -> C_{n-1} becomes
        the map in degree -n, raising the (negated) degree by one.
        """
        return cls({-n: d for n, d in dims.items()},
                   {-n: m for n, m in diffs.items()})

    def dim(self, n: int) -> int:
        return self.dims.get(n, 0)

    def diff(self, n: int) -> IntMatrix:
        m = self.diffs.get(n)
        if m is None:
            m = IntMatrix(self.dim(n + 1), self.dim(n))
        return m

    def degrees(self):
        return sorted(set(self.dims) | {n + 1 for n in self.diffs} | set(self.diffs))


def validate_complex(c: FreeComplex) -> ComplexVerdict:
    """Check d(n+1) . d(n) == 0 for every degree in the support.

    Shape consistency is enforced at construction time; this only tests
    the composition identity and reports the first degree n where
    d(n+1) . d(n) is nonzero.
    """
    for n in c.degrees():
        if c.dim(n) and c.dim(n + 2):
            comp = c.diff(n + 1) @ c.diff(n)
            if not comp.is_zero():
                bad = min(comp.entries)
                return ComplexVerdict(
                    ok=False, first_failing_degree=n,
                    message=(f"d.d != 0 from degree {n}: entry {bad} of the "
                             f"composite is {comp[bad]}"))
    return ComplexVerdict(ok=True)


def homology(c: FreeComplex) -> dict:
    """Integral homology of a validated complex, degree by degree.

    H^n = ker(d n) / im(d n-1).  Rank comes from the dimension count,
    torsion from the elementary divisors of the incoming differential.
    Raises ValueError when the complex fails validation: homology of a
    non-complex is not a thing this function is willing to invent.
    """
    verdict = validate_complex(c)
    if not verdict.ok:
        raise ValueError(f"not a complex: {verdict.message}")
    ranks = {}
    snfs = {}
    for n in list(c.diffs):
        snfs[n] = smith_normal_form(c.diffs[n])
        ranks[n] = snfs[n].rank
    out = {}
    for n in sorted(c.dims):
        r_out = ranks.get(n, 0)
        r_in = ranks.get(n - 1, 0)
        free = c.dim(n) - r_out - r_in
        torsion = tuple(d for d in (snfs[n - 1].diagonal if n - 1 in snfs else ())
                        if d > 1)
        out[n] = HomologySummary(degree=n, rank=free, torsion=torsion)
    return out


def chain_map_check(f: dict, source: FreeComplex, target: FreeComplex,
                    sign: int = 1) -> ComplexVerdict:
    """Verify f is a chain map up to a global sign.

    ``f`` maps degree n of the source to degree n of the target, given as
    {n: IntMatrix}.  The identity checked in each degree n is

        f(n+1) @ d_source(n) == sign * d_target(n) @ f(n).

    Missing components of f are treated as zero maps.  Shape mismatches
    raise ShapeError; a failed identity comes back as a verdict naming
    the first bad degree.
    """
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")

    def comp(n):
        m = f.get(n)
        if m is None:
            return IntMatrix(target.dim(n), source.dim(n))
        if (m.rows, m.cols) != (target.dim(n), source.dim(n)):
            raise ShapeError(
                f"map at degree {n} has shape {m.rows}x{m.cols}, expected "
                f"{target.dim(n)}x{source.dim(n)}")
        return m

    degrees = sorted(set(source.degrees()) | set(f))
    for n in degrees:
        lhs = comp(n + 1) @ source.diff(n)
        rhs = (target.diff(n) @ comp(n)).scale(sign)
        if lhs != rhs:
            delta = lhs - rhs
            bad = min(delta.entries)
            return ComplexVerdict(
                ok=False, first_failing_degree=n,
                message=(f"chain map identity fails from degree {n}: "
                         f"entry {bad} differs by {delta[bad]}"))
    return ComplexVerdict(ok=True)
