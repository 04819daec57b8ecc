"""Exact integer linear algebra over Z.

Smith normal form, free (co)chain complexes, integral homology with
torsion, the homology of a quotient by a subcomplex, and chain map
verification.  Everything is exact: entries are Python ints, there is
no floating point anywhere.  Every complex in the package is assembled
by one constructor, FreeComplex.from_basis, from a graded basis and a
boundary rule, or read out of the matrices of one so built: restricted
to a sub-basis, or divided by the lattice its relations span, through
a mapping cone whose lattice bases and coordinates come from the Smith
form with transforms.

The Smith normal form is one sparse elimination kernel.  Its pivots are
the +-1 entries first, cheapest by Markowitz cost, then the entries of
the small non-unit core that is left, smallest |value| first.  The unit
entries wait in cost buckets, one list per cost with a heap of the
costs in use, so queueing or taking one is a list append or pop; the
rest wait on a heap.  A unit pivot clears its row without division:
every column operation leaves no remainder, so the row's other entries
are dropped.  The unimodular transforms U and V are built on request
only: homology reads the elementary divisors and never builds them.

Matrices are sparse: only nonzero entries are stored, keyed by
(row, column) and iterated row-major.  This matters because the chain
complexes produced elsewhere in this package are large and very sparse.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from math import gcd
from typing import NamedTuple


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


class SmithForm(NamedTuple):
    """U @ M @ V == D with U, V unimodular and D diagonal.

    ``diagonal`` lists the nonnegative diagonal entries d_1 | d_2 | ...
    (the divisibility chain), padded with zeros up to min(rows, cols).
    ``left`` (U) and ``right`` (V) are built on request only: they are
    None when the form was computed with ``transforms=False``.
    """
    diagonal: tuple
    left: IntMatrix | None
    right: IntMatrix | None

    @property
    def rank(self) -> int:
        return sum(1 for d in self.diagonal if d)

    def diagonal_matrix(self, rows: int, cols: int) -> IntMatrix:
        m = IntMatrix(rows, cols)
        for i, d in enumerate(self.diagonal):
            m[i, i] = d
        return m


def _add(dst: dict, key, coeff: int) -> None:
    """dst[key] += coeff, for a sparse vector stored as {index: value}."""
    if coeff:
        w = dst.get(key, 0) + coeff
        if w:
            dst[key] = w
        else:
            del dst[key]


def _axpy(dst: dict, src: dict, c: int) -> None:
    """dst += c * src, for sparse vectors stored as {index: value}."""
    if not c:
        return
    for k, x in src.items():
        w = dst.get(k, 0) + c * x
        if w:
            dst[k] = w
        else:
            del dst[k]


def _combine(a: int, x: dict, b: int, y: dict) -> dict:
    """a * x + b * y as a new sparse vector."""
    out = {}
    _axpy(out, x, a)
    _axpy(out, y, b)
    return out


def _xgcd(a: int, b: int):
    """(g, s, t) with s * a + t * b == g == gcd(a, b), for a, b > 0."""
    s0, s1, t0, t1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    return a, s0, t0


def _divisor_chain(d: list, exchange=None) -> None:
    """Fold positive entries into the divisibility chain, in place.

    Each pair d_i, d_j (i < j) where d_i does not divide d_j becomes
    (gcd, lcm), which leaves Z/d_i + Z/d_j unchanged; after pass i, d_i
    divides every later entry.  Units divide everything and are skipped.
    ``exchange(i, j, d_i, d_j)`` mirrors each step into the transforms.
    """
    for i in range(len(d)):
        if d[i] == 1:
            continue
        for j in range(i + 1, len(d)):
            a, b = d[i], d[j]
            if b % a:
                g = gcd(a, b)
                d[i], d[j] = g, a // g * b
                if exchange:
                    exchange(i, j, a, b)


def smith_normal_form(m: IntMatrix, *, transforms: bool = True) -> SmithForm:
    """Smith normal form over Z by sparse elimination.

    The working matrix is kept as {i: {j: a_ij}} over the rows that
    hold a nonzero, plus a column -> rows index over the columns that
    do, so every operation touches nonzeros only.  Pivots go by
    (|value|, Markowitz cost (row nnz - 1) * (col nnz - 1)), from a
    two-tier queue.  The +-1 entries wait in cost buckets,
    {cost: [(i, j), ...]} with a heap of the costs in use, so queueing
    or taking one is a list append or pop, and every pivot comes from
    the cheapest bucket while one is left.  A unit pivot clears its
    column by row operations and its row by column operations with no
    remainder, which is the discrete-Morse reduction of a boundary
    matrix; its row needs no division at all, since
    col_j -= (a_rj * p) * col_c zeroes a_rj and changes nothing else,
    so those entries are just dropped.  What is left is a core without
    units, on a heap keyed by (|value|, cost, i, j) and reduced by
    smallest |value|: a pivot whose row or column keeps a nonzero
    remainder goes back on the heap, and the remainder, smaller than it,
    comes off first.  Every entry an operation changes is queued again,
    and a taken entry is checked against the current entry and cost, so
    no step rescans the matrix.

    The pivots, units first, are folded into the divisibility chain by
    gcd/lcm exchanges.  With ``transforms=False`` that is all: U and V
    are never built and the result has ``left = right = None``.  With
    transforms every operation is mirrored into U's rows and V's
    columns, and each exchange is a column fold (col_i += col_j) followed
    by one Bezout row step and one column clear on the folded 2x2 block.
    Either way the signs are fixed so the diagonal is nonnegative.  The
    diagonal is canonical; U and V depend on the order the pivots are
    taken in.
    """
    rows = {}  # i -> {j: a_ij}, nonempty rows only
    cols = {}  # j -> {i: a_ij != 0}, nonempty columns only
    for (i, j), x in m.entries.items():
        row = rows.get(i)
        if row is None:
            rows[i] = {j: x}
        else:
            row[j] = x
        col = cols.get(j)
        if col is None:
            cols[j] = {i}
        else:
            col.add(i)
    left = [{i: 1} for i in range(m.rows)] if transforms else None
    right = [{j: 1} for j in range(m.cols)] if transforms else None

    units = {}  # Markowitz cost -> the +-1 entries queued at it
    heap = []  # (|value|, cost, i, j) of the other entries
    for i, row in rows.items():
        ri = len(row) - 1
        for j, x in row.items():
            key = ri * (len(cols[j]) - 1)
            if x == 1 or x == -1:
                bucket = units.get(key)
                if bucket is None:
                    units[key] = [(i, j)]
                else:
                    bucket.append((i, j))
            else:
                heap.append((abs(x), key, i, j))
    costs = list(units)  # the keys of units, as a heap
    heapify(costs)
    heapify(heap)

    def push(i, j, x, key):
        if x == 1 or x == -1:
            bucket = units.get(key)
            if bucket is None:
                units[key] = [(i, j)]
                heappush(costs, key)
            else:
                bucket.append((i, j))
        else:
            heappush(heap, (abs(x), key, i, j))

    pivots = []
    while costs or heap:
        if costs:
            key = costs[0]
            bucket = units[key]
            r, c = bucket.pop()
            if not bucket:
                del units[key]
                heappop(costs)
            size = 1
        else:
            size, key, r, c = heappop(heap)
        row = rows.get(r)
        p = None if row is None else row.get(c)
        if p is None or abs(p) != size:
            continue  # eliminated or changed since it was queued
        col = cols[c]
        now = (len(row) - 1) * (len(col) - 1)
        if now > key:  # fill-in made it dearer: queue it at its real cost
            push(r, c, p, now)
            continue
        unit = size == 1
        # clear column c: row_i -= (a_ic // p) * row_r
        for i in [i for i in col if i != r]:
            target = rows[i]
            q = target[c] * p if unit else target[c] // p
            if not q:
                continue
            touched = []
            for j, x in row.items():
                old = target.get(j)
                if old is None:
                    target[j] = -q * x
                    cols[j].add(i)
                    touched.append(j)
                elif old == q * x:
                    del target[j]
                    cols[j].discard(i)
                else:
                    target[j] = old - q * x
                    touched.append(j)
            ri = len(target) - 1
            for j in touched:
                push(i, j, target[j], ri * (len(cols[j]) - 1))
            if transforms:
                _axpy(left[i], left[r], -q)
        if unit:
            # clear row r: col_j -= (a_rj * p) * col_c zeroes a_rj
            for j, x in row.items():
                if j != c:
                    cols[j].discard(r)
                    if transforms:
                        _axpy(right[j], right[c], -x * p)
        else:
            if len(col) > 1:  # remainders smaller than |p| are queued
                push(r, c, p, now)
                continue
            # clear row r: column c holds p alone, so col_j -= q * col_c
            # changes a_rj only
            for j in [j for j in row if j != c]:
                q = row[j] // p
                if not q:
                    continue
                if transforms:
                    _axpy(right[j], right[c], -q)
                w = row[j] - q * p
                if w:
                    row[j] = w
                    push(r, j, w, (len(row) - 1) * (len(cols[j]) - 1))
                else:
                    del row[j]
                    cols[j].discard(r)
            if len(row) > 1:
                push(r, c, p, (len(row) - 1) * (len(col) - 1))
                continue
        pivots.append((r, c, p))
        del rows[r], cols[c]

    pivots.sort(key=lambda pivot: abs(pivot[2]) != 1)  # units lead the chain
    diagonal = [abs(p) for _, _, p in pivots]
    zeros = (0,) * (min(m.rows, m.cols) - len(pivots))
    if not transforms:
        _divisor_chain(diagonal)
        return SmithForm(tuple(diagonal) + zeros, left=None, right=None)

    # U's row t and V's column t are those of pivot t, then the rest in
    # order; negating U's row of a negative pivot is the sign fix
    u = [left[r] if p > 0 else {k: -x for k, x in left[r].items()}
         for r, _, p in pivots]
    v = [right[c] for _, c, _ in pivots]
    used_rows = {r for r, _, _ in pivots}
    used_cols = {c for _, c, _ in pivots}
    u += [left[i] for i in range(m.rows) if i not in used_rows]
    v += [right[j] for j in range(m.cols) if j not in used_cols]

    def exchange(i, j, a, b):
        # diag(a, b) -> diag(g, l): fold column j into column i, then
        # [[s, t], [-b/g, a/g]] on rows i, j leaves t*b in row i, column j
        g, s, t = _xgcd(a, b)
        u[i], u[j] = (_combine(s, u[i], t, u[j]),
                      _combine(-(b // g), u[i], a // g, u[j]))
        v[i] = _combine(1, v[i], 1, v[j])
        v[j] = _combine(-t * (b // g), v[i], 1, v[j])

    _divisor_chain(diagonal, exchange)
    um = IntMatrix(m.rows, m.rows)
    um.entries = {(t, k): x for t, vec in enumerate(u) for k, x in vec.items()}
    vm = IntMatrix(m.cols, m.cols)
    vm.entries = {(k, t): x for t, vec in enumerate(v) for k, x in vec.items()}
    return SmithForm(tuple(diagonal) + zeros, left=um, right=vm)


class HomologySummary(NamedTuple):
    """H^degree = Z^rank + sum of Z/t for t in torsion (divisibility order)."""
    degree: int
    rank: int
    torsion: tuple


class ComplexVerdict(NamedTuple):
    """Outcome of an identity check on a complex or a chain map.

    ``ok`` is False exactly when the identity fails somewhere, and then
    ``first_failing_degree`` names the least degree where it does.
    Structural problems (mismatched shapes) raise ShapeError instead of
    producing a verdict: a malformed complex is not a complex that fails.
    """
    ok: bool
    first_failing_degree: int | None = None
    message: str = ""


def _not_closed(x, n: int, y) -> ValueError:
    return ValueError(
        f"basis not closed under the boundary: {x!r} in degree {n} maps "
        f"to {y!r}, which is not in the basis of degree {n + 1}")


class FreeComplex:
    """A finitely supported complex of free Z-modules.

    The differential raises degree by one: diff(n) maps degree n to
    degree n + 1.  Complexes are assembled with from_basis, from a
    graded basis and a boundary rule; a homologically graded complex
    (a boundary that lowers dimension) puts dimension n in degree -n.
    restrict gives the complex of a sub-basis from the same matrices.
    """

    def __init__(self, dims: dict, diffs: dict, *, bases: dict | None = None):
        self.bases = bases  # the graded basis, when built from one
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
    def from_basis(cls, bases: dict, boundary) -> "FreeComplex":
        """Assemble a complex from a graded basis and a boundary rule.

        ``bases`` maps each degree n to an ordered list of its basis
        elements; ``boundary(x)`` gives the image of a degree-n element
        as {element of degree n + 1: coeff}.  Degree n gets a
        differential only when n + 1 is a key of ``bases``, and the rule
        is called only there.  An output outside the basis of degree
        n + 1 raises ValueError naming the element, its degree and the
        output: the basis is not closed under the rule.  The complex
        keeps ``bases`` (not a copy) for ``restrict``.
        """
        dims = {n: len(xs) for n, xs in bases.items()}
        diffs = {}
        for n, xs in bases.items():
            if n + 1 not in bases:
                continue
            index = {y: i for i, y in enumerate(bases[n + 1])}
            m = IntMatrix(dims[n + 1], dims[n])
            for j, x in enumerate(xs):
                for y, c in boundary(x).items():
                    i = index.get(y)
                    if i is None:
                        raise _not_closed(x, n, y)
                    if c:
                        m.entries[i, j] = c
            diffs[n] = m
        return cls(dims, diffs, bases=bases)

    def restrict(self, bases: dict) -> "FreeComplex":
        """The complex that ``from_basis(bases, boundary)`` builds, for a
        sub-basis ``bases`` of the basis this complex was built from,
        read out of this complex's matrices: no boundary is computed.

        Every degree of ``bases`` must be a degree of the basis, and
        every element an element of it in that degree.  When the
        sub-basis is not closed under the differential, this raises
        ``from_basis``' ValueError, naming the same first element and
        output.  An output is a nonzero entry, so a rule's zero
        coefficients are not outputs here.
        """
        if self.bases is None:
            raise ValueError("only a complex built by from_basis can be "
                             "restricted")
        positions = {}  # degree -> {position in self.bases: position kept}
        for n, xs in bases.items():
            if n not in self.bases:
                raise ValueError(f"degree {n} is not a degree of the basis")
            index = {x: i for i, x in enumerate(self.bases[n])}
            kept = positions[n] = {}
            for j, x in enumerate(xs):
                i = index.get(x)
                if i is None:
                    raise ValueError(f"{x!r} is not in the basis of degree "
                                     f"{n}")
                kept[i] = j
        dims = {n: len(xs) for n, xs in bases.items()}
        diffs = {}
        for n, cols in positions.items():
            if n + 1 not in bases:
                continue
            rows = positions[n + 1]
            m = IntMatrix(dims[n + 1], dims[n])
            dropped = None  # (kept column, output) of the first offender
            for (i, j), c in self.diff(n).entries.items():
                k = cols.get(j)
                if k is None:
                    continue
                r = rows.get(i)
                if r is not None:
                    m.entries[r, k] = c
                elif dropped is None or k < dropped[0]:
                    dropped = (k, self.bases[n + 1][i])
            if dropped is not None:
                k, y = dropped
                raise _not_closed(bases[n][k], n, y)
            diffs[n] = m
        return FreeComplex(dims, diffs, bases=bases)

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
        snfs[n] = smith_normal_form(c.diffs[n], transforms=False)
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


def _lattice(m: IntMatrix):
    """A basis of the lattice spanned by the columns of ``m``, and the
    coordinates of a vector in it, None for a vector outside it.

    From U M V = D: the basis is the nonzero columns of M V, and y has
    coordinates (U y)_i / d_i when each division is exact and U y
    vanishes past the rank.  Without columns the lattice is zero: no
    Smith form is taken, and only the zero vector has coordinates, [].
    """
    if not m.cols:
        return [], lambda y: None if any(y) else []
    s = smith_normal_form(m)
    image = m @ s.right
    d = s.diagonal[:s.rank]

    def coordinates(y):
        uy = s.left.apply(y)
        if any(uy[len(d):]) or any(x % di for x, di in zip(uy, d)):
            return None
        return [x // di for x, di in zip(uy, d)]

    return [image.column(i) for i in range(s.rank)], coordinates


def quotient_homology(c: FreeComplex, relations: dict) -> dict:
    """Integral homology of C / R, for R spanned by ``relations``: degree
    n -> vectors {basis element: coeff} over the basis ``c`` was built on.

    R must be closed under the differential, or this raises ValueError.
    C / R can have torsion where C has none, so its homology is read off
    the mapping cone of R -> C, on a lattice basis of each R^n, with the
    boundary built into ``c``: Cone^n = C^n + R^(n+1), d(x, r) =
    (dx + r, -dr).  The result is ``homology`` of the cone, so it lists
    every degree where C^n or R^(n+1) is nonzero.
    """
    if c.bases is None:
        raise ValueError("only a complex built by from_basis can be "
                         "divided by relations")
    basis, coordinates = {}, {}
    for n in sorted(set(c.dims) | set(relations)):
        index = {x: i for i, x in enumerate(c.bases.get(n, ()))}
        vectors = relations.get(n, ())
        m = IntMatrix(c.dim(n), len(vectors))
        for col, vec in enumerate(vectors):
            for x, v in vec.items():
                if x not in index:
                    raise ValueError(f"{x!r} is not in the basis of degree {n}")
                m[index[x], col] = v
        basis[n], coordinates[n] = _lattice(m)
    dims = {n: c.dim(n) + len(basis.get(n + 1, ()))
            for n in set(c.dims) | {n - 1 for n in basis}}
    diffs = {}
    for n in dims:
        m = diffs[n] = IntMatrix(dims.get(n + 1, 0), dims[n], c.diff(n).entries)
        for i, r in enumerate(basis.get(n + 1, ())):
            dr = c.diff(n + 1).apply(r)  # empty when C^(n+2) is
            coords = coordinates[n + 2](dr) if dr else []
            if coords is None:
                raise ValueError("relations are not closed under the boundary")
            col = c.dim(n) + i
            m.entries.update({(j, col): v for j, v in enumerate(r) if v})
            m.entries.update({(c.dim(n + 1) + k, col): -v
                              for k, v in enumerate(coords) if v})
    return homology(FreeComplex(dims, diffs))


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
