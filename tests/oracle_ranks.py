"""Independent rank oracles for integer matrices: plain row echelon
elimination over Q (with Fraction) and over Z/p, reading the matrix
densely and sharing nothing with the Smith normal form kernel.

Over Q the rank is the number of nonzero elementary divisors; over Z/p
it is the number of elementary divisors not divisible by p.  The rank
of a quotient complex's homology over Q is read off such ranks too.
``det`` is the exact determinant by fraction-free (Bareiss)
elimination, which tells a unimodular transform of the Smith form.
``heap_smith_diagonal`` is the Smith diagonal by sparse elimination
that takes every pivot off one heap and clears every row by division:
the oracle of the kernel that buckets its unit pivots by cost.
"""

from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd

from loopchains.exactalg import IntMatrix, ShapeError


def rank_q(m):
    mat = [[Fraction(m[i, j]) for j in range(m.cols)] for i in range(m.rows)]
    rank = 0
    for c in range(m.cols):
        pivot = next((i for i in range(rank, m.rows) if mat[i][c]), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        for i in range(rank + 1, m.rows):
            if mat[i][c]:
                f = mat[i][c] / mat[rank][c]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[rank])]
        rank += 1
    return rank


def rank_p(m, p):
    mat = [[m[i, j] % p for j in range(m.cols)] for i in range(m.rows)]
    rank = 0
    for c in range(m.cols):
        pivot = next((i for i in range(rank, m.rows) if mat[i][c]), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        inv = pow(mat[rank][c], p - 2, p)
        for i in range(rank + 1, m.rows):
            if mat[i][c]:
                f = mat[i][c] * inv % p
                mat[i] = [(a - f * b) % p for a, b in zip(mat[i], mat[rank])]
        rank += 1
    return rank


def det(m):
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


def quotient_ranks_q(c, relations):
    """Rational ranks of H(C / R), degree by degree over the degrees of C,
    for R spanned by ``relations`` ({degree: [{basis element: coeff}]}):

        dim C^n - rank R^n - rank dbar_n - rank dbar_(n-1),

    where dbar_n : C^n / R^n -> C^(n+1) / R^(n+1) has rank
    rank [d_n | R^(n+1)] - rank R^(n+1).  Only rank_q eliminates.
    """
    def with_relations(n, left):
        # the columns of ``left`` (rows indexed by the basis of degree n),
        # then one column per relation of degree n
        index = {x: i for i, x in enumerate(c.bases.get(n, ()))}
        m = IntMatrix(c.dim(n), left.cols + len(relations.get(n, ())),
                      left.entries)
        for j, vec in enumerate(relations.get(n, ()), left.cols):
            for x, v in vec.items():
                m[index[x], j] = v
        return m

    def rank_r(n):
        return rank_q(with_relations(n, IntMatrix(c.dim(n), 0)))

    def rank_dbar(n):
        return rank_q(with_relations(n + 1, c.diff(n))) - rank_r(n + 1)

    return {n: c.dim(n) - rank_r(n) - rank_dbar(n) - rank_dbar(n - 1)
            for n in c.dims}


def heap_smith_diagonal(m):
    """The Smith diagonal of ``m``, d_1 | d_2 | ... padded with zeros to
    min(rows, cols), by sparse elimination with one pivot heap.

    Pivots come off a heap keyed by (|value|, Markowitz cost
    (row nnz - 1) * (col nnz - 1), i, j), so the +-1 entries go first,
    cheapest first, then the non-unit core, smallest |value| first.  A
    pivot clears its column by row operations and its row by column
    operations, each by division with remainder; a pivot whose column or
    row keeps a remainder goes back on the heap.  A popped key is checked
    against the current entry and cost.  The pivots are folded into the
    divisibility chain by gcd/lcm exchanges.
    """
    rows = [{} for _ in range(m.rows)]
    cols = [set() for _ in range(m.cols)]
    for (i, j), x in m.entries.items():
        rows[i][j] = x
        cols[j].add(i)

    def cost(i, j):
        return (len(rows[i]) - 1) * (len(cols[j]) - 1)

    heap = [(abs(x), cost(i, j), i, j) for (i, j), x in m.entries.items()]
    heapify(heap)
    pivots = []
    while heap:
        size, key, r, c = heappop(heap)
        row = rows[r]
        p = row.get(c)
        if p is None or abs(p) != size:
            continue
        now = cost(r, c)
        if now > key:
            heappush(heap, (size, now, r, c))
            continue
        for i in [i for i in cols[c] if i != r]:
            target = rows[i]
            q = target[c] // p
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
            for j in touched:
                heappush(heap, (abs(target[j]), cost(i, j), i, j))
        if len(cols[c]) > 1:
            heappush(heap, (size, now, r, c))
            continue
        for j in [j for j in row if j != c]:
            q = row[j] // p
            if not q:
                continue
            w = row[j] - q * p
            if w:
                row[j] = w
                heappush(heap, (abs(w), cost(r, j), r, j))
            else:
                del row[j]
                cols[j].discard(r)
        if len(row) > 1:
            heappush(heap, (size, cost(r, c), r, c))
            continue
        pivots.append(abs(p))
        row.clear()
        cols[c].clear()

    units = pivots.count(1)
    core = [d for d in pivots if d != 1]
    for i in range(len(core)):
        for j in range(i + 1, len(core)):
            g = gcd(core[i], core[j])
            core[i], core[j] = g, core[i] // g * core[j]
    zeros = min(m.rows, m.cols) - len(pivots)
    return (1,) * units + tuple(core) + (0,) * zeros
