"""Independent rank oracles for integer matrices: plain row echelon
elimination over Q (with Fraction) and over Z/p, reading the matrix
densely and sharing nothing with the Smith normal form kernel.

Over Q the rank is the number of nonzero elementary divisors; over Z/p
it is the number of elementary divisors not divisible by p.  The rank
of a quotient complex's homology over Q is read off such ranks too.
``det`` is the exact determinant by fraction-free (Bareiss)
elimination, which tells a unimodular transform of the Smith form.
"""

from fractions import Fraction

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
