"""Independent rank oracles for integer matrices: plain row echelon
elimination over Q (with Fraction) and over Z/p, reading the matrix
densely and sharing nothing with the Smith normal form kernel.

Over Q the rank is the number of nonzero elementary divisors; over Z/p
it is the number of elementary divisors not divisible by p.
"""

from fractions import Fraction


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
