"""Independent cross-check operators, written from the classical
formulas rather than from this package's sign bookkeeping.

classical_cyclic_b is the textbook cyclic bar differential for an
algebra concentrated in degree zero, in Loday-style storage
(a0, a1, ..., an) with faces left to right:

    b = sum_{i<n} (-1)^i (..., a_i a_{i+1}, ...) + (-1)^n (a_n a0, ...)

The package stores words as (a_d, ..., a_1) with the bar part displayed
in descending order, multiplies with the loop-composition twist, and
differs from the classical operator by one global sign.  The recorded
dictionary, exact in degree zero where the twist is invisible:

    package_b(w) = - rev(classical_b(rev(w)))

where rev keeps the special (leftmost) entry and reverses the rest.

check_table_dga decides the dga axioms of a table algebra (d.d = 0,
the ordinary Leibniz rule and associativity) by exhausting its basis,
straight from the product and differential tables.

SphereCochains(n) is Z[u]/u^2 with |u| = n, the formal cochain algebra
of S^n.  By Jones (1987), HH_*(C^*X) = H^*(LX) for simply connected X,
so its cyclic bar complex computes H^*(LS^n; Z).
"""

from loopchains.exactalg import _add


def rev(word):
    return (word[0],) + tuple(reversed(word[1:]))


def classical_cyclic_b(dga, lword):
    out = {}
    n = len(lword) - 1

    def add(k, c):
        if c:
            out[k] = out.get(k, 0) + c
            if out[k] == 0:
                del out[k]

    for i in range(n):
        for z, c in dga.product.get((lword[i], lword[i + 1]), {}).items():
            add(lword[:i] + (z,) + lword[i + 2:], c * (-1) ** i)
    if n >= 1:
        for z, c in dga.product.get((lword[n], lword[0]), {}).items():
            add((z,) + lword[1:n], c * (-1) ** n)
    return out


def classical_b_squared(dga, lword):
    out = {}
    for w, c in classical_cyclic_b(dga, lword).items():
        for w2, c2 in classical_cyclic_b(dga, w).items():
            out[w2] = out.get(w2, 0) + c * c2
            if out[w2] == 0:
                del out[w2]
    return out


def check_table_dga(dga):
    """Associativity, Leibniz and d.d = 0, checked exhaustively."""
    basis = dga.basis()

    def bilinear(vec, y, left):
        out = {}
        for x, c in vec.items():
            pair = (x, y) if left else (y, x)
            for z, cc in dga.product.get(pair, {}).items():
                _add(out, z, c * cc)
        return out

    for x in basis:
        dd = {}
        for y, c in dga.differential.get(x, {}).items():
            for z, cc in dga.differential.get(y, {}).items():
                _add(dd, z, c * cc)
        if dd:
            raise AssertionError(f"d.d != 0 at {x}")
    for x in basis:
        for y in basis:
            dxy = {}
            for z, c in dga.product.get((x, y), {}).items():
                for w, cc in dga.differential.get(z, {}).items():
                    _add(dxy, w, c * cc)
            rhs = {}
            dx = dga.differential.get(x, {})
            for w, cc in bilinear(dx, y, True).items():
                _add(rhs, w, cc)
            sx = (-1) ** (dga.degrees[x] % 2)
            dy = dga.differential.get(y, {})
            for w, cc in bilinear(dy, x, False).items():
                _add(rhs, w, sx * cc)
            if dxy != rhs:
                raise AssertionError(f"Leibniz fails at ({x}, {y})")
    for x in basis:
        for y in basis:
            for z in basis:
                lhs = bilinear(dga.product.get((x, y), {}), z, True)
                rhs = bilinear(dga.product.get((y, z), {}), x, False)
                if lhs != rhs:
                    raise AssertionError(
                        f"associativity fails at ({x},{y},{z})")
    return True


class SphereCochains:
    """Z[u]/u^2, |u| = n, with unit "1" of weight 0 and u of weight 1.
    The differential is zero, and mu2 carries the package twist
    mu2(x2, x1) = (-1)^|x1| x1.x2; without it odd spheres come out
    wrong."""

    def __init__(self, n):
        self.n = n

    def degree(self, x):
        return self.n if x == "u" else 0

    def weight(self, x):
        return 1 if x == "u" else 0

    def unit(self):
        return "1"

    def basis(self, max_weight=None):
        return ["u"]

    def mu1(self, x):
        return {}

    def mu2(self, x2, x1):
        if x1 == "1":
            return {x2: 1}
        if x2 == "1":
            return {x1: (-1) ** (self.degree(x1) % 2)}
        return {}  # u.u = 0
