"""Sign and degree bookkeeping shared by the chain-level constructions.

Conventions.  Elements carry an ordinary integer degree |x|; the reduced
degree is |x| + 1.  A "degrees" tuple lists ordinary degrees positionally,
1-based in all formulas: degrees[k-1] is |x_k|.  Every sign here is an
integer exponent computed exactly in Z and reduced mod 2 at the very end:
each *_exponent function returns the raw integer, and its caller takes
the parity.

The named exponents:

    dagger   sum_k k |x_k|
    maltese  sum_{k=i}^{j} (|x_k| + 1)                    (empty when i > j)
    flat     (d2 + 1) sum_{k<=d1} |x_k| + d1 + 1
    sharp    d2 sum_{k<=kk+d2} |x_k| + d2 (d - kk) + kk + 1
    diamond  r (d + 1) + (sum_{k<=r} |x_k|)(sum_{k>r} |x_k|)
                 + d2 sum_{k=r+1}^{r+d1} |x_k|            (d2 = d - d1)
    bullet   maltese(1, i) (1 + maltese(i+1, d)) + maltese(j+1, d-1)

homotopy_identity_check evaluates one global sign identity relating these
exponents across a cyclic two-block regrouping of the letters.  It reports
and never asserts: the identity is expected to hold only on the stratum
r < d2, and the caller owns the interpretation of failures elsewhere.
"""

from __future__ import annotations

from itertools import product
from typing import NamedTuple


class ConstraintError(ValueError):
    """A sign formula was asked for outside its domain."""


def maltese_exponent(degrees, i: int, j: int) -> int:
    """Sum of reduced degrees of letters i..j, 1-based, empty when i > j."""
    d = len(degrees)
    if i < 1:
        raise ConstraintError(f"maltese requires i >= 1, got i={i}")
    if j > d:
        raise ConstraintError(f"maltese requires j <= d={d}, got j={j}")
    return sum(degrees[k - 1] + 1 for k in range(i, j + 1))


def dagger_exponent(degrees) -> int:
    return sum(k * degrees[k - 1] for k in range(1, len(degrees) + 1))


def flat_exponent(degrees, d1: int, d2: int) -> int:
    if d1 < 1 or d2 < 1:
        raise ConstraintError(f"flat requires d1 >= 1 and d2 >= 1, got ({d1}, {d2})")
    if d1 > len(degrees):
        raise ConstraintError(f"flat requires d1 <= len(degrees), got d1={d1}")
    return (d2 + 1) * sum(degrees[:d1]) + d1 + 1


def sharp_exponent(degrees, k: int, d2: int) -> int:
    d = len(degrees)
    if k < 0:
        raise ConstraintError(f"sharp requires k >= 0, got k={k}")
    if d2 < 1:
        raise ConstraintError(f"sharp requires d2 >= 1, got d2={d2}")
    if k + d2 > d:
        raise ConstraintError(f"sharp requires k + d2 <= d={d}, got {k + d2}")
    return d2 * sum(degrees[:k + d2]) + d2 * (d - k) + k + 1


def diamond_exponent(degrees, d1: int, r: int) -> int:
    d = len(degrees)
    d2 = d - d1
    if not 0 <= d1 <= d:
        raise ConstraintError(f"diamond requires 0 <= d1 <= d={d}, got d1={d1}")
    if r < 0:
        raise ConstraintError(f"diamond requires r >= 0, got r={r}")
    if r + d1 > d:
        raise ConstraintError(f"diamond requires r + d1 <= d={d}, got {r + d1}")
    head = sum(degrees[:r])
    tail = sum(degrees[r:])
    middle = sum(degrees[r:r + d1])
    return r * (d + 1) + head * tail + d2 * middle


def bullet_exponent(degrees, i: int, j: int) -> int:
    d = len(degrees)
    if not 0 <= i <= j <= d:
        raise ConstraintError(f"bullet requires 0 <= i <= j <= d={d}, got ({i}, {j})")
    m = lambda a, b: maltese_exponent(degrees, a, b) if a <= b else 0
    return m(1, i) * (1 + m(i + 1, d)) + m(j + 1, d - 1)


def koszul_permutation_sign(degrees, perm) -> int:
    """Koszul parity of reordering graded letters.

    perm[i] is the original (0-based) position of the letter landing in
    slot i.  Each inversion contributes the product of the two REDUCED
    degrees; the result is the total mod 2.
    """
    if sorted(perm) != list(range(len(degrees))):
        raise ConstraintError("perm must be a permutation of 0..d-1")
    total = 0
    for b in range(len(perm)):
        for a in range(b):
            if perm[a] > perm[b]:
                total += (degrees[perm[a]] + 1) * (degrees[perm[b]] + 1)
    return total % 2


class IdentityReport(NamedTuple):
    degrees: tuple
    d1: int
    r: int
    lhs: int
    rhs: int

    @property
    def equal(self) -> bool:
        return self.lhs == self.rhs


def homotopy_identity_check(degrees, d1: int, r: int) -> IdentityReport:
    """Evaluate both sides of the two-block regrouping sign identity.

    Letters x_1..x_d are regrouped as the inner block x_{r+1}..x_{r+d1}
    and the cyclic outer block x_{r+d1+1}..x_d, x_1..x_r.  The identity
    compares the direct sign of the regrouped word against the composite
    of diamond, bullet and the per-block dagger-type signs:

        |x_d| + dagger + d |x|  ==  diamond(d1, r) + (d2 - 1) + |outer|
            + bullet(r, r + d1)
            + sum_{k=r+1}^{r+d1} (r + k + d1) |x_k|
            + sum_{k=1}^{r}      (r + k)      |x_k|
            + sum_{k=r+d1+1}^{d} (d + r + k)  |x_k|        (mod 2)

    Returns a report with both parities; callers decide what a mismatch
    means (geometrically the identity is only claimed for r < d2).
    """
    d = len(degrees)
    d2 = d - d1
    if not 0 <= d1 <= d:
        raise ConstraintError(f"identity requires 0 <= d1 <= d={d}, got d1={d1}")
    if not 0 <= r <= d2:
        raise ConstraintError(f"identity requires 0 <= r <= d2={d2}, got r={r}")
    deg = lambda k: degrees[k - 1]
    total = sum(degrees)
    lhs = deg(d) + dagger_exponent(degrees) + d * total

    outer = sum(deg(k) for k in range(1, r + 1)) + \
        sum(deg(k) for k in range(r + d1 + 1, d + 1))
    t_inner = sum((r + k + d1) * deg(k) for k in range(r + 1, r + d1 + 1))
    t_outer = sum((r + k) * deg(k) for k in range(1, r + 1)) + \
        sum((d + r + k) * deg(k) for k in range(r + d1 + 1, d + 1))
    rhs = (diamond_exponent(degrees, d1, r) + d2 - 1 + outer
           + bullet_exponent(degrees, r, r + d1) + t_inner + t_outer)
    return IdentityReport(degrees=tuple(degrees), d1=d1, r=r,
                          lhs=lhs % 2, rhs=rhs % 2)


class IdentitySweep(NamedTuple):
    total: int
    failures: tuple          # (degrees, d1, r) triples that failed
    failing_combos: tuple    # sorted distinct (d, d1, r)
    boundary_total: int      # cases with r = d2
    interior_total: int      # cases with r < d2
    interior_failures: int

    @property
    def all_failures_on_boundary(self) -> bool:
        return all(r == len(degrees) - d1 for degrees, d1, r in self.failures)


def sweep_identity(d_max: int = 4, degree_window=(-2, 2)) -> IdentitySweep:
    """Exhaustive identity check over small arities and a degree window.

    Covers every d <= d_max, every split 0 <= d1 <= d, every rotation
    0 <= r <= d2 (the boundary value r = d2 included deliberately), and
    every degrees tuple with entries in the window lo..hi.  A reversed
    window or a negative d_max raises ConstraintError; d_max = 0 gives
    the empty sweep.

    For fixed d, d1 and r every term of either side of the identity is an
    integer polynomial in the degrees: dagger, the per-block sums and the
    diamond and bullet exponents are sums and products of degrees with
    integer coefficients.  An integer polynomial read mod 2 takes the same
    value at x and y whenever x = y (mod 2) entrywise, so the verdict
    depends only on the parity pattern of the degrees.  For each d the
    tuples are listed once, with their parity patterns in the same order;
    each (d1, r) evaluates the identity once per distinct pattern (the
    pattern itself serves as the degrees), counts the cases by the length
    of the list, and lists as failures the tuples whose pattern failed,
    in tuple order.
    """
    lo, hi = degree_window
    if lo > hi:
        raise ConstraintError(
            f"sweep requires a window lo <= hi, got degree_window={degree_window}")
    if d_max < 0:
        raise ConstraintError(f"sweep requires d_max >= 0, got d_max={d_max}")
    window = range(lo, hi + 1)
    failures = []
    total = boundary = interior = interior_fail = 0
    for d in range(1, d_max + 1):
        tuples = list(product(window, repeat=d))
        patterns = list(product([x & 1 for x in window], repeat=d))
        distinct = set(patterns)
        for d1 in range(0, d + 1):
            d2 = d - d1
            for r in range(0, d2 + 1):
                failed = {p for p in distinct
                          if not homotopy_identity_check(p, d1, r).equal}
                total += len(tuples)
                if r == d2:
                    boundary += len(tuples)
                else:
                    interior += len(tuples)
                if failed:
                    hits = [(degrees, d1, r) for degrees, pattern
                            in zip(tuples, patterns) if pattern in failed]
                    failures += hits
                    if r < d2:
                        interior_fail += len(hits)
    combos = tuple(sorted({(len(degs), d1, r) for degs, d1, r in failures}))
    return IdentitySweep(total=total, failures=tuple(failures),
                         failing_combos=combos, boundary_total=boundary,
                         interior_total=interior,
                         interior_failures=interior_fail)
