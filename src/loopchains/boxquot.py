"""Exact piecewise linear cubes and the concatenation quotient calculus.

A PLCube is a map from a subdivided unit cube into a rational simplicial
realization, stored as exact rational values on the subdivision lattice and
interpolated affinely on the lexicographic Kuhn triangulation of every cell.
Everything stays in Fraction arithmetic, so equality of maps, degeneracy
and fit conditions are decided, not sampled.  The homotopy certificates
below are exact too, and both collapse homotopies are decided on all of
[0, 1]^n by a finite set of points: the corners for the shrink-to-center
identities (box_dot), the vertices of the clamp arrangement for the
sum-clamp identities (box_slash).  That decision reads no cube value, so
one verdict serves all cubes with the same family parameters and live
axes.  The probe grid runs only for an identity that set refutes, to find
its witness; an identity whose maps differ on an axis the component reads
although its values agree there stays a probe sample.

On top of the representation:

* faces and transpositions of cubes, and the signed nondegenerate faces
  that the cubical boundary sums with its (-1)**(k + eps) signs;
* concatenation of two fitting cubes along their last coordinate at a
  reparametrizing level, with admissibility conditions, and the inverse
  splitting;
* certificates for the two collapse homotopies (sum-clamp on the last two
  coordinates; shrink-to-center on a transposed axis pair), decided as
  above and probed through every breakpoint only where refuted;
* a comparison of the homology of the span of a finite face-closed cube
  family against the homology after dividing out concatenation and
  transposition relations: this module enumerates the relations and
  matches cubes to generators up to map equality, and
  exactalg.quotient_homology does the lattice algebra.

Exactness dictates one representational rule used throughout: a sampled
construction is trusted only when every grid cell of the result maps onto a
full grid cell of its source.  Kuhn interpolation does not survive
regridding (resampling min(u, v) on a refined grid is a different map), so
the constructors below demand aligned grids instead of refining silently,
and say so when they refuse.
"""

import json
from bisect import bisect_left, bisect_right
from fractions import Fraction
from itertools import combinations, permutations, product
from typing import NamedTuple

from .exactalg import FreeComplex, homology, quotient_homology
from .simpcx import ParseError, _decode, _positive_grading, parse_complex

ZERO = Fraction(0)
ONE = Fraction(1)
HALF = Fraction(1, 2)


class GeometryError(ValueError):
    """A cube, level, or family violates a geometric precondition."""


class FitError(GeometryError):
    """Concatenation attempted on cubes whose faces do not match."""


class AdmissibilityError(GeometryError):
    """A level violates the zero-set or one-set condition."""


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int) and not isinstance(x, bool):
        return Fraction(x)
    if isinstance(x, str):
        try:
            return Fraction(x)
        except (ValueError, ZeroDivisionError):
            raise GeometryError(f"not a rational value: {x!r}") from None
    # No floats: 0.1 is not 1/10 and this module never rounds.  No bools:
    # a JSON true is not the number 1.
    raise GeometryError(f"not a rational value: {x!r}")


def _row_reduce(m, ncols):
    """Gauss-Jordan elimination of the Fraction rows ``m`` in place, on
    their first ``ncols`` columns.  Returns the pivot columns: row r of
    the result leads with a 1 in the r-th of them, zero above and below.
    """
    pivots = []
    top = 0
    for col in range(ncols):
        pr = next((r for r in range(top, len(m)) if m[r][col] != 0), None)
        if pr is None:
            continue
        m[top], m[pr] = m[pr], m[top]
        pv = m[top][col]
        m[top] = [x / pv for x in m[top]]
        for r in range(len(m)):
            if r != top and m[r][col]:
                f = m[r][col]
                m[r] = [a - f * b for a, b in zip(m[r], m[top])]
        pivots.append(col)
        top += 1
        if top == len(m):
            break
    return pivots


def _solve_linear(rows, rhs):
    """Unique exact solution of a (possibly overdetermined) linear system.

    Returns the solution tuple, or None when the system is inconsistent or
    the solution is not unique.
    """
    m = [[Fraction(c) for c in row] + [Fraction(b)] for row, b in zip(rows, rhs)]
    if not m:
        return None
    ncols = len(m[0]) - 1
    pivots = _row_reduce(m, ncols)
    if len(pivots) < ncols:
        return None
    for r in range(len(pivots), len(m)):
        if m[r][ncols] != 0:
            return None
    sol = [ZERO] * ncols
    for r, col in enumerate(pivots):
        sol[col] = m[r][ncols]
    return tuple(sol)


def _affinely_independent(pts) -> bool:
    if len(pts) <= 1:
        return True
    rows = [[b - a for a, b in zip(pts[0], p)] for p in pts[1:]]
    return len(_row_reduce(rows, len(pts[0]))) == len(rows)


class Realization:
    """A simplicial complex realized with exact rational vertex coordinates.

    Point containment is decided simplex by simplex through barycentric
    coordinates, so cube target checks are exact.  Facets must be affinely
    independent; every face of a facet counts as a simplex.
    """

    def __init__(self, complex, coordinates):
        self.complex = complex
        coords = {}
        for v in complex.vertices:
            if v not in coordinates:
                raise GeometryError(f"vertex {v} has no coordinates")
            point = coordinates[v]
            if not isinstance(point, (list, tuple)):
                raise GeometryError(
                    f"vertex {v} must be a list of rationals, got {point!r}")
            coords[v] = tuple(_frac(x) for x in point)
        lens = {len(p) for p in coords.values()}
        if len(lens) != 1:
            raise GeometryError("vertex coordinates must share one ambient dimension")
        self.ambient = lens.pop()
        if self.ambient == 0:
            raise GeometryError("ambient dimension must be at least 1")
        self.coordinates = coords
        for f in complex.facets:
            if not _affinely_independent([coords[v] for v in f]):
                raise GeometryError(f"facet {list(f)} is affinely degenerate")
        simplices = set()
        for f in complex.facets:
            for r in range(1, len(f) + 1):
                simplices.update(combinations(f, r))
        # big simplices first: covers() usually hits a facet
        self._simplices = sorted(simplices, key=lambda s: (-len(s), s))
        self._frames = {}

    def covers(self, points) -> bool:
        """Whether a single closed simplex contains every given point."""
        pts = [tuple(_frac(x) for x in p) for p in points]
        if any(len(p) != self.ambient for p in pts):
            return False
        for s in self._simplices:
            if all(self._barycentric(s, p) is not None for p in pts):
                return True
        return False

    def _barycentric(self, simplex, point):
        # I-part of reduced [A | I], A = vertices over a 1-row: m solve rows, then hull
        m, n = len(simplex), self.ambient
        if simplex not in self._frames:
            rows = [[(*self.coordinates[v], ONE)[d] for v in simplex]
                    + [ZERO] * d + [ONE] + [ZERO] * (n - d) for d in range(n + 1)]
            _row_reduce(rows, m)
            self._frames[simplex] = [r[m:] for r in rows]
        x, frame = (*point, ONE), self._frames[simplex]
        if any(sum(a * b for a, b in zip(row, x)) for row in frame[m:]):
            return None  # off the affine hull
        sol = tuple(sum(a * b for a, b in zip(row, x)) for row in frame[:m])
        return None if any(c < 0 for c in sol) else sol

    def _key(self):
        return (self.complex, tuple(sorted(self.coordinates.items())))

    def __eq__(self, other):
        if not isinstance(other, Realization):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return f"<Realization of {self.complex.name!r} in R^{self.ambient}>"


def _locate(axis, x) -> int:
    # index of the grid cell containing x, with x == 1 landing in the last
    return min(bisect_right(axis, x) - 1, len(axis) - 2)


def _corner_chains(base, dim):
    """Corner index chains of the Kuhn simplices of one grid cell."""
    if dim == 0:
        yield (tuple(base),)
        return
    for perm in permutations(range(dim)):
        cur = list(base)
        chain = [tuple(cur)]
        for a in perm:
            cur[a] += 1
            chain.append(tuple(cur))
        yield tuple(chain)


class PLCube:
    """An exact piecewise affine map from a subdivided unit cube.

    ``breakpoints`` holds one strictly increasing tuple from 0 to 1 per
    axis; ``values`` maps every lattice index tuple to a rational point.
    Between lattice points the map is the affine interpolation on the
    lexicographic Kuhn triangulation of each grid cell: on the cell with
    normalized coordinates u, sort the axes so that u falls, and walk the
    corner chain, weighting corner m by the drop from the m-th largest
    coordinate to the next.  A ``target`` realization, when given, is
    checked to contain the image of every Kuhn simplex.

    Cubes compare and hash by their exact data (and target), not by the
    maps they induce; use pl_equal for map equality.
    """

    def __init__(self, breakpoints, values, target=None):
        bps = []
        for a, axis in enumerate(breakpoints):
            ax = tuple(_frac(b) for b in axis)
            if (len(ax) < 2 or ax[0] != ZERO or ax[-1] != ONE
                    or any(x >= y for x, y in zip(ax, ax[1:]))):
                raise GeometryError(
                    f"axis {a + 1}: breakpoints must increase strictly from 0 to 1")
            bps.append(ax)
        items = values.items() if hasattr(values, "items") else values
        vals = {}
        for idx, p in items:
            idx = tuple(idx)
            for x in idx:
                _require_int(f"index entry of lattice point {idx}", x)
            vals[idx] = tuple(_frac(x) for x in p)
        expected = set(product(*(range(len(ax)) for ax in bps)))
        if set(vals) != expected:
            missing = sorted(expected - set(vals))
            if missing:
                raise GeometryError(f"missing value at lattice point {missing[0]}")
            raise GeometryError(
                f"unexpected lattice point {sorted(set(vals) - expected)[0]}")
        lens = {len(p) for p in vals.values()}
        if len(lens) != 1:
            raise GeometryError("values must share one ambient dimension")
        ambient = lens.pop()
        if ambient == 0:
            raise GeometryError("ambient dimension must be at least 1")
        self._fill(tuple(bps), vals, ambient, target)
        if target is not None:
            self._check_target(target)

    @classmethod
    def _unchecked(cls, breakpoints, values, ambient, target) -> "PLCube":
        """A cube from data that needs no validation: a face or a
        transposition of a valid cube.  Each Kuhn simplex of a face is a
        face of one of the parent's, and an axis swap permutes the Kuhn
        simplices of every cell, so the image stays in the target."""
        cube = cls.__new__(cls)
        cube._fill(breakpoints, values, ambient, target)
        return cube

    def _fill(self, breakpoints, values, ambient, target):
        self.breakpoints = breakpoints
        self.dim = len(breakpoints)
        self.ambient = ambient
        self._values = values
        self.target = target
        self._degaxes = None
        self._hash = hash((breakpoints, tuple(sorted(values.items()))))

    @classmethod
    def constant(cls, dim, point, target=None) -> "PLCube":
        pt = tuple(_frac(x) for x in point)
        vals = {idx: pt for idx in product((0, 1), repeat=dim)}
        return cls(((ZERO, ONE),) * dim, vals, target)

    @classmethod
    def from_function(cls, breakpoints, fn, target=None) -> "PLCube":
        """Sample ``fn`` on the lattice.  Only exact when the function is
        already affine on the Kuhn pieces of this very grid."""
        bps = tuple(tuple(_frac(b) for b in axis) for axis in breakpoints)
        vals = {}
        for idx in product(*(range(len(ax)) for ax in bps)):
            pt = tuple(bps[a][j] for a, j in enumerate(idx))
            vals[idx] = tuple(fn(pt))
        return cls(bps, vals, target)

    def _check_target(self, target):
        if self.ambient != target.ambient:
            raise GeometryError(
                f"cube values lie in R^{self.ambient} but the target complex "
                f"is realized in R^{target.ambient}")
        for base in self._cells():
            corners = list(product(*((j, j + 1) for j in base)))
            if target.covers([self._values[i] for i in corners]):
                continue
            for chain in _corner_chains(base, self.dim):
                if not target.covers([self._values[i] for i in chain]):
                    raise GeometryError(
                        f"cube leaves the target complex near lattice point {chain[-1]}")

    def _cells(self):
        return product(*(range(len(ax) - 1) for ax in self.breakpoints))

    def value(self, idx):
        key = tuple(idx)
        for x in key:
            _require_int(f"index entry of lattice point {key}", x)
        try:
            return self._values[key]
        except KeyError:
            raise GeometryError(f"no lattice point {key}") from None

    def lattice(self):
        """The (index, value) pairs in sorted index order."""
        return sorted(self._values.items())

    def point_of(self, idx):
        return tuple(self.breakpoints[a][j] for a, j in enumerate(idx))

    def eval(self, point):
        pt = tuple(_frac(x) for x in point)
        if len(pt) != self.dim:
            raise GeometryError(f"point of length {len(pt)} fed to a {self.dim}-cube")
        if any(x < ZERO or x > ONE for x in pt):
            raise GeometryError(f"point {pt} outside the unit cube")
        if self.dim == 0:
            return self._values[()]
        base = []
        local = []
        for a, x in enumerate(pt):
            j = _locate(self.breakpoints[a], x)
            base.append(j)
            step = self.breakpoints[a][j + 1] - self.breakpoints[a][j]
            local.append((x - self.breakpoints[a][j]) / step)
        order = sorted(range(self.dim), key=lambda a: (-local[a], a))
        corner = list(base)
        weight = ONE - local[order[0]]
        acc = [weight * v for v in self._values[tuple(corner)]]
        for m, a in enumerate(order):
            corner[a] += 1
            nxt = local[order[m + 1]] if m + 1 < self.dim else ZERO
            weight = local[a] - nxt
            if weight:
                vtx = self._values[tuple(corner)]
                for d in range(self.ambient):
                    acc[d] += weight * vtx[d]
        return tuple(acc)

    def degenerate_axes(self):
        """1-indexed axes the map does not depend on: all parallel slices
        carry identical values, so the cube factors through dropping them."""
        if self._degaxes is None:
            out = []
            for a in range(self.dim):
                ref = {}
                flat = True
                for idx, p in self._values.items():
                    key = idx[:a] + idx[a + 1:]
                    seen = ref.setdefault(key, p)
                    if seen != p:
                        flat = False
                        break
                if flat:
                    out.append(a + 1)
            self._degaxes = tuple(out)
        return self._degaxes

    @property
    def is_degenerate(self) -> bool:
        return bool(self.degenerate_axes())

    def __eq__(self, other):
        if not isinstance(other, PLCube):
            return NotImplemented
        return (self.breakpoints == other.breakpoints
                and self._values == other._values
                and self.target == other.target)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        cells = 1
        for ax in self.breakpoints:
            cells *= len(ax) - 1
        return f"<PLCube dim={self.dim} ambient={self.ambient} cells={cells}>"


def _require_int(name, value):
    # 1.0 passes a range check but cannot index a list; True is 1 in
    # disguise
    if not isinstance(value, int) or isinstance(value, bool):
        raise GeometryError(f"{name} must be an integer, got {value!r}")


def face(cube: PLCube, k: int, eps: int) -> PLCube:
    """The face fixing coordinate k (1-indexed) at eps, an exact data
    restriction.  The full boundary weights it by (-1)**(k + eps)."""
    _require_int("face index k", k)
    if not 1 <= k <= cube.dim:
        raise GeometryError(f"face index {k} out of range for a {cube.dim}-cube")
    if eps not in (0, 1):
        raise GeometryError("face side must be 0 or 1")
    a = k - 1
    slot = 0 if eps == 0 else len(cube.breakpoints[a]) - 1
    bps = cube.breakpoints[:a] + cube.breakpoints[a + 1:]
    vals = {idx[:a] + idx[a + 1:]: p
            for idx, p in cube._values.items() if idx[a] == slot}
    return PLCube._unchecked(bps, vals, cube.ambient, cube.target)


def transpose(cube: PLCube, k: int) -> PLCube:
    """Precompose with the swap of coordinates k and k+1 (exact data
    permutation)."""
    _require_int("axis k", k)
    if not 1 <= k <= cube.dim - 1:
        raise GeometryError(
            f"axis {k} out of range for transposition in a {cube.dim}-cube")
    a = k - 1
    bps = list(cube.breakpoints)
    bps[a], bps[a + 1] = bps[a + 1], bps[a]
    vals = {}
    for idx, p in cube._values.items():
        swapped = list(idx)
        swapped[a], swapped[a + 1] = swapped[a + 1], swapped[a]
        vals[tuple(swapped)] = p
    return PLCube._unchecked(tuple(bps), vals, cube.ambient, cube.target)


def _signed_faces(cube):
    """(k, eps, face) for each nondegenerate face of the cube; the face
    enters the boundary with sign (-1)**(k + eps)."""
    for k in range(1, cube.dim + 1):
        for eps in (0, 1):
            f = face(cube, k, eps)
            if not f.is_degenerate:
                yield k, eps, f


class EqualityVerdict(NamedTuple):
    equal: bool
    witness: tuple         # a point where the maps differ, or None

    def __bool__(self):
        return self.equal


def _order_planes(cube, lo, hi):
    # order hyperplanes u_p = u_q of the cube's grid cell containing the box
    planes = set()
    low = []
    width = []
    for a in range(cube.dim):
        j = _locate(cube.breakpoints[a], (lo[a] + hi[a]) / 2)
        low.append(cube.breakpoints[a][j])
        width.append(cube.breakpoints[a][j + 1] - cube.breakpoints[a][j])
    for p in range(cube.dim):
        for q in range(p + 1, cube.dim):
            coeffs = [ZERO] * cube.dim
            coeffs[p] = 1 / width[p]
            coeffs[q] = -(1 / width[q])
            planes.add((tuple(coeffs), low[p] / width[p] - low[q] / width[q]))
    return planes


def _arrangement_vertices(planes, lo, hi):
    dim = len(lo)
    pts = set()
    for combo in combinations(planes, dim):
        sol = _solve_linear([c for c, _ in combo], [r for _, r in combo])
        if sol is not None and all(lo[a] <= sol[a] <= hi[a] for a in range(dim)):
            pts.add(sol)
    return sorted(pts)


def pl_equal(a: PLCube, b: PLCube) -> EqualityVerdict:
    """Decide whether two cubes are equal as maps.

    Complete, not heuristic: on every cell of the common grid both maps are
    affine on the pieces of one hyperplane arrangement (each map's order
    hyperplanes plus the cell facets), and two such maps agree on the cell
    iff they agree on every vertex of that arrangement.  A failing verdict
    carries one such vertex as witness.
    """
    if a.dim != b.dim or a.ambient != b.ambient:
        return EqualityVerdict(False, None)
    if a.breakpoints == b.breakpoints and a._values == b._values:
        return EqualityVerdict(True, None)
    if a.dim == 0:
        same = a.value(()) == b.value(())
        return EqualityVerdict(same, None if same else ())
    axes = [sorted(set(a.breakpoints[i]) | set(b.breakpoints[i]))
            for i in range(a.dim)]
    for cell in product(*(range(len(ax) - 1) for ax in axes)):
        lo = tuple(axes[i][j] for i, j in enumerate(cell))
        hi = tuple(axes[i][j + 1] for i, j in enumerate(cell))
        planes = set()
        for i in range(a.dim):
            e = tuple(ONE if j == i else ZERO for j in range(a.dim))
            planes.add((e, lo[i]))
            planes.add((e, hi[i]))
        planes |= _order_planes(a, lo, hi)
        planes |= _order_planes(b, lo, hi)
        for pt in _arrangement_vertices(sorted(planes), lo, hi):
            if a.eval(pt) != b.eval(pt):
                return EqualityVerdict(False, pt)
    return EqualityVerdict(True, None)


def constant_level(level: PLCube):
    """The constant value of a level cube, or None when it varies."""
    vals = {p for _, p in level._values.items()}
    if len(vals) == 1:
        return vals.pop()[0]
    return None


def _as_level(dim, level) -> PLCube:
    if isinstance(level, PLCube):
        if level.dim != dim or level.ambient != 1:
            raise GeometryError(
                f"level must be a {dim}-cube into the unit interval")
        return level
    return PLCube.constant(dim, (_frac(level),))


def _require_unit_range(level):
    for idx, p in level.lattice():
        if not ZERO <= p[0] <= ONE:
            raise GeometryError(
                f"level values must lie in [0, 1]; found {p[0]} at lattice point {idx}")


def fits(first: PLCube, second: PLCube) -> bool:
    """Whether the top face of ``first`` along its last axis equals the
    bottom face of ``second`` as maps."""
    if first.dim != second.dim or first.dim == 0:
        return False
    if first.ambient != second.ambient or first.target != second.target:
        return False
    return bool(pl_equal(face(first, first.dim, 1), face(second, second.dim, 0)))


def _level_corner_faces(level, where):
    """Corner point sets of the triangulation faces on which the level is
    identically ``where``.  For a level into [0, 1] that is exact: an affine
    function on a simplex with values in [0, 1] attains 0 (or 1) precisely
    on the face spanned by the corners where it does."""
    out = set()
    for base in level._cells():
        for chain in _corner_chains(base, level.dim):
            pts = tuple(sorted(level.point_of(idx) for idx in chain
                               if level.value(idx) == (where,)))
            if pts:
                out.add(pts)
    return sorted(out)


def _depends_on_last(cube, pts):
    """None when the cube is independent of its last coordinate over the
    smallest lattice box containing ``pts`` (conservative: the box may be
    larger than their hull); otherwise a witness lattice point."""
    last = cube.dim - 1
    ranges = []
    for a in range(last):
        coords = [p[a] for p in pts]
        lo = bisect_right(cube.breakpoints[a], min(coords)) - 1
        hi = bisect_left(cube.breakpoints[a], max(coords))
        ranges.append(range(lo, hi + 1))
    for head in product(*ranges):
        ref = cube.value(head + (0,))
        for j in range(1, len(cube.breakpoints[last])):
            if cube.value(head + (j,)) != ref:
                return head + (j,)
    return None


def _check_level_conditions(first, second, level):
    for where, cube, name, verb in ((ZERO, first, "first", "vanishes"),
                                    (ONE, second, "second", "reaches one")):
        for pts in _level_corner_faces(level, where):
            witness = _depends_on_last(cube, pts)
            if witness is not None:
                raise AdmissibilityError(
                    f"the level {verb} where the {name} cube depends on its "
                    f"last coordinate (lattice point {witness})")


def concat_f(first: PLCube, second: PLCube, level) -> PLCube:
    """Concatenate two fitting cubes along their last coordinate.

    ``level`` is the reparametrizing function on the transverse cube, given
    as a PLCube into [0, 1] or as a constant (Fraction, int, 'p/q' string):
    the first factor is traversed while the last coordinate runs up to the
    level, the second for the rest, each at constant speed.

    Admissibility: the level may vanish only where the first cube is
    independent of its last coordinate and reach one only where the second
    is.  Independence is judged on the smallest enclosing lattice box, which
    is conservative but exact in the accepting direction.

    Exactness forces two representability rules instead of silent
    resampling: a genuinely varying level needs both factors independent of
    their last coordinate (the result is then the degenerate extension of
    the shared face), and in dimension 2 and up both factors must share
    their grid transverse to the last axis.
    """
    if first.dim != second.dim:
        raise GeometryError("cube dimensions differ")
    i = first.dim
    if i == 0:
        raise GeometryError("0-cubes have no last coordinate to concatenate along")
    if first.ambient != second.ambient:
        raise GeometryError("ambient dimensions differ")
    if first.target != second.target:
        raise GeometryError("targets differ")
    level = _as_level(i - 1, level)
    _require_unit_range(level)
    if not fits(first, second):
        raise FitError("faces do not match")
    _check_level_conditions(first, second, level)
    if i in first.degenerate_axes() and i in second.degenerate_axes():
        shared = face(first, i, 1)
        bps = shared.breakpoints + ((ZERO, ONE),)
        vals = {idx + (j,): p for idx, p in shared.lattice() for j in (0, 1)}
        return PLCube(bps, vals, first.target)
    c = constant_level(level)
    if c is None:
        raise GeometryError(
            "a varying level is only representable when both cubes are "
            "independent of their last coordinate")
    if i >= 2 and first.breakpoints[:-1] != second.breakpoints[:-1]:
        raise GeometryError("cubes must share their grid transverse to the last axis")
    lastb = sorted({c * b for b in first.breakpoints[-1]}
                   | {c + (ONE - c) * b for b in second.breakpoints[-1]})
    bps = first.breakpoints[:-1] + (tuple(lastb),)

    def value(pt):
        body, t = pt[:-1], pt[-1]
        if t < c:
            return first.eval(body + (t / c,))
        if t == c:
            return first.eval(body + (ONE,)) if c > 0 else second.eval(body + (ZERO,))
        return second.eval(body + ((t - c) / (ONE - c),))

    return PLCube.from_function(bps, value, first.target)


def split(cube: PLCube, level):
    """Cut a cube into two fitting factors at a constant level, inverse to
    concat_f: concatenating the pair at the same level gives the cube back
    as a map.

    The level must be constant.  In dimension 2 and up it must also sit on
    the cube's last-axis grid (or the cube must be independent of its last
    coordinate): cutting through the interior of a grid cell would need a
    regridding, and regridded Kuhn data is a different map.  Dimension-1
    cubes split anywhere; one-dimensional interpolation survives
    restriction.
    """
    i = cube.dim
    if i == 0:
        raise GeometryError("0-cubes have no last coordinate to split along")
    if isinstance(level, PLCube):
        c = constant_level(level)
        if c is None:
            raise GeometryError("split needs a constant level")
    else:
        c = _frac(level)
    if not ZERO <= c <= ONE:
        raise GeometryError(f"split level {c} outside [0, 1]")
    lastbp = cube.breakpoints[-1]
    if not (i == 1 or c in lastbp or i in cube.degenerate_axes()):
        raise GeometryError("the split level must lie on the cube's last-axis grid")
    body = cube.breakpoints[:-1]
    if c > 0:
        lowb = sorted({b / c for b in lastbp if b <= c} | {ZERO, ONE})
    else:
        lowb = [ZERO, ONE]
    lower = PLCube.from_function(
        body + (tuple(lowb),),
        lambda pt: cube.eval(pt[:-1] + (c * pt[-1],)), cube.target)
    if c < 1:
        highb = sorted({(b - c) / (ONE - c) for b in lastbp if b >= c} | {ZERO, ONE})
    else:
        highb = [ZERO, ONE]
    upper = PLCube.from_function(
        body + (tuple(highb),),
        lambda pt: cube.eval(pt[:-1] + (c + (ONE - c) * pt[-1],)), cube.target)
    return lower, upper


def _insert(pt, k, v):
    # 1-indexed slot k
    return pt[:k - 1] + (v,) + pt[k - 1:]


def _clampsum(pt, threshold=ONE):
    """Project the last two coordinates onto their clamped sum.  A 1-point
    collapses to the empty point (the arity-0 case of the same family)."""
    if len(pt) == 1:
        return ()
    s = pt[-2] + pt[-1]
    return pt[:-2] + (s if s <= threshold else threshold,)


def _shrink(pt, k, center=HALF):
    """Pull coordinates k and k+1 toward the center by the last coordinate,
    which is consumed as the homotopy parameter."""
    body, lam = list(pt[:-1]), pt[-1]
    body[k - 1] = center + (ONE - lam) * (body[k - 1] - center)
    body[k] = center + (ONE - lam) * (body[k] - center)
    return tuple(body)


class HomotopyCertificate(NamedTuple):
    ok: bool
    checks: tuple          # names of the identities probed
    failures: tuple        # (name, witness point) pairs

    def __bool__(self):
        return self.ok


_STOCK = (ZERO, Fraction(1, 3), HALF, Fraction(3, 4), ONE)
_decided = {}  # decide-step verdicts, see _certify


def _probe_axes(dim, *cubes):
    """Per-axis probe values: a fixed stock of rationals plus every nearby
    breakpoint (own axis and the next, since face insertions shift axes)."""
    axes = []
    for a in range(dim):
        vals = set(_STOCK)
        for cube in cubes:
            for b in (a, a + 1):
                if b < cube.dim:
                    vals.update(cube.breakpoints[b])
        axes.append(sorted(vals))
    return axes


def _agree_in_cube(p, q, live) -> bool:
    return (all(ZERO <= x <= ONE for x in p + q)
            and all(p[a] == q[a] for a in live))


def _certify(family, identities, axes, decide) -> HomotopyCertificate:
    """Decide identities (name, component, phi, psi): the component must
    take one value at phi(t) and psi(t) for every t in [0, 1]^n.  A Kuhn
    interpolation does not depend on an axis its lattice values do not
    vary along, so the identity holds at t when phi(t) and psi(t) lie in
    the cube and agree on the live axes (those not in degenerate_axes).
    When that holds on decide^n it holds on [0, 1]^n, and the probe grid
    ``axes`` is not walked:

    * box_dot decides on the corners (0, 1): its maps are multilinear.
    * box_slash decides on {0, 1, thr, thr - 1} cut to [0, 1]: each
      coordinate of its maps is t_j, a constant or min(a + b, thr), so
      they are affine on the cells cut out of [0, 1]^n by at most two
      hyperplanes t_a + t_b = thr or t_a = thr - e, e in {0, 1}, and
      solving any tight constraints gives every vertex of that
      arrangement coordinates in {0, 1, thr, thr - 1}.

    Maps affine on a cell (or multilinear on the cube) agree on it when
    they agree at its vertices, and their coordinates take their extremes
    there.  Otherwise the grid is walked, and the first t where the
    values differ, or where either point leaves the unit cube, is the
    failure witness; an identity whose maps differ on a live axis while
    its values agree there passes as a probe sample, not a decision.  The
    decide step reads no value of the component, so its verdict is kept
    by (family parameters, index, dimension, live axes) and shared."""
    checks = []
    failures = []
    for index, (name, component, phi, psi) in enumerate(identities):
        checks.append(name)
        live = tuple(a for a in range(component.dim)
                     if a + 1 not in component.degenerate_axes())
        key = (family, index, component.dim, live)
        if key not in _decided:
            _decided[key] = all(_agree_in_cube(phi(t), psi(t), live)
                                for t in product(decide, repeat=component.dim))
        if _decided[key]:
            continue
        for t in product(*axes[:component.dim]):
            p, q = phi(t), psi(t)
            if _agree_in_cube(p, q, live):
                continue
            try:
                holds = component.eval(p) == component.eval(q)
            except GeometryError:
                holds = False
            if not holds:
                failures.append((name, t))
                break
    return HomotopyCertificate(ok=not failures, checks=tuple(checks),
                               failures=tuple(failures))


def box_slash(cube: PLCube, level, *, clamp_threshold=1) -> HomotopyCertificate:
    """Certify the face identities of the sum-clamp collapse.

    The collapse precomposes a pair (cube of dimension i, level on the
    (i-1)-cube) with the projection replacing the last two coordinates by
    their sum clamped at 1, giving a pair one dimension up.  Each identity
    is decided on the vertices of the clamp arrangement (see _certify):

    * the inserted-zero face restores the pair (both components);
    * the inserted-one face is degenerate (both components);
    * the collapse commutes with the remaining face maps, k <= i-1, on
      both components.

    The last family genuinely fails on the level side at k = i-1 whenever
    the level varies; certificates report that, with a probe-grid witness,
    rather than paper over it (constant levels pass everything).
    ``clamp_threshold`` moves the clamp away from 1 as a negative control:
    any other threshold breaks the restore identity on any cube that
    depends on its last coordinate.
    """
    i = cube.dim
    if i == 0:
        raise GeometryError("the collapse needs a cube of dimension at least 1")
    level = _as_level(i - 1, level)
    _require_unit_range(level)
    thr = _frac(clamp_threshold)
    # one family of domain-map pairs, stated for either component
    family = [
        ("zero face restores the {}",
         lambda t: _clampsum(_insert(t, i, ZERO), thr), lambda t: t),
        ("one face is degenerate ({} side)",
         lambda t: _clampsum(_insert(t, i, ONE), thr),
         lambda t: t[:-1] + (ONE,)),
    ]
    for k in range(1, i):
        for eps in (ZERO, ONE):
            family.append((f"face {k}({eps}) commutes ({{}} side)",
                           lambda t, k=k, e=eps: _clampsum(_insert(t, k, e), thr),
                           lambda t, k=k, e=eps: _insert(_clampsum(t, thr), k, e)))
    components = ((cube, "cube"), (level, "level")) if i >= 2 else ((cube, "cube"),)
    return _certify(("box_slash", i, thr),
                    [(name.format(side), component, phi, psi)
                     for component, side in components
                     for name, phi, psi in family],
                    _probe_axes(i, cube, level),
                    [v for v in {ZERO, ONE, thr, thr - ONE} if ZERO <= v <= ONE])


def box_dot(cube: PLCube, k: int, *, center=HALF) -> HomotopyCertificate:
    """Certify the face identities of the shrink-to-center homotopy on the
    transposed axis pair (k, k+1).

    The homotopy pulls coordinates k and k+1 toward the center point by the
    appended last coordinate.  The identities:

    * the parameter-zero face restores the cube;
    * the parameter-one face is the cube frozen at the center of the (k,
      k+1)-square, a degenerate cube;
    * the homotopy commutes with the face maps of every other axis.

    Each is a pair of domain maps of degree at most one in every
    coordinate, so the 2^n corners of the cube decide it (see _certify);
    an identity they refute gets its witness from the probe grid.

    ``center`` is the negative-control knob: the reference face is pinned
    at (1/2, 1/2), so any other center in [0, 1] fails exactly the
    parameter-one check on cubes that depend on those axes.  A center
    outside [0, 1] also pulls the commuting faces out of the cube.
    """
    i = cube.dim
    _require_int("axis k", k)
    if not 1 <= k <= i - 1:
        raise GeometryError(
            f"axis {k} out of range for transposition in a {i}-cube")
    c = _frac(center)
    identities = [
        ("zero face restores the cube", cube,
         lambda t: _shrink(t + (ZERO,), k, c), lambda t: t),
        ("one face lands on the center-degenerate cube", cube,
         lambda t: _shrink(t + (ONE,), k, c),
         lambda t: t[:k - 1] + (HALF, HALF) + t[k + 1:]),
    ]
    for j in range(1, i + 1):
        if j in (k, k + 1):
            continue
        shifted = k - 1 if j < k else k
        for eps in (ZERO, ONE):
            identities.append((f"face {j}({eps}) commutes", cube,
                               lambda t, j=j, e=eps: _shrink(_insert(t, j, e), k, c),
                               lambda t, j=j, e=eps, kk=shifted:
                               _insert(_shrink(t, kk, c), j, e)))
    return _certify(("box_dot", i, k, c), identities, _probe_axes(i, cube), (ZERO, ONE))


def transpose_cancellation(cube: PLCube, k: int) -> bool:
    """The cancellation behind the transposition subcomplex: for both sides
    eps, the signed k-face of the cube annihilates the signed (k+1)-face of
    its k-transposition.  The two signs (-1)**(k + eps) and
    (-1)**(k + 1 + eps) are opposite, so the pair cancels when the faces
    are equal or both degenerate (zero in the normalized chains)."""
    t = transpose(cube, k)
    for eps in (0, 1):
        f, g = face(cube, k, eps), face(t, k + 1, eps)
        if f != g and not (f.is_degenerate and g.is_degenerate):
            return False
    return True


class QuotientComparison(NamedTuple):
    """Homology of the span of a family next to the homology of the span
    divided by its concatenation and transposition relations, both graded
    positively."""
    plain: dict
    quotient: dict
    concat_relations: int
    transpose_relations: int

    @property
    def agree(self) -> bool:
        """The same groups in every degree, a missing degree being zero."""
        def groups(h):
            return {n: (s.rank, s.torsion) for n, s in h.items()
                    if s.rank or s.torsion}
        return groups(self.plain) == groups(self.quotient)


def _find_generator(cube, gens, index):
    # structural hit first, then map equality (a cube may reappear on a
    # different grid); cache the alias either way
    j = index.get(cube)
    if j is not None:
        return j
    for j, g in enumerate(gens):
        if pl_equal(g, cube):
            index[cube] = j
            return j
    return None


def _resolve(cube, gens, index):
    """The generator matching cube as a map; a cube matching none joins
    the generators of its dimension, and its faces are resolved next."""
    gs, ix = gens[cube.dim], index[cube.dim]
    j = _find_generator(cube, gs, ix)
    if j is None:
        j = ix[cube] = len(gs)
        gs.append(cube)
        for _, _, f in _signed_faces(cube):
            _resolve(f, gens, index)
    return gs[j]


def quotient_homology_compare(family) -> QuotientComparison:
    """Compare the homology of the chain complex spanned by a face-closed
    cube family with the homology after dividing out the concatenation and
    transposition relations among its members.

    Relations enumerated (never discovered): for every ordered fitting pair
    of same-dimension nondegenerate members, first + second minus their
    concatenation at the constant level 1/2; for every member and adjacent
    axis pair, the member plus its transposition.  Derived cubes that match
    no generator as maps extend the basis, along with their faces.  The
    complex on all generators is built once: the span is its restriction
    to the members, and exactalg.quotient_homology divides out the
    relations, so torsion is respected.
    """
    cubes = list(family.cubes) if isinstance(family, CubeFamily) else list(family)
    if not cubes:
        raise ValueError("empty family")
    if len({c.target for c in cubes}) > 1:
        raise GeometryError("family mixes targets")
    if len({c.ambient for c in cubes}) > 1:
        raise GeometryError("family mixes ambient dimensions")
    members = list(dict.fromkeys(c for c in cubes if not c.is_degenerate))
    if not members:
        raise ValueError("family has no nondegenerate cubes")
    # the generators by dimension, every dimension up to the top listed;
    # members first, derived cubes appended as the relations resolve them
    top = max(c.dim for c in members)
    by_dim = {n: [c for c in members if c.dim == n] for n in range(top + 1)}
    gens = {n: list(gs) for n, gs in by_dim.items()}
    index = {n: {c: j for j, c in enumerate(gs)} for n, gs in gens.items()}

    def faces(cube):
        # the one face rule: each nondegenerate face, matched to a generator
        # one dimension down, with sign (-1)**(k + eps)
        gs, ix = gens[cube.dim - 1], index[cube.dim - 1]
        out = {}
        for k, eps, f in _signed_faces(cube):
            j = _find_generator(f, gs, ix)
            if j is None:
                raise ValueError(f"family not face-closed: face {k}({eps}) of a "
                                 f"{cube.dim}-cube has no match")
            out[gs[j]] = out.get(gs[j], 0) + (-1) ** (k + eps)
        return out

    for n in range(1, top + 1):  # the members, before a relation adds a face
        for c in by_dim[n]:
            faces(c)

    def relation(*terms):
        vec = {}
        for cube, coeff in terms:
            if not cube.is_degenerate:  # zero in the normalized chains
                g = _resolve(cube, gens, index)
                vec[g] = vec.get(g, 0) + coeff
        return vec

    relations = {}
    concat_count = 0
    transpose_count = 0
    for n in range(1, top + 1):
        rels = relations[-n] = []
        for a, b in product(by_dim[n], repeat=2):
            if fits(a, b):
                rels.append(relation((a, 1), (b, 1), (concat_f(a, b, HALF), -1)))
                concat_count += 1
        for m in by_dim[n]:
            for k in range(1, n):
                rels.append(relation((m, 1), (transpose(m, k), 1)))
                transpose_count += 1

    whole = FreeComplex.from_basis({-n: gens[n] for n in gens}, faces)
    plain = whole.restrict({-n: by_dim[n] for n in by_dim})
    return QuotientComparison(
        plain=_positive_grading(homology(plain)),
        quotient=_positive_grading(quotient_homology(whole, relations)),
        concat_relations=concat_count, transpose_relations=transpose_count)


class CubeFamily(NamedTuple):
    """A named, realized cube family as carried by fixtures."""
    name: str
    realization: Realization
    cubes: tuple
    labels: tuple


def parse_cube_family(document) -> CubeFamily:
    """Parse a cube family fixture.

    The document is a simplicial complex document (name, vertices, facets)
    with two extra sections: ``coordinates`` maps each vertex (as a string
    key) to a rational point, and ``cubes`` lists {name, breakpoints,
    values} tables with rationals written as 'p/q' strings.  Rejections name
    the offending location.
    """
    data = _decode(document)
    cx = parse_complex(data)
    coords = data.get("coordinates")
    if not isinstance(coords, dict):
        raise ParseError("coordinates: missing section")
    for v in cx.vertices:
        if str(v) not in coords:
            raise ParseError(f"coordinates: missing vertex {v}")
    try:
        realization = Realization(cx, {v: coords[str(v)] for v in cx.vertices})
    except GeometryError as e:
        raise ParseError(f"coordinates: {e}") from None
    entries = data.get("cubes")
    if not isinstance(entries, list):
        raise ParseError("cubes: missing section")
    cubes = []
    labels = []
    for pos, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise ParseError(f"cubes[{pos}]: must be an object")
        for key in ("name", "breakpoints", "values"):
            if key not in entry:
                raise ParseError(f"cubes[{pos}]: missing key {key!r}")
        label = entry["name"]
        if not isinstance(label, str) or not label:
            raise ParseError(f"cubes[{pos}]: name must be a nonempty string")
        if label in labels:
            raise ParseError(f"cubes[{pos}]: duplicate cube name {label!r}")
        if not isinstance(entry["breakpoints"], list) or \
                not all(isinstance(ax, list) for ax in entry["breakpoints"]):
            raise ParseError(f"cubes[{pos}] ({label}): breakpoints must be a "
                             f"list of per-axis lists")
        if not isinstance(entry["values"], list):
            raise ParseError(f"cubes[{pos}] ({label}): values must be a list")
        pairs = []
        for vpos, pair in enumerate(entry["values"]):
            if not (isinstance(pair, list) and len(pair) == 2
                    and isinstance(pair[0], list) and isinstance(pair[1], list)):
                raise ParseError(
                    f"cubes[{pos}] ({label}): values[{vpos}] must be an "
                    f"[index, point] pair")
            pairs.append((tuple(pair[0]), tuple(pair[1])))
        try:
            cubes.append(PLCube(entry["breakpoints"], pairs, realization))
        except GeometryError as e:
            raise ParseError(f"cubes[{pos}] ({label}): {e}") from None
        labels.append(label)
    return CubeFamily(name=cx.name, realization=realization,
                      cubes=tuple(cubes), labels=tuple(labels))


def serialize_cube_family(family: CubeFamily) -> str:
    """Canonical fixture text: fixed key order, two-space indent, rationals
    as strings, one trailing newline.  parse . serialize is the identity."""
    cx = family.realization.complex
    doc = {
        "name": family.name,
        "vertices": list(cx.vertices),
        "facets": [list(f) for f in cx.facets],
        "coordinates": {
            str(v): [str(x) for x in family.realization.coordinates[v]]
            for v in cx.vertices},
        "cubes": [
            {"name": label,
             "breakpoints": [[str(b) for b in axis] for axis in cube.breakpoints],
             "values": [[list(idx), [str(x) for x in p]]
                        for idx, p in cube.lattice()]}
            for label, cube in zip(family.labels, family.cubes)],
    }
    return json.dumps(doc, indent=2) + "\n"


def load_cube_family(path) -> CubeFamily:
    with open(path, encoding="utf-8") as handle:
        return parse_cube_family(handle.read())


def random_cube(rng, dim: int, ambient: int = 2) -> PLCube:
    """A pseudo-random cube for stress tests: up to two interior breakpoints
    per axis, small rational values, no target.  Deterministic in the rng."""
    pool = [Fraction(1, 4), Fraction(1, 3), HALF, Fraction(2, 3), Fraction(3, 4)]
    bps = []
    for _ in range(dim):
        extra = sorted(rng.sample(pool, rng.randint(0, 2)))
        bps.append((ZERO, *extra, ONE))
    vals = {}
    for idx in product(*(range(len(ax)) for ax in bps)):
        vals[idx] = tuple(Fraction(rng.randint(-6, 6), rng.choice((1, 2, 3)))
                          for _ in range(ambient))
    return PLCube(tuple(bps), vals)


def random_level(rng, dim: int, *, constant: bool = False) -> PLCube:
    """A pseudo-random level on the dim-cube with values in [0, 1]."""
    if constant:
        return PLCube.constant(dim, (Fraction(rng.randint(1, 3), 4),))
    bps = ((ZERO, ONE),) * dim
    vals = {idx: (Fraction(rng.randint(0, 8), 8),)
            for idx in product((0, 1), repeat=dim)}
    return PLCube(bps, vals)
