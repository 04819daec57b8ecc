"""Reference version of the barycentric solve, written the plain way.

``solved_barycentric`` finds a point's barycentric coordinates in a
simplex of a realization with one Gauss-Jordan solve of the simplex's
coordinate rows and a row of ones, per point, with no frame kept
between calls.  It is slow on purpose; the tests compare
``Realization._barycentric``, which row-reduces each simplex once,
against it.
"""

from loopchains.boxquot import ONE, _solve_linear


def solved_barycentric(realization, simplex, point):
    """The barycentric coordinates of ``point`` in ``simplex``, or None
    when the point is off the simplex's affine hull or outside it."""
    verts = [realization.coordinates[v] for v in simplex]
    rows = [[verts[j][d] for j in range(len(verts))]
            for d in range(realization.ambient)]
    rows.append([ONE] * len(verts))
    sol = _solve_linear(rows, list(point) + [ONE])
    if sol is None or any(x < 0 for x in sol):
        return None
    return sol
