"""Reference version of the sign-identity sweep, written the plain way.

``per_tuple_sweep_identity`` evaluates ``homotopy_identity_check`` on
every degrees tuple of the window, with no reuse across tuples of equal
parity.  It is slow on purpose; the tests compare ``sweep_identity``
against it.
"""

from itertools import product

from loopchains.signkoszul import IdentitySweep, homotopy_identity_check


def per_tuple_sweep_identity(d_max, degree_window):
    lo, hi = degree_window
    failures = []
    total = boundary = interior = interior_fail = 0
    for d in range(1, d_max + 1):
        for d1 in range(0, d + 1):
            d2 = d - d1
            for r in range(0, d2 + 1):
                for degrees in product(range(lo, hi + 1), repeat=d):
                    report = homotopy_identity_check(degrees, d1, r)
                    total += 1
                    if r == d2:
                        boundary += 1
                    else:
                        interior += 1
                    if not report.equal:
                        failures.append((degrees, d1, r))
                        if r < d2:
                            interior_fail += 1
    combos = tuple(sorted({(len(degs), d1, r) for degs, d1, r in failures}))
    return IdentitySweep(total=total, failures=tuple(failures),
                         failing_combos=combos, boundary_total=boundary,
                         interior_total=interior,
                         interior_failures=interior_fail)
