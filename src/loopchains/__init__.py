"""loopchains: an exact-arithmetic workbench for chain-level loop space models.

Modules
-------
exactalg    integer matrices, Smith normal form, complexes, homology
signkoszul  the sign and degree bookkeeping used by every other module
simpcx      simplicial complexes, spanning trees, collapse, homology
cobarloop   the based-loop (cobar-type) dga of a collapsed complex
hochschild  cyclic bar complex of a dga, functoriality, truncated homology
freeloop    free-loop chain model: inclusion and wedge generators, G
boxquot     piecewise linear cubes, concatenation, quotient calculus
cli         command line front end, convention ledger, verification suites

Results come back as immutable records: typing.NamedTuple classes such
as HomologySummary, ComplexVerdict and EqualityVerdict, which are
created at import without the code a dataclass generates and compiles.
Only the convention assignment (conventions.Conventions) and the suite
table entry (cli.Suite) are dataclasses, because callers derive them
with dataclasses.replace.
"""

__version__ = "0.1.0"
