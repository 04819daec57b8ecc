"""The convention ledger: every sign or ordering choice that the chain
constructions depend on, as explicit data.

Each entry is binary.  The shipped default is the assignment certified by
the verification suites (see cli.resolve_conventions, which re-derives it
by exhaustive enumeration and aborts unless the survivor is unique).
Every consumer of a convention takes a Conventions value, so tests can
flip one entry at a time and watch the right suite fail.

Each Conventions field states its default, its other value and the suite
that certifies it, once; CHOICES is read off the fields.

Ledger file format, one entry per line:

    name = value  # certified-by: suite
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace


def _axis(value, other, suite):
    """A binary entry: its default, its other value, its certifying suite."""
    return field(default=value, metadata={"other": other, "suite": suite})


@dataclass(frozen=True)
class Conventions:
    # product order: does mu2(x2, x1) traverse x1 first ("path") or x2
    # first ("antipath")
    mu2_order: str = _axis("path", "antipath", "cobar")
    # Leibniz prefix signs extend the differential to words using the
    # ordinary degree of the prefix, or the reduced degree
    leibniz_prefix: str = _axis("ordinary", "reduced", "cobar")
    # the arity of a cyclic product block is its argument count, not the
    # printed subscript (which is off by one in the source material)
    hochschild_arity: str = _axis("argument_count", "subscript", "hochschild")
    # a vertex sequence is degenerate when two cyclically adjacent labels
    # agree ("cyclic"); "linear" ignores the wrap-around pair
    tau_degeneracy: str = _axis("cyclic", "linear", "t_chain_map")
    # sign of the second-factor split terms in the pair boundary:
    # "geometric" is the cube orientation count, "printed" the published
    # formula (they differ, and only "geometric" certifies)
    pi2_bsplit_sign: str = _axis("geometric", "printed", "t_chain_map")
    # global sign of the word terms of the T map ("corrected" carries an
    # extra (-1)^(k+1) over "printed")
    t_word_sign: str = _axis("corrected", "printed", "t_chain_map")
    # global sign of the reversed pair terms of T ("corrected" is the
    # negative of "printed")
    t_pair2_sign: str = _axis("corrected", "printed", "t_chain_map")
    # multipliers on the four terms of the wedge boundary, relative to
    # the geometric baseline
    wedge_sign_left: str = _axis("plus", "minus", "freeloop")
    wedge_sign_right: str = _axis("plus", "minus", "freeloop")
    wedge_sign_cat: str = _axis("plus", "minus", "freeloop")
    wedge_sign_swap: str = _axis("plus", "minus", "freeloop")
    # global parity s in the chain map identity for G
    g_parity_s: int = _axis(0, 1, "freeloop")
    # the degree twist lives in G itself ("in_g") or in the wedge
    # boundary and split signs ("in_boundary"); relabeling-equivalent,
    # but everything downstream fixes one choice
    iota_twist: str = _axis("in_g", "in_boundary", "freeloop")

    def flip(self, name: str) -> "Conventions":
        """The same ledger with one binary entry toggled."""
        a, b = CHOICES[name][0]
        current = getattr(self, name)
        return replace(self, **{name: b if current == a else a})


# name -> ((value, other_value), certifying suite)
CHOICES = {f.name: ((f.default, f.metadata["other"]), f.metadata["suite"])
           for f in fields(Conventions)}

DEFAULT = Conventions()


class LedgerError(ValueError):
    pass


def validate(conv: Conventions) -> Conventions:
    for name, (allowed, _) in CHOICES.items():
        value = getattr(conv, name)
        # True and 1.0 equal 1 but would not read back from a ledger
        if value not in allowed or type(value) is not type(allowed[0]):
            raise LedgerError(f"{name}: {value!r} not one of {allowed}")
    return conv


def serialize_ledger(conv: Conventions) -> str:
    validate(conv)
    width = max(len(f.name) for f in fields(conv))
    lines = []
    for f in fields(conv):
        suite = CHOICES[f.name][1]
        lines.append(f"{f.name:<{width}} = {getattr(conv, f.name)}"
                     f"  # certified-by: {suite}")
    return "\n".join(lines) + "\n"


def parse_ledger(text: str) -> Conventions:
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise LedgerError(f"line {lineno}: expected 'name = value'")
        name, _, value = (part.strip() for part in line.partition("="))
        if name not in CHOICES:
            raise LedgerError(f"line {lineno}: unknown entry {name!r}")
        if name in values:
            raise LedgerError(f"line {lineno}: duplicate entry {name!r}")
        allowed = CHOICES[name][0]
        if isinstance(allowed[0], int):
            try:
                value = int(value)
            except ValueError:
                raise LedgerError(f"line {lineno}: {name} must be an integer")
        if value not in allowed:
            raise LedgerError(
                f"line {lineno}: {name}: {value!r} not one of {allowed}")
        values[name] = value
    missing = [name for name in CHOICES if name not in values]
    if missing:
        raise LedgerError(f"missing entries: {', '.join(missing)}")
    return Conventions(**values)
