"""The convention ledger: every sign or ordering choice that the chain
constructions depend on, as explicit data.

Each entry is binary.  The shipped default is the assignment certified by
the verification suites (see cli.resolve_conventions, which re-derives it
by exhaustive enumeration and aborts unless the survivor is unique).
Every consumer of a convention takes a Conventions value, so tests can
flip one entry at a time and watch the right suite fail.

Ledger file format, one entry per line:

    name = value  # certified-by: suite
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace


@dataclass(frozen=True)
class Conventions:
    # product order: does mu2(x2, x1) traverse x1 first ("path") or x2
    # first ("antipath")
    mu2_order: str = "path"
    # Leibniz prefix signs extend the differential to words using the
    # ordinary degree of the prefix, or the reduced degree
    leibniz_prefix: str = "ordinary"
    # the arity of a cyclic product block is its argument count, not the
    # printed subscript (which is off by one in the source material)
    hochschild_arity: str = "argument_count"
    # a vertex sequence is degenerate when two cyclically adjacent labels
    # agree ("cyclic"); "linear" ignores the wrap-around pair
    tau_degeneracy: str = "cyclic"
    # sign of the second-factor split terms in the pair boundary:
    # "geometric" is the cube orientation count, "printed" the published
    # formula (they differ, and only "geometric" certifies)
    pi2_bsplit_sign: str = "geometric"
    # global sign of the word terms of the T map ("corrected" carries an
    # extra (-1)^(k+1) over "printed")
    t_word_sign: str = "corrected"
    # global sign of the reversed pair terms of T ("corrected" is the
    # negative of "printed")
    t_pair2_sign: str = "corrected"
    # multipliers on the four terms of the wedge boundary, relative to
    # the geometric baseline
    wedge_sign_left: str = "plus"
    wedge_sign_right: str = "plus"
    wedge_sign_cat: str = "plus"
    wedge_sign_swap: str = "plus"
    # global parity s in the chain map identity for G
    g_parity_s: int = 0
    # the degree twist lives in G itself ("in_g") or in the wedge
    # boundary and split signs ("in_boundary"); relabeling-equivalent,
    # but everything downstream fixes one choice
    iota_twist: str = "in_g"

    def flip(self, name: str) -> "Conventions":
        """The same ledger with one binary entry toggled."""
        a, b = CHOICES[name][0]
        current = getattr(self, name)
        return replace(self, **{name: b if current == a else a})


# name -> ((value, other_value), certifying suite)
CHOICES = {
    "mu2_order": (("path", "antipath"), "cobar"),
    "leibniz_prefix": (("ordinary", "reduced"), "cobar"),
    "hochschild_arity": (("argument_count", "subscript"), "hochschild"),
    "tau_degeneracy": (("cyclic", "linear"), "t_chain_map"),
    "pi2_bsplit_sign": (("geometric", "printed"), "t_chain_map"),
    "t_word_sign": (("corrected", "printed"), "t_chain_map"),
    "t_pair2_sign": (("corrected", "printed"), "t_chain_map"),
    "wedge_sign_left": (("plus", "minus"), "freeloop"),
    "wedge_sign_right": (("plus", "minus"), "freeloop"),
    "wedge_sign_cat": (("plus", "minus"), "freeloop"),
    "wedge_sign_swap": (("plus", "minus"), "freeloop"),
    "g_parity_s": ((0, 1), "freeloop"),
    "iota_twist": (("in_g", "in_boundary"), "freeloop"),
}

DEFAULT = Conventions()


class LedgerError(ValueError):
    pass


def validate(conv: Conventions) -> Conventions:
    for f in fields(conv):
        allowed = CHOICES[f.name][0]
        if getattr(conv, f.name) not in allowed:
            raise LedgerError(
                f"{f.name}: {getattr(conv, f.name)!r} not one of {allowed}")
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
