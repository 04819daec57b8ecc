"""The four benchmark workloads and the pinned verdicts that check them.

Every workload calls loopchains' public API on the committed fixtures
under the committed conventions ledger.  A workload is a tuple of
checks; each check makes one call and compares what it returns with a
value pinned at the commit that defined the benchmark.  The calls are
fixed; the benchmark seed only sets the string-hash seed of each run,
and no verdict may depend on it.  ``report`` takes its own seed, 7
unless asked otherwise: its cost depends on that seed about threefold,
and only seed 7 has golden bytes.

This module imports loopchains only inside functions, so ``run.py``
can count the checks without loading the package.
"""

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
FIXTURES = ROOT / "fixtures"
GOLDEN = Path(__file__).resolve().parent / "golden"
COMPLEXES = ("s1_3", "boundary_delta3", "torus_7", "rp2")
GOLDEN_SEED = 7


class Check:
    """One call into loopchains and the verdict it must return.

    ``call(inputs)`` returns a JSON-able value; ``expect`` is that value,
    or a predicate ``expect(got)`` where a pinned value cannot exist
    (report bytes at seeds other than the golden one).
    """

    def __init__(self, label, call, expect):
        self.label = label
        self.call = call
        self.expect = expect

    def judge(self, got) -> bool:
        if callable(self.expect):
            return self.expect(got)
        return got == self.expect


def layout_problem():
    """Why the checkout cannot be benchmarked, or None when it can."""
    for need in (SRC / "loopchains" / "__init__.py",
                 FIXTURES / "conventions.ledger",
                 *(FIXTURES / f"{name}.json" for name in COMPLEXES)):
        if not need.is_file():
            return f"missing {need.relative_to(ROOT)}"
    return None


def import_package():
    """Import every loopchains module from this checkout's ``src``."""
    sys.path.insert(0, str(SRC))
    import loopchains.cli  # imports every other module of the package
    origin = Path(loopchains.__file__).resolve()
    if SRC not in origin.parents:
        raise ImportError(f"loopchains came from {origin}, not from {SRC}")


class Inputs:
    """Everything a workload needs before its first timed call."""

    def __init__(self, report_seed=GOLDEN_SEED):
        from loopchains.conventions import parse_ledger
        from loopchains.simpcx import collapse, load_complex
        self.conv = parse_ledger((FIXTURES / "conventions.ledger").read_text())
        self.collapsed = {
            name: collapse(load_complex(FIXTURES / f"{name}.json"))
            for name in COMPLEXES}
        self.report_seed = report_seed


# -- hh-capped: truncated cyclic homology, enumeration-bound ------------------

HH_CAPPED = (("s1_3", 3, 4), ("boundary_delta3", 3, 9),
             ("boundary_delta3", 4, 16), ("torus_7", 2, 122), ("rp2", 2, 56))


def _hh(name, cap):
    def call(inputs):
        from loopchains.cobarloop import LoopAlgebra
        from loopchains.hochschild import hh_truncated
        conv = inputs.conv
        r = hh_truncated(LoopAlgebra(inputs.collapsed[name], conv), 0, cap,
                         arity=conv.hochschild_arity)
        return [r.summary.rank, list(r.summary.torsion), r.stabilized]
    return call


# -- loop-residuals: d^2, T and G residuals, assembly-bound -------------------

def _d_squared(name, cap):
    def call(inputs):
        from loopchains.cobarloop import (dga_differential, loop_words,
                                          word_boundary)
        cc, conv = inputs.collapsed[name], inputs.conv
        words = loop_words(cc, cap, conv)
        bad = sum(1 for w in words
                  if dga_differential(cc, word_boundary(cc, w, conv), conv))
        return [len(words), bad]
    return call


def _t_map(name):
    def call(inputs):
        from loopchains.cobarloop import verify_T_chain_map
        v = verify_T_chain_map(inputs.collapsed[name], inputs.conv,
                               max_weight=6)
        return [v.ok, v.corners_balanced, len(v.cells)]
    return call


def _g_map(inputs):
    from loopchains.cobarloop import LoopAlgebra
    from loopchains.freeloop import verify_G_chain_map
    conv = inputs.conv
    v = verify_G_chain_map(LoopAlgebra(inputs.collapsed["rp2"], conv), conv,
                           max_len=2, max_weight=3)
    return [v.ok, v.words_checked]


# -- loop-homology: homology of the capped loop complex, SNF-bound ------------

def _loop_homology(name):
    def call(inputs):
        from loopchains import exactalg
        from loopchains.cobarloop import based_loop_complex
        model = based_loop_complex(inputs.collapsed[name], 3, inputs.conv)
        table = exactalg.homology(model.complex)
        return [model.word_count(),
                {str(n): [h.rank, list(h.torsion)]
                 for n, h in sorted(table.items())}]
    return call


# -- report: the command users run --------------------------------------------

def _report(fmt):
    def call(inputs):
        from loopchains import cli
        seed = inputs.report_seed
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc = cli.main(["--fixtures", str(FIXTURES), "report",
                           "--seed", str(seed), "--format", fmt])
        text = out.getvalue()
        got = {"rc": rc, "seed": seed,
               "sha256": hashlib.sha256(text.encode()).hexdigest()}
        if seed == GOLDEN_SEED:
            golden = (GOLDEN / f"report-seed{GOLDEN_SEED}.{fmt}").read_text()
            got["golden"] = text == golden
        elif fmt == "json":
            payload = json.loads(text)
            got["ok"] = payload["ok"]
            got["artifact_bugs"] = payload["artifact_bugs"]
        else:
            got["artifact_bugs_line"] = \
                "  artifact bugs: 0" in text.splitlines()
        return got
    return call


def _report_ok(got):
    if got["rc"] != 0:
        return False
    if got["seed"] == GOLDEN_SEED:
        return got["golden"]
    if "ok" in got:
        return got["ok"] is True and got["artifact_bugs"] == 0
    return got["artifact_bugs_line"]


WORKLOADS = {
    "hh-capped": tuple(
        Check(f"hh {name} w={cap}", _hh(name, cap), [rank, [], False])
        for name, cap, rank in HH_CAPPED),
    "loop-residuals": (
        Check("d2 torus_7 w=4", _d_squared("torus_7", 4), [64321, 0]),
        Check("d2 rp2 w=5", _d_squared("rp2", 5), [157421, 0]),
        Check("T torus_7 w=6", _t_map("torus_7"), [True, True, 29]),
        Check("T rp2 w=6", _t_map("rp2"), [True, True, 20]),
        Check("G rp2 len=2 w=3", _g_map, [True, 3621]),
    ),
    "loop-homology": (
        Check("H rp2 w=3", _loop_homology("rp2"),
              [1321, {"-1": [25, []], "0": [926, []]}]),
        Check("H torus_7 w=3", _loop_homology("torus_7"),
              [4050, {"-1": [37, []], "0": [3219, []]}]),
    ),
    "report": (
        Check("report tsv", _report("tsv"), _report_ok),
        Check("report json", _report("json"), _report_ok),
    ),
}

