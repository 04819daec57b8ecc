"""Per-layer spans and counters, taken from outside the program.

The traced run replaces each public function named in ``FUNCTIONS`` with
a wrapper, everywhere the function is bound: in its defining module,
under every ``from .x import y`` alias in the other loopchains modules,
as a class attribute, and in the ``cli.SUITES`` table.  Every binding is
put back by ``Tracer.restore``.

Span names are ``<module>.<qualname>``; the metrics are
``<name>.calls``, ``<name>.self_s`` (span time minus the time of child
spans) and ``<name>.total_s`` (outermost calls only, so recursion is not
counted twice).  Spans read the clock they are given: in traced runs
the scaled clock of ``meter.py``.  A later in-program trace should
reuse these names.

A count-only tracer (``timed=False``) keeps calls and counters but reads
no clock, and also counts the hot ``weight`` lookups the enumerators
make: millions of timed wrappers there would swamp the self times.
"""

import sys
import time
from collections import Counter, defaultdict
from dataclasses import replace

import workloads

WORKLOADS = tuple(workloads.WORKLOADS)
HH, RES, HOM, REPORT = WORKLOADS  # in the order workloads.py defines them


def _count_len(name):
    def count(counters, result, args):
        counters[name] += len(result)
    return count


def _count_snf(counters, result, args):
    m = args[0]
    counters["exactalg.snf_nnz"] += len(m.entries)
    counters["exactalg.snf_max_dim"] = max(counters["exactalg.snf_max_dim"],
                                           m.rows, m.cols)
    entries = [*result.diagonal]
    for transform in (result.left, result.right):
        if transform is not None:  # transforms may become optional
            entries.extend(transform.entries.values())
    bits = max((abs(v).bit_length() for v in entries), default=0)
    counters["exactalg.snf_max_bits"] = max(counters["exactalg.snf_max_bits"],
                                            bits)


def _count_attr(name, attr):
    def count(counters, result, args):
        counters[name] += getattr(result, attr)
    return count


# (module, qualname, workloads on which it must record a call, counter)
FUNCTIONS = (
    ("simpcx", "load_complex", WORKLOADS, None),
    ("simpcx", "collapse", WORKLOADS, None),
    ("cobarloop", "LoopAlgebra.basis", (RES,), _count_len("cobarloop.words")),
    ("cobarloop", "word_boundary", (RES,),
     _count_len("cobarloop.boundary_terms")),
    ("cobarloop", "dga_differential", (RES,),
     _count_len("cobarloop.boundary_terms")),
    ("cobarloop", "based_loop_complex", (HOM,), None),
    ("cobarloop", "verify_T_chain_map", (RES,), None),
    ("hochschild", "cyclic_words", (HH,), _count_len("hochschild.words")),
    ("hochschild", "hochschild_b", (HH,), None),
    ("hochschild", "hh_truncated", (HH,), None),
    ("exactalg", "smith_normal_form", (HOM, HH), _count_snf),
    ("exactalg", "homology", (HOM, HH), None),
    ("exactalg", "validate_complex", (HOM, HH), None),
    ("freeloop", "verify_G_chain_map", (RES, REPORT),
     _count_attr("freeloop.words_checked", "words_checked")),
    ("freeloop", "g_residual", (RES, REPORT), None),
    ("freeloop", "goodwillie_G", (RES, REPORT), None),
    ("freeloop", "loop_boundary", (RES, REPORT), None),
    ("freeloop", "normalize", (RES, REPORT), None),
    ("signkoszul", "sweep_identity", (REPORT,),
     _count_attr("signkoszul.cases", "total")),
    ("boxquot", "box_slash", (REPORT,), None),
    ("boxquot", "box_dot", (REPORT,), None),
    ("boxquot", "PLCube.eval", (REPORT,), None),
    ("boxquot", "pl_equal", (REPORT,), None),
    ("boxquot", "quotient_homology_compare", (REPORT,), None),
    ("cli", "resolve_conventions", (REPORT,), None),
)

SUITES = ("ledger", "signs", "cobar", "t_chain_map", "hochschild",
          "freeloop", "s1", "boxquot")

COUNTERS = ("cobarloop.words", "cobarloop.boundary_terms", "hochschild.words",
            "exactalg.snf_nnz", "exactalg.snf_max_dim",
            "exactalg.snf_max_bits", "freeloop.words_checked",
            "signkoszul.cases")

# Hot counters of the count-only pass: the weight lookups an enumerator
# makes.  While the enumerator runs, the looked-up function is swapped
# for a counting one, so lookups from anywhere else cost nothing extra.
# enumerator span -> (counter, where the lookup is bound, given the
# enumerator's arguments)
WEIGHT_LOOKUPS = {
    "cobarloop.LoopAlgebra.basis": (
        "cobarloop.weight_calls",
        lambda args: (sys.modules["loopchains.cobarloop"], "letter_weight")),
    "hochschild.cyclic_words": (
        "hochschild.weight_calls", lambda args: (type(args[0]), "weight")),
}

# Words returned per weight lookup: 1.0 would be an enumerator that
# looks up one weight per word it keeps.
WASTE = (("cobarloop.words_per_weight_call", "cobarloop.words",
          "cobarloop.weight_calls"),
         ("hochschild.words_per_weight_call", "hochschild.words",
          "hochschild.weight_calls"))


def span_names():
    return [f"{module}.{qualname}" for module, qualname, _, _ in FUNCTIONS]


def expected_spans(workload):
    spans = [f"{module}.{qualname}" for module, qualname, where, _
             in FUNCTIONS if workload in where]
    if workload == REPORT:
        spans += [f"cli.suite.{name}" for name in SUITES]
    return spans


def metric_units():
    """Every per-layer metric the traced run reports, with its unit."""
    units = {}
    for span in span_names():
        units[f"{span}.calls"] = "count"
        units[f"{span}.self_s"] = "s"
        units[f"{span}.total_s"] = "s"
    for name in SUITES:
        units[f"cli.suite.{name}.total_s"] = "s"
    for name in COUNTERS:
        units[name] = "bits" if name.endswith("bits") else "count"
    for name, _ in WEIGHT_LOOKUPS.values():
        units[name] = "count"
    for name, _, _ in WASTE:
        units[name] = "ratio"
    units["trace.wall_s"] = "s"
    units["trace.overhead_s"] = "s"
    return units


def _counting(counters, counter, fn):
    def counting(*args, **kwargs):
        counters[counter] += 1
        return fn(*args, **kwargs)
    return counting


def _package_modules():
    return [m for name, m in sys.modules.items()
            if name.startswith("loopchains.") and m is not None]


def _resolve(module, qualname):
    owner = sys.modules[f"loopchains.{module}"]
    *outer, attr = qualname.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


class Tracer:
    """Wraps the functions of ``FUNCTIONS`` and records spans or counts."""

    def __init__(self, timed: bool, clock=time.perf_counter):
        self.timed = timed
        self.clock = clock
        self.stats = defaultdict(lambda: [0, 0.0, 0.0])  # calls, total, self
        self.counters = Counter()
        self._depth = Counter()
        self._children = []  # child-span time of each open span
        self._patches = []   # (module, class or dict; key; original object)

    # -- installation ---------------------------------------------------------

    def install(self):
        """Wrap every binding.  A name the program no longer has is
        skipped; the self-test then reports that it recorded no call."""
        for module, qualname, _, count in FUNCTIONS:
            name = f"{module}.{qualname}"
            try:
                owner, attr = _resolve(module, qualname)
                original = vars(owner)[attr]
            except (AttributeError, KeyError):
                continue
            wrapper = self._wrap(name, original, count)
            if isinstance(owner, type):
                self._patch(owner, attr, wrapper)
            else:
                for mod in _package_modules():
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, key, wrapper)
        suites = sys.modules["loopchains.cli"].SUITES
        for name in SUITES:
            suite = suites.get(name)
            if suite is not None:
                self._patches.append((suites, name, suite))
                suites[name] = replace(suite, run=self._wrap(
                    f"cli.suite.{name}", suite.run, None))

    def _patch(self, owner, key, wrapper):
        self._patches.append((owner, key, vars(owner)[key]))
        setattr(owner, key, wrapper)

    def restore(self) -> bool:
        """Put every binding back; True when each is its original object."""
        for owner, key, original in reversed(self._patches):
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)
        return all((owner if isinstance(owner, dict) else vars(owner))[key]
                   is original for owner, key, original in self._patches)

    # -- wrappers -------------------------------------------------------------

    def _wrap(self, name, fn, count):
        if self.timed:
            return self._timed(name, fn, count)
        if name in WEIGHT_LOOKUPS:
            fn = self._count_lookups(name, fn)
        stats, counters = self.stats[name], self.counters

        def counted(*args, **kwargs):
            stats[0] += 1
            result = fn(*args, **kwargs)
            if count is not None:
                count(counters, result, args)
            return result
        return counted

    def _count_lookups(self, name, fn):
        """``fn`` with the weight lookups it makes counted."""
        counter, lookup = WEIGHT_LOOKUPS[name]
        counters = self.counters

        def lookups_counted(*args, **kwargs):
            owner, attr = lookup(args)
            original = vars(owner).get(attr)
            if original is None:  # inherited or gone: nothing to swap
                return fn(*args, **kwargs)
            setattr(owner, attr, _counting(counters, counter, original))
            try:
                return fn(*args, **kwargs)
            finally:
                setattr(owner, attr, original)
        return lookups_counted

    def _timed(self, name, fn, count):
        stats, counters, depth = self.stats[name], self.counters, self._depth
        children, clock = self._children, self.clock

        def timed(*args, **kwargs):
            start = clock()
            children.append(0.0)
            depth[name] += 1
            try:
                result = fn(*args, **kwargs)
                if count is not None:
                    count(counters, result, args)
            finally:
                elapsed = clock() - start
                depth[name] -= 1
                stats[0] += 1
                stats[2] += elapsed - children.pop()
                if not depth[name]:
                    stats[1] += elapsed
                if children:
                    children[-1] += elapsed
            return result
        return timed

    # -- results --------------------------------------------------------------

    def metrics(self):
        out = {}
        for span in span_names():
            calls, total, self_s = self.stats[span]
            out[f"{span}.calls"] = calls
            if self.timed:
                out[f"{span}.self_s"] = self_s
                out[f"{span}.total_s"] = total
        if self.timed:
            for name in SUITES:
                span = f"cli.suite.{name}"
                out[f"{span}.total_s"] = self.stats[span][1]
        for name in COUNTERS:
            out[name] = self.counters[name]
        if not self.timed:
            for name, words, calls in WASTE:
                out[calls] = self.counters[calls]
                out[name] = (self.counters[words] / self.counters[calls]
                             if self.counters[calls] else 0.0)
        return out

    def called(self):
        return {name for name, (calls, _, _) in self.stats.items() if calls}
