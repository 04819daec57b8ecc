"""Benchmark of loopchains on four exact-verification workloads.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S

Workloads (see ``workloads.py`` for the calls and their pinned verdicts):

  hh-capped       truncated cyclic homology; word enumeration dominates
  loop-residuals  d^2, T and G residuals; differential assembly dominates
  loop-homology   homology of the capped loop complex; the SNF dominates
  report          ``loopchains report`` in tsv and json; cube certificates
                  dominate, other layers run as many small calls

Run rules: every run of a workload is a fresh interpreter
(``worker.py``), started one at a time with nothing else running; with
``--workload all`` the workloads are interleaved round-robin across
rounds.  ``--seed`` sets every run's ``PYTHONHASHSEED``: the calls and
fixtures are fixed, and no verdict may depend on the hash order.  Rounds
repeat while another one would end less than half a round past
``--seconds``, and each end-to-end metric is the median over the runs:

  wall_s        from the workload's first call to its last verdict
  setup_s       importing loopchains, parsing the ledger, loading and
                collapsing the fixtures; also sampled by set-up-only runs
                between rounds
  peak_rss_mib  peak resident memory of the run's process

``wall_s`` and ``setup_s`` are scaled seconds: each run samples the
host's speed as it goes and scales its time to a fixed speed
(``meter.py``), because this host's speed swings by up to 2x in spells
of a few seconds.  The plain medians are printed beside them.

``--trace 1`` instead makes untraced runs for half the time, then one
run with timed spans around the public functions of every layer
(``layers.py``) and two count-only runs for the hot weight counters,
and prints the per-layer metrics; spans read the same scaled clock, and
``trace.overhead_s`` is the traced ``wall_s`` less the untraced median.
It also checks that every wrapped name recorded a call, that every
binding was restored and that every count repeats exactly: these faults
of the harness are printed as the ``selftest`` line and do not make the
program's output incorrect.  Verdicts of the traced runs that differ
from the untraced ones do.

A check whose verdict differs from its pinned value, or that raises,
counts as failed; ``fail_ratio`` is failed over attempted.  The last
line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import layers
import workloads

WORKER = Path(__file__).resolve().parent / "worker.py"
SETUP_SHARE = 0.1  # of each round's time, for set-up-only runs after it
DEADLINE_S = 170  # per workload: no run starts, or may last, past this
END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mib": "MiB"}


class Bench:
    """The runs of one benchmark invocation and what they found."""

    def __init__(self, seed, report_seed, deadline_s):
        self.seed = seed
        self.report_seed = report_seed
        self.deadline_s = deadline_s
        self.started = time.perf_counter()
        self.attempted = Counter()  # checks, by workload
        self.failed = Counter()
        self.problems = []  # wrong or missing program output
        self.selftest = []  # faults of the tracing harness itself

    def spawn(self, workload, mode):
        """One fresh-interpreter run; its JSON result, or None on a crash."""
        remaining = self.deadline_s - (time.perf_counter() - self.started)
        if remaining <= 0:
            self.problems.append(f"{workload} {mode}: out of time")
            return None
        cmd = [sys.executable, str(WORKER), "--workload", workload,
               "--report-seed", str(self.report_seed), "--mode", mode]
        env = {**os.environ, "PYTHONHASHSEED": str(self.seed % 2**32)}
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True,
                                  timeout=remaining, cwd=workloads.ROOT,
                                  env=env)
        except subprocess.TimeoutExpired:
            self.problems.append(f"{workload} {mode}: timed out")
            return None
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
            self.problems.append(f"{workload} {mode}: exit "
                                 f"{proc.returncode}: {tail[0]}")
            return None
        return json.loads(lines[-1])

    def checked_run(self, workload, mode):
        """A run of the workload's checks; failed verdicts are counted."""
        checks = len(workloads.WORKLOADS[workload])
        self.attempted[workload] += checks
        out = self.spawn(workload, mode)
        if out is None:
            self.failed[workload] += checks
            return None
        for v in out["verdicts"]:
            if not v["ok"]:
                self.failed[workload] += 1
                self.problems.append(f"{workload} {mode}: {v['label']}: "
                                     f"got {v['got']!r} {v['error'] or ''}")
        return out

    def measure(self, names, seconds):
        """Untraced runs, round-robin over ``names``, for ``seconds``.

        After each round, set-up-only runs of the first workload take a
        tenth of its time, so that set-up is sampled across the whole
        run and not only in the spell of the host at its start.
        """
        runs = {name: [] for name in names}
        setups = []
        self.spawn(names[0], "setup")  # warm-up: writes the bytecode caches
        start = time.perf_counter()
        for rounds in range(1, sys.maxsize):
            round_start = time.perf_counter()
            for name in names:
                out = self.checked_run(name, "time")
                if out is not None:
                    runs[name].append(out)
            round_end = time.perf_counter()
            while True:
                out = self.spawn(names[0], "setup")
                if out is None:
                    break
                setups.append(out)
                if time.perf_counter() - round_end \
                        >= SETUP_SHARE * (round_end - round_start):
                    break
            elapsed = time.perf_counter() - start
            if elapsed + elapsed / rounds / 2 > seconds:
                return runs, setups

    def trace(self, workload, seconds):
        """Per-layer metrics of one traced and two count-only runs."""
        untraced = self.measure([workload], seconds / 2)[0][workload]
        traced = self.checked_run(workload, "trace")
        counted = [self.checked_run(workload, "count") for _ in range(2)]
        if not untraced or traced is None or None in counted:
            return None
        want = [v["got"] for v in untraced[0]["verdicts"]]
        for name, out in (("traced", traced), ("count-only", counted[0]),
                          ("second count-only", counted[1])):
            if [v["got"] for v in out["verdicts"]] != want:
                self.problems.append(f"{workload}: {name} verdicts differ "
                                     "from the untraced ones")
            if not out["restored"]:
                self.selftest.append(f"{workload}: a wrapped binding was "
                                     f"not restored after the {name} run")
        missing = set(layers.expected_spans(workload)) - set(traced["called"])
        for name in sorted(missing):
            self.selftest.append(f"{workload}: {name} recorded no call")
        metrics = dict.fromkeys(layers.metric_units(), 0)
        metrics.update(traced["layers"])
        for name, value in counted[0]["layers"].items():
            again = [traced["layers"].get(name, value),
                     counted[1]["layers"][name]]
            if again != [value, value]:
                self.selftest.append(f"{workload}: {name} does not repeat: "
                                     f"{value} then {again}")
            metrics[name] = value
        metrics["trace.wall_s"] = traced["wall_s"]
        metrics["trace.overhead_s"] = traced["wall_s"] - statistics.median(
            r["wall_s"] for r in untraced)
        return metrics


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def end_to_end(setups, runs):
    """Median end-to-end metrics of one workload, with printable lines."""
    runs = setups + runs
    metrics, lines = {}, []
    for name, unit in (*END_TO_END.items(), ("raw_wall_s", "s"),
                       ("raw_setup_s", "s")):
        values = [r[name] for r in runs if name in r]
        median = statistics.median(values)
        q1, q3 = _quartiles(values)
        lines.append(f"{name:<13} {median:10.4f} {unit:<4} median of "
                     f"{len(values)}, quartiles {q1:.4f} .. {q3:.4f}")
        if name in END_TO_END:
            metrics[name] = median
    return metrics, lines


def layer_lines(metrics):
    """Self-time share of each layer in the traced run, largest first."""
    traced_wall = metrics["trace.wall_s"]
    shares = {}
    for span in layers.span_names():
        module = span.split(".")[0]
        shares[module] = shares.get(module, 0.0) + metrics[f"{span}.self_s"]
    lines = [f"traced wall {traced_wall:.3f} s, "
             f"overhead {metrics['trace.overhead_s']:+.3f} s"]
    for module, self_s in sorted(shares.items(), key=lambda kv: -kv[1]):
        if self_s > 0:
            lines.append(f"{module:<11} self {self_s:8.3f} s "
                         f"{100 * self_s / traced_wall:5.1f}%")
    top = sorted(layers.span_names(), key=lambda s: -metrics[f"{s}.self_s"])
    for span in top[:5]:
        lines.append(f"  {span:<36} self {metrics[span + '.self_s']:8.3f} s "
                     f"calls {metrics[span + '.calls']}")
    return lines


def main(argv=None):
    p = argparse.ArgumentParser(
        description="Benchmark loopchains on four exact-verification "
                    "workloads.")
    p.add_argument("--workload", required=True,
                   choices=[*workloads.WORKLOADS, "all"])
    p.add_argument("--seed", type=int, required=True,
                   help="string-hash seed of every run (PYTHONHASHSEED)")
    p.add_argument("--seconds", type=float, default=20,
                   help="how long to repeat runs")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--report-seed", type=int, default=workloads.GOLDEN_SEED,
                   help="seed passed to `loopchains report` (its cost "
                        "depends on it; only seed 7 has golden bytes)")
    args = p.parse_args(argv)
    problem = workloads.layout_problem()
    if problem:
        sys.stderr.write(f"cannot benchmark this checkout: {problem}\n")
        return 2

    names = list(workloads.WORKLOADS) if args.workload == "all" \
        else [args.workload]
    bench = Bench(args.seed, args.report_seed, DEADLINE_S * len(names))
    units = layers.metric_units() if args.trace else END_TO_END
    metrics = {}

    def record(name, found, lines):
        for line in lines:
            print(f"{name:<15} {line}")
        for key, value in found.items():
            full = f"{name}.{key}" if len(names) > 1 else key
            metrics[full] = {"value": value, "unit": units[key]}

    if args.trace:
        for name in names:
            result = bench.trace(name, args.seconds)
            if result is not None:
                record(name, result, layer_lines(result))
    else:
        runs, setups = bench.measure(names, args.seconds)
        for name in names:
            if runs[name]:
                record(name, *end_to_end(setups, runs[name]))
    for name in names:
        failed, attempted = bench.failed[name], bench.attempted[name]
        print(f"{name:<15} fail_ratio    {failed / attempted:10.4f} ratio "
              f"{failed} of {attempted} checks failed")
    if args.trace:
        print(f"{args.workload:<15} selftest      "
              f"{'ok' if not bench.selftest else 'FAILED'}")
    for problem in bench.problems:
        sys.stderr.write(f"problem: {problem}\n")
    for fault in bench.selftest:
        sys.stderr.write(f"selftest: {fault}\n")
    if len(metrics) < len(names) * len(units):
        sys.stderr.write("no complete measurement; see the problems above\n")
        return 1
    print(json.dumps({"correct": not bench.problems,
                      "attempted": sum(bench.attempted.values()),
                      "failed": sum(bench.failed.values()),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
