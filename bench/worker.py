"""One benchmark run of one workload, in a fresh interpreter.

    python3 bench/worker.py --workload NAME --mode MODE [--report-seed N]

MODE is ``setup`` (set up and stop), ``time`` (untraced), ``trace``
(timed spans around every public layer function) or ``count`` (calls
and counters only, plus the hot weight counters).  All but ``count``
runs read their times from the scaled clocks of ``meter.py``, spans
included: ``setup_s`` and ``wall_s`` are scaled seconds, and
``raw_setup_s`` and ``raw_wall_s`` the plain ones.
The last line of standard output is one JSON object; ``bench/run.py``
reads it.
"""

import argparse
import json
import resource
import time
import traceback

import layers
import workloads
from meter import Meter


def run_checks(workload, inputs):
    verdicts = []
    for check in workloads.WORKLOADS[workload]:
        try:
            got = check.call(inputs)
            ok = check.judge(got)
            error = None
        except Exception as exc:  # a raising check is a failed verdict
            got, ok = None, False
            error = "".join(traceback.format_exception_only(exc)).strip()
        verdicts.append({"label": check.label, "got": got, "ok": ok,
                         "error": error})
    return verdicts


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=sorted(workloads.WORKLOADS),
                   required=True)
    p.add_argument("--report-seed", type=int,
                   default=workloads.GOLDEN_SEED)
    p.add_argument("--mode", choices=("setup", "time", "trace", "count"),
                   required=True)
    args = p.parse_args()

    meter, clock, plain = None, time.perf_counter, time.perf_counter
    if args.mode != "count":
        meter = Meter()
        meter.start()
        clock, plain = meter.clock, meter.plain
    start, scaled = plain(), clock()
    workloads.import_package()
    tracer = None
    if args.mode in ("trace", "count"):
        tracer = layers.Tracer(timed=args.mode == "trace", clock=clock)
        tracer.install()
    inputs = workloads.Inputs(args.report_seed)
    out = {"raw_setup_s": plain() - start, "setup_s": clock() - scaled}
    if args.mode != "setup":
        start, scaled = plain(), clock()
        out["verdicts"] = run_checks(args.workload, inputs)
        out["raw_wall_s"], out["wall_s"] = plain() - start, clock() - scaled
        out["peak_rss_mib"] = \
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if meter is not None:
        meter.stop()
    if tracer is not None:
        out["restored"] = tracer.restore()
        out["layers"] = tracer.metrics()
        out["called"] = sorted(tracer.called())
    print(json.dumps(out))


if __name__ == "__main__":
    main()
