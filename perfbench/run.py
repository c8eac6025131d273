"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload chains --seed 7 --seconds 30 --trace 0

Run from anywhere inside a source checkout; the program is imported from
the checkout's ``src`` directory and from nowhere else.  Workloads: tables,
chains, theta, fibred (see ``workloads.py``).  A run makes its inputs from
the seed, repeats full passes over them until the time is spent, checks
every output against its oracle, prints a readable summary, and prints as
its last line one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.

With ``--trace 0`` the metrics are the end-to-end ones, measured on the
untouched program.  With ``--trace 1`` untraced and traced passes alternate;
the metrics are the per-layer ones (medians over traced passes) and the
tracing overhead, and the spans of the last traced pass are written to
``.perfbench/`` in the checkout.

Exit status: 0 when every output checked out, 1 when an oracle check failed
(the result line then says ``"correct": false``), 2 when the run cannot
start: no program to import, or ``python -O``, which strips the program's
``assert`` checks and would time a different program.
"""

import argparse
import gc
import json
import math
import resource
import statistics
import sys
import time
from pathlib import Path

from calibrate import REFERENCE_S, ScaledTimes, probe

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 7


class CannotRun(Exception):
    pass


def load_program() -> None:
    """Import kakimizu from this checkout's ``src``, refusing any other copy."""
    src = ROOT / "src"
    if not (src / "kakimizu" / "__init__.py").is_file():
        raise CannotRun(f"no program to benchmark: {src / 'kakimizu'} is missing")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import kakimizu
    if Path(kakimizu.__file__).resolve().parent != (src / "kakimizu").resolve():
        raise CannotRun(f"imported kakimizu from {kakimizu.__file__}, not from {src}")


def setup(workload: str, seed: int):
    """Everything before the first timed input: import, read data, make inputs."""
    load_program()
    from workloads import WORKLOADS
    return WORKLOADS[workload](seed)


def timed_setups(workload: str, seed: int) -> tuple:
    """Set up again SETUP_REPEATS times from a clean import.

    Each repeat drops kakimizu and the input module from ``sys.modules``, so
    it imports the program afresh, reads its tables and fixtures and makes
    the seeded inputs, as a new process would after interpreter start-up.
    Returns the last set-up and the median scaled time.  The first set-up,
    made before, compiled the bytecode caches and is not counted.
    """
    times = ScaledTimes()
    for _ in range(SETUP_REPEATS):
        for name in [m for m in sys.modules if m in ("workloads", "kakimizu")
                     or m.startswith("kakimizu.")]:
            del sys.modules[name]
        gc.collect()   # the dropped modules are garbage; collect it untimed
        began = time.perf_counter()
        work = setup(workload, seed)
        times.add(time.perf_counter() - began)
        times.flush()
    return work, statistics.median(times.scaled)


class Pass:
    """Timings and outputs of one pass over a workload's inputs.

    `seconds` and `latencies` are scaled to the reference speed (see
    ``calibrate.py``); `raw_seconds` is the pass as the clock read it.
    """

    def __init__(self):
        self.seconds = 0.0
        self.raw_seconds = 0.0
        self.latencies = []
        self.probes = []
        self.outputs = {}
        self.raised = {}
        self.extra = None


def run_pass(work, pass_no: int, tracer=None) -> Pass:
    p = Pass()
    times = ScaledTimes()
    raw = []
    for item in work.order(pass_no):
        if tracer is not None:
            tracer.begin_input(item.id)
        t = time.perf_counter()
        try:
            p.outputs[item.id] = work.run(item, pass_no)
        except Exception as exc:  # every per-input failure counts and the run goes on
            p.raised[item.id] = f"{type(exc).__name__}: {exc}"[:200]
        raw.append(time.perf_counter() - t)
        times.add(raw[-1])
    t = time.perf_counter()
    p.extra = work.end_pass(p.outputs)
    raw.append(time.perf_counter() - t)
    times.add(raw[-1])
    scaled = times.flush()
    p.latencies = scaled[:-1]
    p.seconds = sum(scaled)
    p.raw_seconds = sum(raw)
    p.probes = times.probes
    return p


def percentile(sorted_values: list, pct: float) -> tuple:
    """Nearest-rank percentile and the number of samples beyond it."""
    rank = max(1, math.ceil(pct / 100 * len(sorted_values)))
    return sorted_values[rank - 1], len(sorted_values) - rank


class Tally:
    """Attempts, failures and oracle verdicts over the passes of a run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.raised = {}      # input id -> [message, times]
        self.wrong = {}       # input id (or "pass") -> [problem, times]
        self.summary = {}

    def add(self, work, p: Pass) -> None:
        self.attempted += len(work.items)
        wrong = [(item.id, work.check(item, p.outputs[item.id]))
                 for item in work.items if item.id in p.outputs]
        wrong = [(key, problem) for key, problem in wrong if problem is not None]
        self.failed += len(p.raised) + len(wrong)
        wrong += [("pass", problem) for problem in work.check_pass(p.extra)]
        for key, msg in p.raised.items():
            self.raised.setdefault(key, [msg, 0])[1] += 1
        for key, msg in wrong:
            self.wrong.setdefault(key, [msg, 0])[1] += 1
        if not self.summary:
            self.summary = work.summary(p.outputs)

    @property
    def correct(self) -> bool:
        return not self.wrong

    def report(self) -> None:
        for key, (msg, n) in sorted(self.raised.items()):
            print(f"  raised  {key} x{n}: {msg}")
        for key, (msg, n) in sorted(self.wrong.items()):
            print(f"  WRONG   {key} x{n}: {msg}")
            print(f"oracle check failed: {key}: {msg}", file=sys.stderr)
        for name, value in self.summary.items():
            print(f"  {name} = {value}")


def _deadline_reached(deadline: float, raw_pass_seconds: list) -> bool:
    # stop when another pass of the usual length would overrun
    return time.perf_counter() + statistics.median(raw_pass_seconds) > deadline


def untraced(work, seconds: float, setup_s: float) -> tuple:
    tally, passes, raw, latencies = Tally(), [], [], []
    deadline = time.perf_counter() + seconds
    while not raw or not _deadline_reached(deadline, raw):
        p = run_pass(work, len(passes))
        tally.add(work, p)
        passes.append(p.seconds)
        raw.append(p.raw_seconds)
        latencies += p.latencies
    latencies.sort()
    tail, beyond = percentile(latencies, work.tail_pct)
    metrics = {
        "setup_s": (setup_s, "s"),
        "items_per_s": (len(work.items) / statistics.median(passes), "1/s"),
        "latency_p50_ms": (statistics.median(latencies) * 1000, "ms"),
        "latency_tail_ms": (tail * 1000, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "ok_ratio": ((tally.attempted - tally.failed) / tally.attempted, "ratio"),
    }
    print(f"{work.name}: {len(passes)} passes of {len(work.items)} inputs, median pass "
          f"{statistics.median(passes):.3f} s scaled, {statistics.median(raw):.3f} s raw")
    print(f"  latency_tail_ms is p{work.tail_pct:g} over {len(latencies)} samples, "
          f"{beyond} beyond it")
    return tally, {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def _scaled(metrics: dict, probes: list) -> dict:
    """Span times of a traced pass at the reference speed (see ``calibrate.py``)."""
    from spans import unit_of
    factor = REFERENCE_S / statistics.median(probes)
    return {k: v * factor if unit_of(k) == "s" else v for k, v in metrics.items()}


def traced(work, seconds: float, tracer, load_table_s: float) -> tuple:
    from spans import median_metrics, unit_of
    tally, plain, timed, raw, per_pass = Tally(), [], [], [], []
    deadline = time.perf_counter() + seconds
    while not timed or not _deadline_reached(deadline, raw):
        pass_no = len(raw)
        if pass_no % 2 == 0:
            p = run_pass(work, pass_no)
            plain.append(p.seconds)
        else:
            tracer.reset()
            tracer.install()
            try:
                p = run_pass(work, pass_no, tracer)
            finally:
                tracer.uninstall()
            timed.append(p.seconds)
            per_pass.append(_scaled(tracer.pass_metrics(), p.probes))
        raw.append(p.raw_seconds)
        tally.add(work, p)
    metrics = median_metrics(per_pass)
    metrics["pipeline.load_table.s"] = load_table_s
    metrics["trace.overhead_s"] = statistics.median(timed) - statistics.median(plain)
    metrics["trace.absent"] = len(tracer.absent)
    for name in ("built", "unique_surface", "unreduced_bigon", "other_refusal"):
        metrics[f"theta.sample.{name}"] = tally.summary.get(f"theta.sample.{name}", 0)
    print(f"{work.name}: {len(plain)} untraced and {len(timed)} traced passes, median pass "
          f"{statistics.median(plain):.3f} s untraced, {statistics.median(timed):.3f} s traced "
          f"(scaled)")
    for name in tracer.absent:
        print(f"  absent binding: {name}")
    return tally, {k: {"value": v, "unit": unit_of(k)} for k, v in sorted(metrics.items())}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("tables", "chains", "theta", "fibred"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if sys.flags.optimize:
        print("refusing to run under python -O: it strips the program's assert checks",
              file=sys.stderr)
        return 2
    try:
        if args.trace:
            load_program()
            from spans import Tracer
            tracer = Tracer()
            before = probe()
            tracer.install()   # set-up is traced once, for pipeline.load_table
            try:
                work = setup(args.workload, args.seed)
            finally:
                tracer.uninstall()
            load = _scaled(tracer.pass_metrics(), [before, probe()])
            load_table_s = load["pipeline.load_table.s"]
        else:
            setup(args.workload, args.seed)
            work, setup_s = timed_setups(args.workload, args.seed)
    except CannotRun as exc:
        print(f"cannot run: {exc}", file=sys.stderr)
        return 2

    if args.trace:
        tally, metrics = traced(work, args.seconds, tracer, load_table_s)
        path = ROOT / ".perfbench" / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(path)
        print(f"  spans of the last traced pass: {path.relative_to(ROOT)}")
    else:
        tally, metrics = untraced(work, args.seconds, setup_s)
    tally.report()
    for name, m in metrics.items():
        print(f"  {name:<34} {m['value']:.6g} {m['unit']}")
    print(f"  {'fail_ratio':<34} {tally.failed / tally.attempted:.6g} ratio "
          f"({tally.failed} of {tally.attempted} inputs; the result line's failed/attempted)")
    print(json.dumps({"correct": tally.correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0 if tally.correct else 1


if __name__ == "__main__":
    sys.exit(main())
