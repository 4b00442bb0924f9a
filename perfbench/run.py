"""acdkit benchmark: one workload, one seed, one run.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload parity-games --seed 1 --seconds 35 --trace 0

The load is a closed loop in one process and one thread: each op is one
instance pushed through the workload's public entry point, and the next op
starts when the previous one returns.  The run makes a fixed number of
rounds: ``--seconds`` divided by the workload's nominal round time, and at
least two.  A round is one whole pass over the seeded instances and three
light passes over the cheap ones: those that ranked at most LIGHT_MARGIN
places beyond the tail instance in the first pass (failed ones left out).
``attempted`` and ``failed`` count the whole passes only; a light pass
re-times instances already attempted, so the counts do not depend on
timing, nor on how fast the code under test is.

The machine's speed drifts by up to 1.7x over tens of seconds, so a fixed
reference kernel is timed before every op and at the end of every pass.
Each sample is scaled to the reference speed: its seconds times REF_S over
the median of the reference times around it.  An instance's latency is the
median of its scaled samples; throughput is the number of instances over
the sum of their latencies.  Every op is checked after the timed passes; a
wrong output makes ``correct`` false and the exit code 1.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs an
untraced and a traced pass, requires their outputs to be byte-identical,
and prints the per-layer metrics of the traced pass and the tracing
overhead (traced minus untraced scaled seconds).  Earlier lines of stdout
carry the report (environment, failures by kind, tail percentile and
sample count, scaling curves); the last line is the result object.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402
from ops import make_ops  # noqa: E402
from tracer import Tracer  # noqa: E402

WORKLOADS = ("acd-sparse", "acd-colours", "parity-games", "cli-muller-games")
SETUP_REPEATS = 5
MIN_ROUNDS = 2
LIGHT_PASSES = 3
# the light passes take every instance ranked up to the tail instance and
# LIGHT_MARGIN beyond it, so the median and the tail get 4x the samples
LIGHT_MARGIN = 2
# seconds of one round (whole pass plus light passes) when the benchmark
# was defined, on 2 vCPUs of a shared VM with CPython 3.11 in a fast phase:
# a run makes --seconds / this many rounds
NOMINAL_ROUND_S = {"acd-sparse": 10.0, "acd-colours": 18.0,
                   "parity-games": 21.0, "cli-muller-games": 17.0}
# seconds of reference() in a fast phase of the same machine: the speed
# every sample is scaled to
REF_S = 0.00095
# reference times on each side of a sample that set its local speed
REF_WINDOW = 3
TAIL_BEYOND = 10
# families whose per-size latency is reported as a scaling curve
SCALING = {"acd-colours": ("",), "parity-games": ("cycle/", "path/")}

END_TO_END = {
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "throughput_ops_s": "1/s",
    "fail_share": "ratio",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
PER_LAYER = {
    "loops.sccs.calls": "count",
    "loops.sccs.self_s": "s",
    "loops.alternating_children.calls": "count",
    "loops.alternating_children.self_s": "s",
    "loops.children_per_status_check": "ratio",
    "core.loop_status_over.calls": "count",
    "core.loop_status_over.self_s": "s",
    "core.validate.self_s": "s",
    "zielonka.build_zielonka_tree.calls": "count",
    "zielonka.build_zielonka_tree.self_s": "s",
    "zielonka.closure_oracle.self_s": "s",
    "acd.build_acd.self_s": "s",
    "acd.acd_transform.self_s": "s",
    "acd.tree_nodes": "count",
    "acd.transform_vertices": "count",
    "loops.enumerate_reachable_loops.self_s": "s",
    "morphism.check_acceptance_preserving.self_s": "s",
    "morphism.cap_exceeded": "count",
    "relabel.classify_acd.calls": "count",
    "relabel.classify_acd.self_s": "s",
    "games.solve_parity_game.self_s": "s",
    "games.verify_parity_solution.self_s": "s",
    "games.board_nodes": "count",
    "docfmt.parse.self_s": "s",
    "docfmt.serialize.self_s": "s",
    "docfmt.bytes_out": "B",
    "cli.main.solve.s": "s",
    "cli.main.transform.s": "s",
    "cli.main.check-morphism.s": "s",
    "cli.main.relabel.s": "s",
    "cli.main.stats.s": "s",
    "cli.main.shape.s": "s",
    "trace.overhead_s": "s",
}


def setup(workload, seed, corpus, workdir):
    """Import acdkit, generate the seeded inputs and write the documents."""
    ak = importlib.import_module("acdkit")
    importlib.import_module("acdkit.cli")
    specs = workloads.instances(workload, seed, corpus)
    return ak, make_ops(ak, workload, specs, workdir)


def reference():
    """A fixed interpreter-bound kernel (dict, set, tuple and sort work,
    like the code under test) whose time tracks the machine's speed."""
    counts = {}
    seen = set()
    pairs = []
    for i in range(3000):
        k = i % 211
        counts[k] = counts.get(k, 0) + 1
        if k not in seen:
            seen.add(k)
        pairs.append((k, i))
    pairs.sort()
    return len(counts)


def time_reference():
    t0 = time.perf_counter()
    reference()
    return time.perf_counter() - t0


def timed_setup(args, workdir):
    """Scaled seconds of one set-up, and what it made."""
    gc.collect()
    refs = [time_reference() for _ in range(REF_WINDOW)]
    t0 = time.perf_counter()
    made = setup(args.workload, args.seed, args.corpus, workdir)
    dt = time.perf_counter() - t0
    refs += [time_reference() for _ in range(REF_WINDOW)]
    return dt * REF_S / statistics.median(refs), made


def setup_in_child(args):
    """Seconds of one more set-up, timed in a fresh interpreter with its
    own work directory, so the measuring process keeps its modules."""
    argv = [sys.executable, os.path.abspath(__file__), "--setup-only",
            "--workload", args.workload, "--seed", str(args.seed),
            "--corpus", str(args.corpus), "--seconds", "0"]
    child = subprocess.run(argv, capture_output=True, text=True, check=True,
                           timeout=120)
    return float(child.stdout.split()[-1])


class Run:
    """Outcomes and timings of the ops of one run, pass by pass."""

    def __init__(self, ops):
        self.ops = ops
        self.samples = [[] for _ in ops]  # (seconds, index into refs)
        self.refs = []           # reference times, one before each op
        self.outputs = [None] * len(ops)
        self.results = [None] * len(ops)  # first-pass results, for the gate
        self.failures = {}       # kind -> count over the whole passes
        self.failed_ops = set()
        self.wrong = []          # (op index, problem)
        self.undecided = 0
        self.attempted = 0
        self.pass_s = []
        self.light_pass_s = []

    def one_pass(self, tracer=None, only=None):
        """Run every op once, or only the ops at the indices `only` (a
        light pass); returns the pass's scaled seconds.  Outputs must
        repeat byte for byte from pass to pass."""
        cap_exceeded = self.ops[0].ak.CapExceeded
        sink = io.StringIO()
        indices = range(len(self.ops)) if only is None else only
        for i in indices:
            op = self.ops[i]
            op.prepare()
            gc.collect()
            self.refs.append(time_reference())
            result = kind = None
            if tracer is not None:
                tracer.enabled = True
            with contextlib.redirect_stderr(sink):
                t0 = time.perf_counter()
                try:
                    result = op.run()
                except cap_exceeded:
                    kind = "CapExceeded"
                except RecursionError:
                    kind = "RecursionError"
                except Exception as e:  # every other crash is counted, too
                    kind = type(e).__name__
                dt = time.perf_counter() - t0
            if tracer is not None:
                tracer.enabled = False
            sink.seek(0)
            sink.truncate()
            self.samples[i].append((dt, len(self.refs) - 1))
            if kind is None:
                kind = op.failure(result)
            if only is None:
                self.attempted += 1
                if kind is not None:
                    self.failures[kind] = self.failures.get(kind, 0) + 1
                    self.failed_ops.add(i)
            try:
                text = kind if result is None else op.output(result)
            except Exception as e:  # an unreadable result is a wrong output
                text = "output raised %s" % type(e).__name__
                self.wrong.append((i, "%s: %s" % (text, e)))
            if self.outputs[i] is None:
                self.outputs[i] = text
                self.results[i] = result
            elif text != self.outputs[i]:
                self.wrong.append((i, "output differs between passes"))
        self.refs.append(time_reference())
        timed = sum(self.scaled(i, -1) for i in indices)
        (self.pass_s if only is None else self.light_pass_s).append(timed)
        return timed

    def scaled(self, i, k):
        """Sample k of op i, in seconds at the reference speed: the
        median of the REF_WINDOW reference times on each side sets the
        machine's speed at that moment."""
        dt, j = self.samples[i][k]
        window = self.refs[max(0, j + 1 - REF_WINDOW):j + 1 + REF_WINDOW]
        return dt * REF_S / statistics.median(window)

    def light_ops(self):
        """Indices, in op order, of the instances that ranked up to
        LIGHT_MARGIN beyond the tail instance in the first pass and did
        not fail."""
        n = len(self.ops)
        order = sorted(range(n), key=lambda i: self.scaled(i, 0))
        cut = min(n, n - TAIL_BEYOND + LIGHT_MARGIN)
        return sorted(i for i in order[:cut] if i not in self.failed_ops)

    def gate(self):
        """Check each op's first-pass result, after the timed passes."""
        for i, (op, result) in enumerate(zip(self.ops, self.results)):
            if result is not None:
                try:
                    problems, decided = op.check(result)
                except Exception as e:  # a malformed output is wrong, too
                    problems, decided = ["check raised %s: %s"
                                         % (type(e).__name__, e)], True
                self.undecided += not decided
                self.wrong.extend((i, p) for p in problems)
            self.results[i] = None

    def instance_latencies(self):
        """Each instance's median scaled sample."""
        return [statistics.median(self.scaled(i, k)
                                  for k in range(len(xs)))
                for i, xs in enumerate(self.samples)]


def tail(values):
    """Highest percentile with at least TAIL_BEYOND samples beyond it:
    (value, percentile, sample count)."""
    xs = sorted(values)
    k = max(1, len(xs) - TAIL_BEYOND)
    return xs[k - 1], 100.0 * k / len(xs), len(xs)


def scaling(workload, run):
    """Per-size latency for the scaling families, and the largest size of
    each family with a solved instance."""
    curves = {}
    lat = run.instance_latencies()
    for prefix in SCALING.get(workload, ()):
        sizes = {}
        for i, op in enumerate(run.ops):
            if op.size.startswith(prefix):
                sizes.setdefault(op.size, []).append(i)
        rows = []
        for size, idx in sizes.items():
            rows.append({
                "size": size,
                "instances": len(idx),
                "solved": sum(i not in run.failed_ops for i in idx),
                "median_ms": 1e3 * statistics.median(lat[i] for i in idx),
            })
        rows.sort(key=lambda r: _size_key(r["size"]))
        solved = [r["size"] for r in rows if r["solved"]]
        curves[prefix.rstrip("/") or "tiers"] = {
            "sizes": rows, "largest_solved": solved[-1] if solved else None}
    return curves


def _size_key(size):
    digits = "".join(c if c.isdigit() else " " for c in size).split()
    return [int(d) for d in digits]


def commit(root):
    """The checked-out commit, read from .git without starting git."""
    head = os.path.join(root, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        ref = ref[5:]
        path = os.path.join(root, ".git", ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(root, ".git", "packed-refs"),
                  encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--corpus", type=int,
                        default=workloads.DEFAULT_CORPUS,
                        help="corpus seed (held-out: %d)"
                        % workloads.HELD_OUT_CORPUS)
    parser.add_argument("--setup-only", action="store_true",
                        help="time one set-up and print its seconds")
    args = parser.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "acdkit", "__init__.py")):
        print("perfbench: no acdkit sources under %s; run from the root of "
              "a checkout" % src, file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    for var in ("ACDKIT_LOOP_CAP", "ACDKIT_EXPLORE_CAP"):
        os.environ.pop(var, None)
    workdir = os.path.join(root, ".perfbench_work", str(os.getpid()))
    os.makedirs(workdir, exist_ok=True)
    try:
        if args.setup_only:
            print(timed_setup(args, workdir)[0])
            return 0
        return measure(args, root, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(workdir))


def measure(args, root, workdir):
    started = time.perf_counter()
    first_setup, (ak, ops) = timed_setup(args, workdir)
    setup_s = [first_setup]
    gc.collect()
    gc.freeze()

    run = Run(ops)
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "corpus": args.corpus,
        "env": {"nproc": os.cpu_count(),
                "python": platform.python_version(),
                "platform": platform.platform(),
                "commit": commit(root)},
        "ops_per_pass": len(ops),
    }
    if args.trace:
        untraced = run.one_pass()
        tracer = Tracer(ak)
        tracer.install()
        try:
            traced = run.one_pass(tracer)
        finally:
            tracer.uninstall()
        metrics = layer_metrics(tracer, traced - untraced)
        report["trace"] = {"untraced_s": untraced, "traced_s": traced,
                           "overhead_s": traced - untraced}
    else:
        rounds = max(MIN_ROUNDS,
                     round(args.seconds / NOMINAL_ROUND_S[args.workload]))
        # the set-up repeats are spread over the run, so that one slow
        # phase of the machine cannot hold all of them
        light = None
        for r in range(rounds):
            run.one_pass()
            if light is None:
                light = run.light_ops()
            for _ in range(LIGHT_PASSES):
                run.one_pass(only=light)
            while len(setup_s) < 1 + (SETUP_REPEATS - 1) * (r + 1) // rounds:
                setup_s.append(setup_in_child(args))
        report["light_ops"] = len(light)
        report["light_pass_s"] = run.light_pass_s
        metrics = end_to_end(run, setup_s, report)
        report["scaling"] = scaling(args.workload, run)

    run.gate()
    report["pass_s"] = run.pass_s
    report["reference_ms"] = {
        "fastest": 1e3 * min(run.refs),
        "median": 1e3 * statistics.median(run.refs),
        "slowest": 1e3 * max(run.refs)}
    report["failures"] = dict(sorted(run.failures.items()))
    report["failed_instances"] = len(run.failed_ops)
    report["gate"] = {"wrong": len(run.wrong),
                      "undecided_at_loop_cap": run.undecided,
                      "problems": [p for _, p in run.wrong[:10]]}
    report["wall_s"] = time.perf_counter() - started
    correct = not run.wrong
    print("report " + json.dumps(report, sort_keys=True))
    for name, m in metrics.items():
        print("metric %-44s %14.6f %s" % (name, m["value"], m["unit"]))
    print(json.dumps({"correct": correct, "attempted": run.attempted,
                      "failed": sum(run.failures.values()),
                      "metrics": metrics}))
    return 0 if correct else 1


def end_to_end(run, setup_s, report):
    lat = run.instance_latencies()
    tail_value, tail_pct, n = tail(lat)
    report["latency_tail"] = {"percentile": tail_pct, "samples": n}
    report["setup_s_all"] = setup_s
    values = {
        "latency_p50_ms": 1e3 * statistics.median(lat),
        "latency_tail_ms": 1e3 * tail_value,
        "throughput_ops_s": len(lat) / sum(lat),
        "fail_share": sum(run.failures.values()) / run.attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "setup_s": statistics.median(setup_s),
    }
    return {k: metric(v, END_TO_END[k]) for k, v in values.items()}


def layer_metrics(tracer, overhead):
    values = {}
    for name in PER_LAYER:
        layer, _, what = name.rpartition(".")
        if what == "calls":
            values[name] = tracer.calls[layer]
        elif what == "self_s":
            values[name] = tracer.self_s[layer]
        else:
            values[name] = tracer.counts[name]
    checks = tracer.counts["loops.status_checks_in_children"]
    values["loops.children_per_status_check"] = (
        tracer.counts["loops.alternating_children.children"] / checks
        if checks else 0.0)
    values["trace.overhead_s"] = overhead
    return {k: metric(v, PER_LAYER[k]) for k, v in values.items()}


if __name__ == "__main__":
    sys.exit(main())
