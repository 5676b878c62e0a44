"""End-to-end and per-layer benchmark of the ``treerep`` command line.

Usage, from the repository root::

    python3 perfbench/run.py --workload analyze --seed 0 --seconds 5 --trace 0
    python3 perfbench/run.py --workload all --seed 0   # the four, one after another

Each op is one in-process ``treerep.cli.main(argv)`` call that writes its
artifact with ``--out``.  A workload is a closed loop with one client:
the next op starts when the previous one returns.  The ops come from a
deck (see ``inputs.py``) built from the seed alone, and the run repeats
whole passes over the deck until ``--seconds`` have passed and at least
``MIN_OPS`` ops have run, so every run measures the same op mix.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs a warm-up
pass, then runs every op untraced and traced back to back, and prints the
per-layer metrics, the tracing overhead, and writes the spans to
``.perfbench_out/trace/``.  Every artifact is checked after the timed
phase; the last line of standard output is one JSON object with the
verdict and the metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

import checks
import inputs
import speed
import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK_DIR = ".perfbench_out"
REFERENCE = os.path.join(HERE, "reference.json")

DEFAULT_SEED = 0
MIN_OPS = 100  # so that at least ten latency samples lie beyond the p90
MAX_PHASE_S = 100.0  # keeps a run well inside its time limit on a slow machine
SETUP_PROBES = 3  # fresh interpreters per run; each adds 1-3 s to every run
CALIBRATION_REPEATS = 15  # kernel runs around each set-up probe
WITNESS_SAMPLE = 4  # analyze witnesses re-derived by full inclusion-exclusion
WITNESS_MAX_SIZE = 10

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "ops/s"),
    ("op_ms.p50", "ms"),
    ("op_ms.p90", "ms"),
    ("peak_rss_mb", "MB"),
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", required=True, choices=inputs.WORKLOADS + ("all",),
        help="one workload, or all of them one after another, each in a fresh interpreter",
    )
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=5.0,
                        help="floor on the measured time; whole passes and at least %d ops run"
                        % MIN_OPS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument(
        "--record-reference", action="store_true",
        help="run one pass at the default seed and rewrite reference.json",
    )
    return parser.parse_args(argv)


# ---------------------------------------------------------------------------
# set-up


def import_cli():
    """Import ``treerep.cli`` from this checkout's ``src``; returns (module, seconds)."""
    if not os.path.isdir(os.path.join(SRC, "treerep")):
        raise SystemExit("perfbench: no treerep sources under %s" % SRC)
    sys.path.insert(0, SRC)
    start = time.perf_counter()
    cli = importlib.import_module("treerep.cli")
    elapsed = time.perf_counter() - start
    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        raise SystemExit("perfbench: treerep was imported from %s, not %s" % (cli.__file__, SRC))
    return cli, elapsed


def input_dir(workload, seed):
    return "%s/inputs/%s-s%d" % (WORK_DIR, workload, seed)


def setup(workload, seed, directory):
    """Everything before the first op: import, input generation, input files."""
    cli, import_s = import_cli()
    deck = inputs.build_deck(workload, seed, directory)
    deck.write()
    return cli, deck, import_s


def setup_seconds(workload, seed):
    """Median set-up time of fresh interpreters, from process spawn to ready.

    Both clocks are CLOCK_MONOTONIC, which is system-wide on Linux, so the
    child's ready stamp and the parent's spawn stamp are comparable.  Each
    sample is scaled to reference speed by the Fraction kernel, run just
    before the spawn and by the child just after it is ready.
    Returns (scaled median, wall median).
    """
    samples = []
    for _ in range(SETUP_PROBES):
        before = speed.calibrate(CALIBRATION_REPEATS)
        start = time.monotonic()
        done = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", workload,
             "--seed", str(seed), "--setup-probe"],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        ready, after = (float(x) for x in done.stdout.split())
        samples.append((ready - start, (before + after) / 2))
    walls = [wall for wall, _ in samples]
    scaled = [wall / slowdown for wall, slowdown in samples]
    return statistics.median(scaled), statistics.median(walls)


def run_setup_probe(workload, seed):
    directory = tempfile.mkdtemp(prefix="probe-", dir=WORK_DIR)
    try:
        setup(workload, seed, directory)
        ready = time.monotonic()
        print(repr(ready), repr(speed.calibrate(CALIBRATION_REPEATS)), flush=True)
    finally:
        shutil.rmtree(directory, ignore_errors=True)


# ---------------------------------------------------------------------------
# timed phase


class Runner:
    """Runs deck ops and keeps what the checks need, outside the op timing."""

    def __init__(self, cli, deck, out_dir):
        self.cli = cli
        self.deck = deck
        self.out_dir = out_dir
        self.kernels = speed.KERNEL_OF.get(deck.workload, ("fraction",))
        self.executions = []  # (op index, seconds, exit code or None, slowdown)
        self.digests = {}  # op index -> set of artifact digests
        self.first = {}  # op index -> artifact bytes of its first execution
        self.errors = {}  # op index -> first failure reason

    def execute(self, index, tracer=None):
        op = self.deck.ops[index]
        out = os.path.join(self.out_dir, "op%03d" % index)
        if os.path.exists(out):
            os.remove(out)
        argv = list(op.argv) + ["--out", out]
        code = None
        slowdown = speed.calibrate(names=self.kernels)
        start = time.perf_counter()
        try:
            code = tracer.run_op(index, self.cli.main, argv) if tracer else self.cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # an op that raises is a failed op; the run goes on
            if index not in self.errors:
                traceback.print_exc(file=sys.stderr)
            self.errors.setdefault(index, "raised %s: %s" % (type(exc).__name__, exc))
        elapsed = time.perf_counter() - start
        self.executions.append((index, elapsed, code, slowdown))
        if code is not None and code != 0:
            # Exit 2 on a generated, valid input is a fault, never a usage error.
            self.errors.setdefault(index, "exit status %d" % code)
        try:
            with open(out, "rb") as handle:
                data = handle.read()
        except OSError:
            self.errors.setdefault(index, "no artifact written")
            return
        self.digests.setdefault(index, set()).add(hashlib.sha256(data).hexdigest())
        self.first.setdefault(index, data)

    def passes(self, min_seconds, min_ops=0):
        """Whole passes over the deck until both floors are met.

        Returns the number of passes and the op latencies of this phase,
        in wall seconds and scaled to reference speed.
        """
        ops = len(self.deck.ops)
        first = len(self.executions)
        start = time.perf_counter()
        done = 0
        while done == 0 or (
            (time.perf_counter() - start < min_seconds or done * ops < min_ops)
            and time.perf_counter() - start < MAX_PHASE_S
        ):
            for index in range(ops):
                self.execute(index)
            done += 1
        phase = self.executions[first:]
        walls = [seconds for _, seconds, _, _ in phase]
        return done, walls, speed.scale(walls, [slowdown for _, _, _, slowdown in phase])

    def paired_passes(self, min_seconds, tracer):
        """Whole passes in which every op runs twice, untraced and traced, back to back.

        Which of the two runs first alternates from op to op and from pass
        to pass, so warm-up and drift fall on both sides alike.  Returns
        the number of passes and the scaled latencies of the untraced and
        of the traced runs, pair by pair.
        """
        ops = len(self.deck.ops)
        pairs = []
        start = time.perf_counter()
        done = 0
        while done == 0 or (time.perf_counter() - start < min_seconds
                            and time.perf_counter() - start < MAX_PHASE_S):
            for index in range(ops):
                pair = {}
                for traced in ((False, True) if (index + done) % 2 == 0 else (True, False)):
                    if traced:
                        undo = tracing.install(tracer)
                        try:
                            self.execute(index, tracer)
                        finally:
                            tracing.uninstall(undo)
                    else:
                        self.execute(index)
                    pair[traced] = len(self.executions) - 1
                pairs.append((pair[False], pair[True]))
            done += 1
        walls = [seconds for _, seconds, _, _ in self.executions]
        scaled = speed.scale(walls, [slowdown for _, _, _, slowdown in self.executions])
        return done, [scaled[u] for u, _ in pairs], [scaled[t] for _, t in pairs]


# ---------------------------------------------------------------------------
# checks


def outputs_sha256(deck, runner):
    lines = "".join(
        "%s\t%s\n" % (op.key, sorted(runner.digests.get(i, {"missing"}))[0])
        for i, op in enumerate(deck.ops)
    )
    return hashlib.sha256(lines.encode("utf-8")).hexdigest()


def load_reference(workload, seed):
    """Reference digests of ``workload`` at ``seed``, or None when none are recorded."""
    with open(REFERENCE, "r", encoding="utf-8") as handle:
        reference = json.load(handle)
    if seed != reference["seed"]:
        return None
    return reference["workloads"].get(workload)


def check_outputs(workload, deck, runner, reference):
    """Record a reason in ``runner.errors`` for every op whose output is wrong.

    ``reference`` holds the recorded digests for this workload and seed,
    or is None.  Returns a line describing the reference comparison.
    """
    errors = runner.errors
    for index, op in enumerate(deck.ops):
        if len(runner.digests.get(index, ())) > 1:
            errors.setdefault(index, "artifact bytes differ between executions")
        if index in runner.first:
            reason = checks.check_artifact(op, runner.first[index])
            if reason:
                errors.setdefault(index, reason)

    if workload == "analyze":
        rng = random.Random("witness/%d" % deck.seed)
        witnessed = [
            i for i, op in enumerate(deck.ops)
            if i in runner.first and i not in errors
            and 0 < len(json.loads(runner.first[i])["witness"] or ()) <= WITNESS_MAX_SIZE
        ]
        for index in sorted(rng.sample(witnessed, min(WITNESS_SAMPLE, len(witnessed)))):
            reason = checks.check_witness_mass(deck.ops[index], runner.first[index])
            if reason:
                errors.setdefault(index, reason)

    if reference is None:
        return "none recorded for %s at seed %d" % (workload, deck.seed)
    matched = 0
    for index, op in enumerate(deck.ops):
        expected = reference["ops"].get(op.key)
        if expected is None or runner.digests.get(index) != {expected}:
            errors.setdefault(index, "artifact differs from the reference digest")
        else:
            matched += 1
    return "%d of %d ops match the digests recorded at seed %d" % (
        matched, len(deck.ops), deck.seed)


# ---------------------------------------------------------------------------
# report


def percentile(values, q):
    """The q-th percentile (0 < q < 100) by linear interpolation between ranks."""
    ordered = sorted(values)
    rank = (len(ordered) - 1) * q / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def metric(value, unit):
    return {"value": value, "unit": unit}


def run(args):
    os.makedirs(WORK_DIR, exist_ok=True)
    directory = input_dir(args.workload, args.seed)
    cli, deck, import_s = setup(args.workload, args.seed, directory)
    out_dir = tempfile.mkdtemp(prefix="artifacts-", dir=WORK_DIR)
    try:
        return measure(args, cli, deck, import_s, out_dir)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
        shutil.rmtree(directory, ignore_errors=True)


def measure(args, cli, deck, import_s, out_dir):
    runner = Runner(cli, deck, out_dir)
    print("perfbench %s seed %d: %d ops per pass" % (args.workload, args.seed, len(deck.ops)))
    if args.trace:
        runner.passes(0)  # warm-up, untimed
        tracer = tracing.Tracer()
        passes, untraced_s, traced_s = runner.paired_passes(args.seconds, tracer)
        values = tracing.layer_metrics(tracer, passes)
        untraced = len(untraced_s) / sum(untraced_s)
        traced = len(traced_s) / sum(traced_s)
        values.update({
            "cli.import_s": import_s,
            "trace.ops_per_s_untraced": untraced,
            "trace.ops_per_s_traced": traced,
            "trace.overhead": statistics.median(
                t / u for u, t in zip(untraced_s, traced_s)) - 1.0,
        })
        os.makedirs(os.path.join(WORK_DIR, "trace"), exist_ok=True)
        spans_path = os.path.join(WORK_DIR, "trace", "%s-s%d.csv" % (args.workload, args.seed))
        tracing.write_spans(tracer, spans_path)
        print("after a warm-up pass, %d passes with each op run untraced and traced back to"
              " back, in alternating order: %d pairs, %.4f ops/s untraced, %.4f ops/s traced;"
              " trace.overhead is the median over pairs of traced / untraced time, minus 1"
              % (passes, len(untraced_s), untraced, traced))
        print("%d spans written to %s" % (len(tracer.spans), spans_path))
        print("per-layer counts and times are per deck pass; times are wall seconds")
        metrics = {name: metric(values[name], unit) for name, unit in tracing.PER_LAYER}
        for name, unit in tracing.PER_LAYER:
            print("%-46s %14.6g %s" % (name, values[name], unit))
    else:
        setup_s, setup_wall = setup_seconds(args.workload, args.seed)
        passes, walls, scaled = runner.passes(args.seconds, MIN_OPS)
        latencies = [1000.0 * seconds for seconds in scaled]
        wall_ms = [1000.0 * seconds for seconds in walls]
        p90 = percentile(latencies, 90)
        values = {
            "setup_s": setup_s,
            "ops_per_s": len(scaled) / sum(scaled),
            "op_ms.p50": percentile(latencies, 50),
            "op_ms.p90": p90,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        print("%d passes, %d ops, %.3f s inside cli.main; times below are at reference speed"
              " (see speed.py), wall-clock figures in brackets" % (passes, len(walls), sum(walls)))
        print("setup_s      %.4f s  [%.4f s]  (median of %d fresh interpreters)"
              % (setup_s, setup_wall, SETUP_PROBES))
        print("ops_per_s    %.4f ops/s  [%.4f]  (%d ops)"
              % (values["ops_per_s"], len(walls) / sum(walls), len(walls)))
        print("op_ms.p50    %.4f ms  [%.4f]  (%d samples)"
              % (values["op_ms.p50"], percentile(wall_ms, 50), len(latencies)))
        print("op_ms.p90    %.4f ms  [%.4f]  (%d samples, %d beyond)"
              % (p90, percentile(wall_ms, 90), len(latencies), sum(1 for x in latencies if x > p90)))
        print("peak_rss_mb  %.2f MB" % values["peak_rss_mb"])
        print("cli.import_s %.4f s  (wall, this process)" % import_s)
        metrics = {name: metric(values[name], unit) for name, unit in END_TO_END}

    reference = load_reference(args.workload, args.seed)
    reference_line = check_outputs(args.workload, deck, runner, reference)
    attempted = len(runner.executions)
    failed = sum(1 for index, *_ in runner.executions if index in runner.errors)
    for index in sorted(runner.errors):
        print("FAILED %s: %s" % (deck.ops[index].key, runner.errors[index]), file=sys.stderr)
    print("error_rate   %.6f ratio  (%d of %d ops failed)"
          % (failed / attempted, failed, attempted))
    print("reference    %s" % reference_line)
    print("outputs_sha256 %s" % outputs_sha256(deck, runner))
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def record_reference():
    """Rewrite reference.json from one pass of each exact workload at the default seed."""
    reference = {"seed": DEFAULT_SEED, "workloads": {}}
    cli = None
    for workload in ("analyze", "scan", "identities"):
        directory = input_dir(workload, DEFAULT_SEED)
        deck = inputs.build_deck(workload, DEFAULT_SEED, directory)
        deck.write()
        if cli is None:
            cli, _ = import_cli()
        out_dir = tempfile.mkdtemp(prefix="artifacts-", dir=WORK_DIR)
        try:
            runner = Runner(cli, deck, out_dir)
            runner.passes(0)
            check_outputs(workload, deck, runner, None)
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)
            shutil.rmtree(directory, ignore_errors=True)
        if runner.errors:
            raise SystemExit("perfbench: %s failed, no reference written: %r"
                             % (workload, runner.errors))
        reference["workloads"][workload] = {
            "outputs_sha256": outputs_sha256(deck, runner),
            "ops": {op.key: sorted(runner.digests[i])[0] for i, op in enumerate(deck.ops)},
        }
    with open(REFERENCE, "w", encoding="utf-8") as handle:
        json.dump(reference, handle, indent=1, sort_keys=True)
        handle.write("\n")


def run_all(args):
    """Run every workload in its own interpreter; exit 1 if any run fails.

    A run fails when it exits non-zero or when its result line reads
    ``"correct": false``.
    """
    status = 0
    for workload in inputs.WORKLOADS:
        done = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, check=False, stdout=subprocess.PIPE, text=True,
        )
        sys.stdout.write(done.stdout)
        sys.stdout.flush()
        lines = done.stdout.strip().splitlines()
        try:
            correct = json.loads(lines[-1])["correct"] is True
        except (IndexError, ValueError, KeyError, TypeError):
            correct = False
        if done.returncode != 0 or not correct:
            status = 1
    return status


def main(argv=None):
    args = parse_args(argv)
    os.chdir(ROOT)
    os.makedirs(WORK_DIR, exist_ok=True)
    if args.setup_probe:
        run_setup_probe(args.workload, args.seed)
        return 0
    if args.record_reference:
        record_reference()
        return 0
    if args.workload == "all":
        return run_all(args)
    result = run(args)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
