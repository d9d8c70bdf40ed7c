"""Benchmark for crosstnn: closed-loop workloads timed to a checked verdict.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-check    # every workload, smallest mix

Run from anywhere; the package is imported from ``src/`` next to this
directory, never from an installed copy.  One process runs one workload:
one caller, one job at a time, no threads.  Set-up imports ``crosstnn``
and writes the workload's input files.  ``setup_s`` is the median, over
seven fresh processes that do only that, of the time from process start
to the point where the first job would start.  Expectations that take
work to find are computed after set-up, untimed.  The loop then repeats
whole passes over the workload's job list until ``--seconds`` of job time
have been measured, checking every job's exit codes, printed verdict and
output bytes outside the timed region.  Timed end-to-end metrics are
scaled to a fixed reference speed measured alongside (see ``speed.py``).

With ``--trace 1`` the run wraps the package's public functions (see
``tracer.py``), repeats traced passes, then makes one untraced pass whose
bytes must match; it reports per-pass call counts and self times per
layer, and writes the spans to ``perfbench/results/``.  The last line of standard output is
one JSON object: correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import tracer
from speed import Speed
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / "work"
RESULTS = BENCH / "results"
DIGESTS = BENCH / "digests.json"
DEFAULT_SEED = 0
SETUP_SAMPLES = 7
# Calibration time per second of measured time (see speed.py).  Set-up
# samples are short, so they get a larger share for a steadier estimate.
CALIBRATION_SHARE = 0.1
SETUP_CALIBRATION_SHARE = 0.25
# No pass starts that would end, at the speed of the pass before it, after
# this many seconds of the process, so that a run of a much slower program
# still ends within the 180 s a run may take.
WALL_BUDGET_S = 120.0
VERDICT_BY_EXIT = {0: "totally-nonnegative", 1: "not-totally-nonnegative", 2: "inapplicable"}


class BenchError(Exception):
    """The benchmark cannot run here (missing sources or specification)."""


def load_spec() -> dict:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise BenchError(f"{path} not found")
    return json.loads(path.read_text(encoding="utf-8"))


def fresh_import():
    """Import crosstnn from src/, dropping any copy already loaded."""
    if not (SRC / "crosstnn" / "__init__.py").is_file():
        raise BenchError(f"no crosstnn sources under {SRC}")
    for name in [m for m in sys.modules if m == "crosstnn" or m.startswith("crosstnn.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    ct = importlib.import_module("crosstnn")
    importlib.import_module("crosstnn.cli")
    if Path(ct.__file__).resolve().parent != SRC / "crosstnn":
        raise BenchError(f"crosstnn imported from {ct.__file__}, not {SRC}")
    return ct


def set_up(name: str, seed: int, work: Path, quick: bool):
    """Import the package and write the workload's input files."""
    shutil.rmtree(work, ignore_errors=True)
    ct = fresh_import()
    work.mkdir(parents=True)
    return ct, WORKLOADS[name](random.Random(seed), work, ct, quick)


def time_set_up(name: str, seed: int, quick: bool) -> Speed:
    """Seconds from the start of a fresh process to its first job.

    Each sample starts this script again with ``--set-up-only``: the
    interpreter starts, imports ``crosstnn``, writes the inputs as a
    measuring run does, and then says ``ready`` instead of starting the
    loop.  The clock stops when that line arrives; the child then removes
    its inputs and exits, and is waited for.  Returns the samples, each
    followed by its calibration.
    """
    argv = [sys.executable, str(BENCH / "run.py"), "--workload", name, "--seed", str(seed),
            "--set-up-only", "quick" if quick else "full"]
    speed = Speed(SETUP_CALIBRATION_SHARE)
    for _ in range(SETUP_SAMPLES):
        start = perf_counter()
        with subprocess.Popen(argv, stdout=subprocess.PIPE, text=True) as child:
            line = child.stdout.readline()
            seconds = perf_counter() - start
            child.communicate()
        if line != "ready\n" or child.returncode != 0:
            raise BenchError(f"set-up in a fresh process failed (exit {child.returncode})")
        speed.follow(seconds)
    return speed


def set_up_only(name: str, seed: int, quick: bool) -> int:
    """The child side of :func:`time_set_up`."""
    work = WORK / f"{name}-{os.getpid()}"
    try:
        set_up(name, seed, work, quick)
        sys.stdout.write("ready\n")
        sys.stdout.flush()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


# -- running and checking one job -------------------------------------


class Outcome:
    __slots__ = ("seconds", "codes", "returned", "chunks", "error")

    def __init__(self):
        self.codes, self.returned, self.chunks, self.error = [], [], [], None


def run_job(job, cli) -> Outcome:
    """The timed region: every step of one job, stdout captured per step."""
    out = Outcome()
    start = perf_counter()
    try:
        for step in job.steps:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
                if callable(step):
                    out.returned.append(step())
                else:
                    out.codes.append(cli.main(step))
            out.chunks.append(buf.getvalue())
    except Exception as exc:  # a job that raises is a failed job, not a crashed benchmark
        out.chunks.append(buf.getvalue())
        out.error = f"{type(exc).__name__}: {exc}"
    out.seconds = perf_counter() - start
    return out


def _sha256(chunks) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(len(chunk).to_bytes(8, "big"))
        h.update(chunk)
    return h.hexdigest()


class Checker:
    """Checks each finished job against expectations that do not come from it.

    ``stored`` maps a job fingerprint (its arguments and input bytes) to
    the digest of its stdout and artefact bytes recorded at the default
    seed.  With ``strict``, a job missing from ``stored`` fails too: its
    input changed.  Within one process a repeated job must also repeat
    its bytes, which is how the traced passes are held to the untraced one.
    """

    def __init__(self, work: Path, stored: dict, strict: bool):
        self.work = str(work)
        self.stored = stored
        self.strict = strict
        self.seen = {}
        self.groups = {}
        self.references = {}
        self.fingerprints = {}

    def fingerprint(self, job) -> str:
        key = id(job)
        if key not in self.fingerprints:
            parts = [b"\0".join(s.encode() for s in step).replace(self.work.encode(), b"<work>")
                     if not callable(step) else b"<library call>" for step in job.steps]
            parts += [Path(p).read_bytes() for p in job.inputs]
            self.fingerprints[key] = _sha256(parts)
        return self.fingerprints[key]

    def prepare(self, jobs) -> None:
        """Work out the expectations that need computing, outside set-up."""
        for job in jobs:
            if callable(job.expect):
                job.expect = job.expect()
            if job.reference is not None:
                self.references[id(job)] = job.reference()

    def digest(self, job, outcome: Outcome) -> tuple:
        artefacts = {}
        for path in job.artefacts:
            p = Path(path)
            artefacts[path] = p.read_bytes() if p.is_file() else None
        chunks = [c.encode("utf-8") for c in outcome.chunks]
        chunks += [b"<missing>" if a is None else a for a in artefacts.values()]
        return _sha256(chunks), artefacts

    def check(self, job, outcome: Outcome) -> tuple:
        """(failed, wrong, message): wrong means an answer came back and is wrong."""
        fp = self.fingerprint(job)
        digest, artefacts = self.digest(job, outcome)
        recorded = self.stored.get(fp)
        if recorded is None and self.strict:
            return True, True, "input differs from the one recorded at the default seed"
        if recorded is not None and recorded != digest:
            return True, True, "output bytes differ from those recorded at the default seed"
        first = self.seen.setdefault(fp, digest)
        if first != digest:
            return True, True, "output bytes differ from an earlier run of the same job"
        if outcome.error is not None:
            return True, False, f"raised {outcome.error}"
        for code, expect in zip(outcome.codes, job.expect):
            if expect is None:
                expect = self.groups.setdefault(job.group, code)
                if code != expect:
                    return True, True, f"exit {code} disagrees with {expect} from another method"
            elif code != expect:
                return True, True, f"exit {code}, expected {expect}"
        reference = self.references.get(id(job))
        if reference is not None and outcome.codes[-1] != reference:
            return True, True, f"exit {outcome.codes[-1]}, reference says {reference}"
        if not all(r is True for r in outcome.returned):
            return True, True, "library round trip did not reproduce the input"
        if job.steps[0][0] == "check" and outcome.codes[0] in VERDICT_BY_EXIT:
            if f"verdict: {VERDICT_BY_EXIT[outcome.codes[0]]}\n" not in outcome.chunks[0]:
                return True, True, "printed verdict does not match the exit code"
        if job.check is not None:
            problem = job.check({p: a for p, a in artefacts.items() if a is not None})
            if problem:
                return True, True, problem
        return False, False, None


# -- the closed loop --------------------------------------------------


class Loop:
    """Runs whole passes, one job at a time, and keeps what the metrics need."""

    def __init__(self, plan, cli, checker: Checker, started: float):
        self.jobs, self.cli, self.checker, self.started = plan.jobs, cli, checker, started
        self.mix = plan.mix
        self.speed = Speed(CALIBRATION_SHARE)
        self.attempted = self.failed = self.wrong = 0
        self.problems = {}

    def one_pass(self, trace=None) -> float:
        """One pass over the job list; returns its timed seconds."""
        timed = 0.0
        for job in self.jobs:
            for path in job.artefacts:
                Path(path).unlink(missing_ok=True)
            if trace is not None:
                trace.job = self.attempted
            outcome = run_job(job, self.cli)
            timed += outcome.seconds
            failed, wrong, message = self.checker.check(job, outcome)
            self.speed.follow(outcome.seconds)
            self.attempted += 1
            self.failed += failed
            self.wrong += wrong
            if failed:
                key = f"{job.kind}: {message}"
                self.problems[key] = self.problems.get(key, 0) + 1
        gc.collect()
        return timed

    def passes(self, seconds: float, trace=None) -> list:
        """Whole passes until ``seconds`` of job time; returns each pass's time."""
        times = []
        while True:
            pass_start = perf_counter()
            times.append(self.one_pass(trace))
            now = perf_counter()
            if sum(times) >= seconds or now - self.started + (now - pass_start) > WALL_BUDGET_S:
                return times


def _p90(samples) -> float:
    return statistics.quantiles(samples, n=10, method="inclusive")[8]


def run_workload(name: str, seed: int, seconds: float, trace: bool, quick: bool = False,
                 stored: dict | None = None) -> tuple:
    """Set up and measure one workload; returns (result, report lines, loop)."""
    started = perf_counter()
    spec = load_spec()
    if stored is None:
        stored = json.loads(DIGESTS.read_text(encoding="utf-8")) if DIGESTS.is_file() else {}
    work = WORK / f"{name}-{os.getpid()}"
    try:
        ct, plan = set_up(name, seed, work, quick)
        strict = seed == DEFAULT_SEED and not quick and bool(stored)
        checker = Checker(work, stored, strict)
        checker.prepare(plan.jobs)
        gc.collect()
        loop = Loop(plan, ct.cli, checker, started)
        lines = [f"workload {name} seed {seed}: {len(plan.jobs)} jobs per pass"]
        if trace:
            metrics = _traced(loop, name, seconds, spec, lines)
        else:
            setup = time_set_up(name, seed, quick)
            times = loop.passes(seconds)
            metrics = _untraced(loop, statistics.median(setup.finish()), spec)
            lines.append(f"{len(times)} passes, {loop.attempted} jobs, {sum(times):.3f} s timed;"
                         f" latency percentiles from {loop.attempted} samples")
            lines.append(f"mean speed factor {loop.speed.factor():.4f} over the jobs"
                         f" ({loop.speed.units} calibration units), {setup.factor():.4f} over"
                         f" set-up; as measured, job p50 {statistics.median(loop.speed.measured):.4f} s,"
                         f" set-up {statistics.median(setup.measured):.4f} s")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for problem, times in sorted(loop.problems.items()):
        lines.append(f"failed x{times}: {problem}")
    result = {
        "correct": loop.wrong == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": metrics,
    }
    return result, lines, loop


def _units(spec: dict, section: str) -> dict:
    return {m["name"]: m["unit"] for m in spec[section]}


def _untraced(loop: Loop, setup_s: float, spec: dict) -> dict:
    """End-to-end values; times are at the reference speed (see speed.py)."""
    ok = loop.attempted - loop.failed
    latencies = loop.speed.finish()
    values = {
        "setup_s": setup_s,
        "jobs_per_s": ok / sum(latencies),
        "job_p50_s": statistics.median(latencies),
        "job_p90_s": _p90(latencies),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ok_ratio": ok / loop.attempted,
    }
    units = _units(spec, "end_to_end")
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}


def _traced(loop: Loop, name: str, seconds: float, spec: dict, lines: list) -> dict:
    trace = tracer.Tracer()
    undo = tracer.install(trace)
    try:
        times = loop.passes(seconds, trace)
    finally:
        undo()
    # The first pass of a process runs slower; compare warm passes only.
    untraced_s = loop.one_pass()
    warm = times[1:] or times
    traced_s = sum(warm) / len(warm)
    passes, timed = len(times), sum(times)
    values = {"trace.overhead_ratio": untraced_s / traced_s}
    for k, layer in enumerate(trace.layers):
        values[f"{layer}.calls"] = trace.calls[k] / passes
        values[f"{layer}.self_s"] = trace.self_s[k] / passes
    for counter, total in trace.counters.items():
        values[counter] = total / passes
    RESULTS.mkdir(exist_ok=True)
    trace.write_spans(RESULTS / f"spans-{name}.jsonl")
    lines.append(f"{passes} traced passes ({traced_s:.3f} s each after the first),"
                 f" 1 untraced pass ({untraced_s:.3f} s); per traced pass, by self time:")
    lines.append(f"  {'layer':<38} {'self s':>9} {'share':>6} {'total s':>9} {'share':>6} {'calls':>9}")
    ranked = sorted(range(len(trace.layers)), key=lambda k: -trace.self_s[k])
    for k in ranked[:10]:
        lines.append(f"  {trace.layers[k]:<38} {trace.self_s[k] / passes:9.4f}"
                     f" {trace.self_s[k] / timed:6.1%} {trace.total_s[k] / passes:9.4f}"
                     f" {trace.total_s[k] / timed:6.1%} {trace.calls[k] / passes:9.0f}")
    units = _units(spec, "per_layer")
    return {m: {"value": values[m], "unit": unit} for m, unit in units.items()}


# -- maintenance modes ------------------------------------------------


def self_check() -> int:
    """Every workload at its smallest mix: untraced once, traced twice."""
    spec = load_spec()
    problems = []
    for name in WORKLOADS:
        runs = [run_workload(name, DEFAULT_SEED, 0, trace, quick=True) for trace in (0, 1, 1)]
        counts = []
        for trace, (result, lines, loop) in zip((0, 1, 1), runs):
            where = f"{name} --trace {trace}"
            section = "per_layer" if trace else "end_to_end"
            problems += _schema_problems(result, _units(spec, section), where)
            if loop.wrong:
                problems.append(f"{where}: wrong answers: {lines[1:]}")
            counts.append({k: v["value"] for k, v in result["metrics"].items()
                           if not k.endswith("_s") and k != "trace.overhead_ratio"})
        if counts[1] != counts[2]:
            problems.append(f"{name}: traced counts differ between two runs")
        result = runs[0][0]
        print(f"self-check {name}: {result['attempted']} jobs, {result['failed']} failed")
    for problem in problems:
        print(f"self-check problem: {problem}")
    print("self-check ok" if not problems else "self-check FAILED")
    return 0 if not problems else 1


def _schema_problems(result: dict, units: dict, where: str) -> list:
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(result)}")
    if not isinstance(result["correct"], bool):
        problems.append(f"{where}: correct is not a boolean")
    if not (isinstance(result["attempted"], int) and result["attempted"] >= 1):
        problems.append(f"{where}: attempted must be a whole number >= 1")
    if not (isinstance(result["failed"], int) and 0 <= result["failed"] <= result["attempted"]):
        problems.append(f"{where}: failed out of range")
    metrics = result["metrics"]
    if set(metrics) != set(units):
        problems.append(f"{where}: metric names differ from BENCHMARK.json:"
                        f" {sorted(set(metrics) ^ set(units))}")
    for name, entry in metrics.items():
        value = entry.get("value")
        if entry.get("unit") != units.get(name):
            problems.append(f"{where}: {name} has unit {entry.get('unit')!r}")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{where}: {name} is not a finite number")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true")
    parser.add_argument("--set-up-only", choices=("full", "quick"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        if args.self_check:
            return self_check()
        if args.workload is None:
            parser.error("--workload is required")
        if args.set_up_only:
            return set_up_only(args.workload, args.seed, args.set_up_only == "quick")
        result, lines, _ = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
