"""Benchmark for wondersys: end-to-end metrics per workload, or per-layer metrics from a traced run.

Run from the repository root:

    python3 perfbench/run.py --workload batch-small --seed 1 --seconds 20 --trace 0

Workloads (see BENCHMARK.json for why each is there):
  batch-small     ~1000 small direct sums, a fifth of them invalid mutants, in one process
  wide-sums       rank 24-48 sums of primitives on at most 3 nodes, in one process
  big-components  each A/B/C chain of rank 4-8 summed with each colored D/E/F/B/C flag, in one process
  cli-oneshot     one CLI child per op, with PYTHONPATH=src: cli_child.py times the
                  calibration loop, then runs wondersys.cli as `python -m` does

The load is closed-loop with a single caller.  An op is one system through
the workload's pipeline, or one CLI child.  Ops run in whole passes over the
workload's corpus until --seconds have passed and at least MIN_OPS ops ran.
Each op is timed from its first call into the program to its last; its
results are checked afterwards, outside the timed region.  Times are
rescaled to a reference machine speed by a calibration loop (speed.py),
timed between segments of ops in this process, and inside each child for
child processes; the median factor is printed as `speed_scale`.  The bare
interpreter start (cli.interpreter_ms) cannot time the loop and is as measured.

--trace 0 prints the end-to-end metrics: ops_per_s (median over passes of
ops / summed op time), op_ms_p50 and op_ms_p90 (over every op), setup_s
(median of SETUP_REPS set-ups, each an import of the package in a fresh
interpreter plus corpus generation, document writing and warm-up) and
peak_rss_mb (of this process, or of the largest CLI child).  failed_ratio
is printed too; the result line carries it as `failed` / `attempted`.

--trace 1 alternates untraced and traced passes over the same corpus.  The
traced passes wrap each layer's public functions (tracing.py) and give the
per-layer metrics, each per corpus pass, so counts repeat exactly for a
seed.  trace.overhead_ratio is traced op time over untraced op time.

The last line of stdout is one JSON object: correct, attempted, failed, metrics.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

START = time.perf_counter()
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOADS = ("batch-small", "wide-sums", "big-components", "cli-oneshot")
MIN_OPS = 100
SETUP_REPS = 5
SEGMENT_S = 0.25  # ops between two calibrations
HARD_LIMIT_S = 140.0  # stop measuring mid-pass past this, to exit well within 180 s
CHILD_TIMEOUT_S = 60.0
WARMUP_OPS = {"batch-small": 20, "wide-sums": 1, "big-components": 2, "cli-oneshot": 2}


_BATCH_LAYERS = {
    "serialize.loads", "serialize.document_to_system", "serialize.dumps",
    "sphsys.validate_system", "rigidity.distinguished_elements", "rigidity.critical_roots",
    "localize.localize", "rootlat.RootSystem", "rootlat.detect_subdiagram_type",
}
_ORBITS = {"orbits.orbit_poset", "orbits.emit_graph"}
# Layers that must see calls on each workload: zero calls fails the traced run,
# so a renamed function cannot hide a layer.
PREDICTED = {
    "batch-small": _BATCH_LAYERS | _ORBITS,
    "wide-sums": _BATCH_LAYERS,
    "big-components": _BATCH_LAYERS | _ORBITS | {"rootlat.positive_roots"},
    "cli-oneshot": (_BATCH_LAYERS - {"serialize.loads", "serialize.dumps"})
    | _ORBITS | {"catalog.catalog_entry"},
}


def nearest_rank(sorted_values, q: float) -> float:
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC))


def child_ms(argv, from_stdout: bool = False) -> float:
    """Wall time of a child process in ms, or the number it prints."""
    t = time.perf_counter()
    proc = subprocess.run(argv, cwd=ROOT, env=child_env(), capture_output=True,
                          text=True, timeout=CHILD_TIMEOUT_S, check=True)
    return float(proc.stdout) if from_stdout else (time.perf_counter() - t) * 1e3


def interpreter_ms() -> float:
    """Median start-up time of a bare interpreter."""
    return statistics.median(child_ms([sys.executable, "-c", "pass"]) for _ in range(7))


def import_ms(module: str) -> float:
    """Time to import `module` in a fresh interpreter, in ms at reference speed."""
    code = (f"import sys, time; sys.path.insert(0, {str(HERE)!r}); import speed; "
            "f = speed.REFERENCE_S / speed.loop_seconds(3); t = time.perf_counter(); "
            f"import {module}; print((time.perf_counter() - t) * 1e3 * f)")
    return child_ms([sys.executable, "-c", code], from_stdout=True)


def run_context(ranks, invalid_share, repeat_share, interp_ms, op_scale) -> dict:
    from corpus import rank_histogram

    digest = hashlib.sha256()
    for path in sorted((SRC / "wondersys").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "commit": read_commit(),
        "src_sha256": digest.hexdigest()[:16],
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "cli.interpreter_ms": round(interp_ms, 3),
        "speed_scale": round(statistics.median(op_scale), 4),
        "rank_histogram": rank_histogram(ranks),
        "invalid_share": round(invalid_share, 4),
        "shape_repeat_share": round(repeat_share, 4),
    }


def read_commit():
    """HEAD of the checkout when it is a git work tree, else None."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


class InProcess:
    """batch-small, wide-sums and big-components: every op runs in this process."""

    def __init__(self, name: str, seed: int):
        self.name, self.seed = name, seed
        self.orbits = name != "wide-sums"
        self.roots = name == "big-components"

    def build(self, work: Path) -> None:
        import corpus

        maker = {"batch-small": corpus.batch_small, "wide-sums": corpus.wide_sums,
                 "big-components": corpus.big_components}[self.name]
        self.ops = maker(self.seed)

    def warmup_ops(self):
        return sorted(self.ops, key=lambda c: c.rank)[:WARMUP_OPS[self.name]]

    def properties(self):
        from corpus import shape_repeat_share

        return ([c.rank for c in self.ops], sum(not c.valid for c in self.ops) / len(self.ops),
                shape_repeat_share([c.shape for c in self.ops]))

    def run(self, index: int, case, tracer):
        """Returns (seconds, failure or None, None): the pass rescales the seconds."""
        from pipeline import batch_op, check_batch

        start = time.perf_counter()
        try:
            result = batch_op(case, self.orbits, self.roots)
        except Exception as exc:  # an op that raises is a failed op
            return time.perf_counter() - start, f"raised {exc!r}", None
        elapsed = time.perf_counter() - start
        if tracer is not None:
            tracer.enabled = False
        try:
            return elapsed, check_batch(case, result), None
        except Exception as exc:
            return elapsed, f"check raised {exc!r}", None
        finally:
            if tracer is not None:
                tracer.enabled = True

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class CliOneshot:
    """cli-oneshot: one CLI child per op, documents written to a work directory."""

    name = "cli-oneshot"

    def __init__(self, seed: int):
        self.seed = seed
        self.bytes_in = 0
        self.import_times = []

    def build(self, work: Path) -> None:
        from corpus import cli_mix

        self.work = work
        self.ops = cli_mix(self.seed)
        for i, op in enumerate(self.ops):
            if op.doc is not None:
                (work / f"doc{i}.json").write_text(op.doc, encoding="utf-8")

    def warmup_ops(self):
        return self.ops[:WARMUP_OPS[self.name]]

    def properties(self):
        from corpus import shape_repeat_share

        known = [op.expect for op in self.ops if op.expect is not None]
        return ([c.rank for c in known], sum(op.exit_code != 0 for op in self.ops) / len(self.ops),
                shape_repeat_share([c.shape for c in known]))

    def run(self, index: int, op, tracer):
        """Returns (seconds, failure or None, the child's own speed factor)."""
        from pipeline import check_cli, cli_args
        from speed import REFERENCE_S

        doc, dot = self.work / f"doc{index}.json", self.work / "orbits.dot"
        out = self.work / "child.json"
        for stale in (dot, out):
            stale.unlink(missing_ok=True)
        flags = ["--trace"] if tracer is not None else []
        argv = [sys.executable, str(HERE / "cli_child.py"), str(out), *flags, "--",
                *cli_args(op, str(doc), str(dot))]
        start = time.perf_counter()
        try:
            proc = subprocess.run(argv, cwd=ROOT, env=child_env(), capture_output=True,
                                  text=True, timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return time.perf_counter() - start, "timed out", None
        elapsed = time.perf_counter() - start
        if not out.exists():
            return elapsed, f"child wrote no {out.name}: {proc.stderr[-200:]!r}", None
        data = json.loads(out.read_text(encoding="utf-8"))
        if tracer is not None:
            tracer.absorb(data, tracer.current_op)
            self.import_times.append((tracer.current_op, data["import_ms"]))
            if op.doc is not None:
                self.bytes_in += len(op.doc.encode())
        text = dot.read_text(encoding="utf-8") if dot.exists() else None
        return (elapsed - data["calibration_s"], check_cli(op, proc.returncode, proc.stdout, text),
                REFERENCE_S / data["loop_s"])

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024


def one_pass(workload, tracer, speed, op_scale):
    """Run every op once; returns (op seconds at reference speed, failures).

    op_scale[k] receives the speed factor applied to the k-th op of the run,
    which is also the op id the tracer tags spans with.
    """
    times, own, failures = [], [], []
    segment, seg_start = 0, time.perf_counter()

    def rescale():
        f = speed.factor()
        for k in range(segment, len(times)):
            scale = f if own[k] is None else own[k]
            times[k] *= scale
            op_scale.append(scale)

    for i, op in enumerate(workload.ops):
        if time.perf_counter() - START > HARD_LIMIT_S:
            break
        if tracer is not None:
            tracer.current_op = len(op_scale) + len(times) - segment
        elapsed, failure, factor = workload.run(i, op, tracer)
        times.append(elapsed)
        own.append(factor)
        if failure is not None:
            failures.append(failure)
        if time.perf_counter() - seg_start >= SEGMENT_S:
            rescale()
            segment, seg_start = len(times), time.perf_counter()
    if segment < len(times):
        rescale()
    return times, failures


def another_pass(start: float, seconds: float, last: float, enough: bool) -> bool:
    """Whether to start another pass (or pair of passes) lasting about `last` seconds.

    Passes run until `seconds` have elapsed, but once `enough` work is done a
    pass that would end more than a fifth past `seconds` is not started.
    """
    if time.perf_counter() - START > HARD_LIMIT_S:
        return False
    elapsed = time.perf_counter() - start
    return not enough or (elapsed < seconds and elapsed + last <= 1.2 * seconds)


def measure(workload, seconds: float, speed, op_scale):
    """Untraced whole passes for about `seconds` and at least MIN_OPS ops."""
    latencies, rates, failures = [], [], []
    start = last = time.perf_counter()
    while another_pass(start, seconds, time.perf_counter() - last, len(latencies) >= MIN_OPS):
        last = time.perf_counter()
        times, bad = one_pass(workload, None, speed, op_scale)
        latencies += times
        failures += bad
        if len(times) == len(workload.ops):
            rates.append(len(times) / sum(times))
    return latencies, rates, failures


def measure_traced(workload, seconds: float, tracer, speed, op_scale):
    """Alternate untraced and traced passes for about `seconds`, at least one pair.

    Returns (traced/untraced time ratios, traced passes, failures, attempted).
    """
    ratios, failures, attempted, passes = [], [], 0, 0
    start = last = time.perf_counter()
    while another_pass(start, seconds, time.perf_counter() - last, passes >= 1):
        last = time.perf_counter()
        plain, bad = one_pass(workload, None, speed, op_scale)
        failures += bad
        tracer.install()
        try:
            traced, bad = one_pass(workload, tracer, speed, op_scale)
        finally:
            tracer.uninstall()
        failures += bad
        attempted += len(plain) + len(traced)
        if len(traced) == len(plain) == len(workload.ops):
            ratios.append(sum(traced) / sum(plain))
            passes += 1
    return ratios, passes, failures, attempted


def setup(workload, work: Path, speed) -> float:
    """One set-up: import the package in a fresh interpreter (a process
    imports once), build the corpus and its documents, run the warm-up ops."""
    imported = import_ms("wondersys") / 1e3
    start, children = time.perf_counter(), 0.0
    workload.build(work)
    for i, op in enumerate(workload.warmup_ops()):
        t = time.perf_counter()
        elapsed, _, factor = workload.run(i, op, None)
        if factor is not None:  # a child that rescaled itself
            children += elapsed * factor
            start += time.perf_counter() - t
    return imported + children + (time.perf_counter() - start) * speed.factor()


def layer_metrics(tracer, passes: int, workload, op_scale) -> dict:
    summary = tracer.summary(op_scale)
    missing = sorted(n for n in PREDICTED[workload.name] if summary[n][0] == 0)
    if missing:
        raise SystemExit(f"traced run saw no calls to {', '.join(missing)} on {workload.name}")
    metrics = {}
    for name, (calls, self_s) in summary.items():
        metrics[f"{name}.calls"] = (calls / passes, "count/pass")
        metrics[f"{name}.self_ms"] = (self_s * 1e3 / passes, "ms/pass")
    counters = dict(tracer.counters)
    if isinstance(workload, CliOneshot):
        counters["serialize.bytes_in"] = workload.bytes_in
    for name, value in counters.items():
        metrics[name] = (value / passes, "bytes/pass" if name.endswith("bytes_in") else "count/pass")
    localizations = tracer.localizations_under("rigidity.critical_roots") / passes
    open_roots = counters["rigidity.open_roots"] / passes
    metrics["rigidity.localizations"] = (localizations, "count/pass")
    metrics["rigidity.localizations_per_root"] = (
        localizations / open_roots if open_roots else 0.0, "ratio")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "wondersys" / "__init__.py").is_file():
        print(f"no wondersys sources under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    workload = (CliOneshot(args.seed) if args.workload == "cli-oneshot"
                else InProcess(args.workload, args.seed))
    work = Path(tempfile.mkdtemp(prefix=".perfbench-work-", dir=ROOT))
    try:
        return run(workload, args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def run(workload, args, work: Path) -> int:
    print(f"workload {workload.name}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}")
    from speed import Speed

    speed = Speed(rescale=not isinstance(workload, CliOneshot))
    if not args.trace:
        setup_s = statistics.median(setup(workload, work, speed) for _ in range(SETUP_REPS))
        op_scale = []
        latencies, rates, failures = measure(workload, args.seconds, speed, op_scale)
        attempted = len(latencies)
        ordered = sorted(latencies)
        metrics = {
            "ops_per_s": (statistics.median(rates) if rates else attempted / sum(latencies), "1/s"),
            "op_ms_p50": (nearest_rank(ordered, 0.5) * 1e3, "ms"),
            "op_ms_p90": (nearest_rank(ordered, 0.9) * 1e3, "ms"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (workload.peak_rss_mb(), "MB"),
        }
        beyond = attempted - math.ceil(0.9 * attempted)
        notes = {"ops_per_s": f"median of {len(rates)} passes of {len(workload.ops)} ops",
                 "op_ms_p50": f"{attempted} samples",
                 "op_ms_p90": f"{attempted} samples, {beyond} beyond p90",
                 "setup_s": f"median of {SETUP_REPS} set-ups"}
    else:
        from tracing import Tracer

        setup(workload, work, speed)
        tracer, op_scale = Tracer(), []
        ratios, passes, failures, attempted = measure_traced(
            workload, args.seconds, tracer, speed, op_scale)
        if not passes:
            print("no complete traced pass", file=sys.stderr)
            return 1
        metrics = layer_metrics(tracer, passes, workload, op_scale)
        metrics["trace.overhead_ratio"] = (statistics.median(ratios), "ratio")
        if isinstance(workload, CliOneshot):
            imports = [ms * op_scale[op] for op, ms in workload.import_times]
        else:
            imports = [import_ms("wondersys.cli") for _ in range(5)]
        metrics["cli.import_ms"] = (statistics.median(imports), "ms")
        out = ROOT / ".perfbench-out"
        out.mkdir(exist_ok=True)
        tracer.dump(out / f"trace-{workload.name}.json")
        notes = {"trace.overhead_ratio": f"median of {passes} traced/untraced pass pairs"}

    interp_ms = interpreter_ms()
    if args.trace:
        metrics["cli.interpreter_ms"] = (interp_ms, "ms")
    for name, (value, unit) in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:40s} {value:14.4f} {unit}{note}")
    print(f"  {'failed_ratio':40s} {len(failures) / max(attempted, 1):14.4f} ratio"
          f"  ({len(failures)} of {attempted} ops)")
    for failure in failures[:5]:
        print(f"  failed: {failure}")
    ranks, invalid_share, repeat_share = workload.properties()
    print("context " + json.dumps(run_context(ranks, invalid_share, repeat_share, interp_ms, op_scale)))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
