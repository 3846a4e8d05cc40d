"""Benchmark of the houghton conjugacy engine, one workload per process.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Times every operation in CPU seconds of this process and its reaped
children, checks every answer independently outside the timed region, and
prints one JSON object as the last line of standard output: the end-to-end
metrics with --trace 0, the per-layer metrics with --trace 1.  Failed and
wrong operations are listed on standard error.  See README.md.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import random
import resource
import shutil
import signal
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUPS = 9  # set-ups per run; setup_s is their median
ROUND_S = 10  # a run performs one round per ROUND_S seconds asked for
REF_CAL_S = 0.0018  # CPU seconds of the calibration loop at the reference speed
SAMPLE_S = 0.02  # wall seconds between two speed samples
SAMPLE_WINDOW = 5  # samples on either side of an op that its scale averages
TRACED_SAMPLE_S = 0.5  # the same in the traced pass, where samples land inside spans

sys.path.insert(0, str(HERE))
import spans  # noqa: E402
import workloads  # noqa: E402


def clock() -> float:
    """CPU seconds of this process plus its reaped children."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def _calibration_loop() -> None:
    table = {}
    for i in range(3000):
        p = (i & 7, i)
        table[p] = (p[0], p[1] + 1)
        table.get((i & 3, i - 1))


def speed_scale() -> float:
    """REF_CAL_S over the CPU time a fixed loop of tuple and dict work takes
    now: the factor that turns CPU seconds measured now into seconds at the
    reference speed.  Co-tenants on the same physical cores change the speed
    of this machine by up to 50 % for seconds at a time, which CPU time
    alone does not hide."""
    gc.disable()
    try:
        start = clock()
        _calibration_loop()
        return REF_CAL_S / (clock() - start)
    finally:
        gc.enable()


class Capped(BaseException):
    """Raised inside an operation that has used up its CPU budget."""


@dataclass
class Record:
    op: workloads.Op
    result: Any
    cpu_s: float
    status: str  # "done", "capped" or "error"
    pass_no: int
    scale: float  # Sampler.scale() of the samples around the op


class Sampler:
    """Times ops in CPU seconds and samples the machine's speed every
    `interval` wall seconds, from a SIGALRM handler, also while an op runs.

    The handler's own CPU time is left out of the op's.  It also stops an op
    that has used up its cap.  The timer is a wall-clock one: an armed
    CPU-time timer would coarsen the process clock to scheduler ticks.
    Wall time is never less than CPU time here, so a cap is never missed by
    more than one interval."""

    def __init__(self, interval: float):
        self.interval = interval
        self.samples: List[float] = []
        self.spent = 0.0  # CPU seconds spent sampling
        self.deadline: Optional[Tuple[float, float, float]] = None  # start, spent, cap
        self.busy = False

    def sample(self) -> None:
        self.busy = True
        start = clock()
        self.samples.append(speed_scale())
        self.spent += clock() - start
        self.busy = False

    def _on_alarm(self, signum, frame) -> None:
        if self.busy:
            return
        self.sample()
        if self.deadline is not None:
            start, spent, cap = self.deadline
            if clock() - start - (self.spent - spent) >= cap:
                self.deadline = None
                raise Capped

    def __enter__(self) -> "Sampler":
        self.previous = signal.signal(signal.SIGALRM, self._on_alarm)
        self.sample()
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self.previous)
        self.sample()

    def time(self, fn, cap: Optional[float]):
        """(result, status, CPU seconds, (number of speed samples when the
        op started, when it ended))."""
        first, spent, start = len(self.samples), self.spent, clock()
        self.deadline = (start, spent, cap) if cap else None
        try:
            result, status = fn(), "done"
        except Capped:
            result, status = None, "capped"
        except Exception:  # a failure of the program: count it, keep running
            result, status = traceback.format_exc(), "error"
        finally:
            self.deadline = None
        cpu_s = clock() - start - (self.spent - spent)
        return result, status, cpu_s, (first, len(self.samples))

    def scale(self, span: Tuple[int, int]) -> float:
        """Mean of the samples taken during an op and of SAMPLE_WINDOW
        samples on either side of it: one sample is too noisy alone."""
        return statistics.fmean(self.samples[max(span[0] - SAMPLE_WINDOW, 0):span[1] + SAMPLE_WINDOW])


def setup(workload: str, seed: int, work: Path):
    """Import houghton afresh and build the workload's operations."""
    for name in [m for m in sys.modules if m.split(".")[0] == "houghton"]:
        del sys.modules[name]
    H = importlib.import_module("houghton")
    return H, workloads.WORKLOADS[workload](H, seed, work)


def execute(ops: List[workloads.Op], passes: int, round_passes: int, cap: Optional[float],
            rng: Optional[random.Random], interval: float = SAMPLE_S, wrap=None) -> List[Record]:
    """Run every op once per pass, each pass in an order drawn from rng
    (in the given order without one).  An op stopped at the cap is not
    attempted again in the later passes of its round."""
    records: List[Record] = []
    sample_spans = []
    with Sampler(interval) as sampler:
        for p in range(passes):
            skip = {r.op.key for r in records if r.status == "capped" and r.pass_no // round_passes == p // round_passes}
            order = [op for op in ops if op.key not in skip]
            if rng is not None:
                rng.shuffle(order)
            for op in order:
                fn = op.run if wrap is None else (lambda run=op.run: wrap(run))
                result, status, cpu_s, samples = sampler.time(fn, cap)
                records.append(Record(op, result, cpu_s, status, p, 0.0))
                sample_spans.append(samples)
    for r, samples in zip(records, sample_spans):
        r.scale = sampler.scale(samples)
    return records


def charged(records: List[Record], cap: Optional[float]) -> List[float]:
    """The reference-speed CPU seconds charged to each record: the median
    of its op's completed timings in the run, or exactly the cap if it was
    stopped."""
    times: Dict[str, List[float]] = {}
    for r in records:
        if r.status == "done":
            times.setdefault(r.op.key, []).append(r.cpu_s * r.scale)
    medians = {key: statistics.median(values) for key, values in times.items()}
    return [cap if r.status == "capped" else medians.get(r.op.key, r.cpu_s * r.scale) for r in records]


def end_to_end(records: List[Record], cap: Optional[float], setup_times: List[float], rss_mb: float, wrong: int) -> Dict:
    times = charged(records, cap)
    good = sum(1 for r in records if r.status == "done") - wrong
    return {
        "ops_per_s": (good / sum(times), "1/s"),
        "op_ms_p50": (1000 * statistics.median(times), "ms"),
        "op_ms_p90": (1000 * statistics.quantiles(times, n=10)[8], "ms"),
        "peak_rss_mb": (rss_mb, "MB"),
        "setup_s": (statistics.median(setup_times), "s"),
    }


def per_layer(tracer: spans.Tracer, traced: List[Tuple[Record, Record]], classes: Dict[str, List[float]]) -> Dict:
    totals = tracer.totals()

    def calls(label):
        return totals.get(label, {"calls": 0})["calls"]

    def self_ms(label):
        return 1000 * totals.get(label, {"self_s": 0.0})["self_s"]

    out = {}
    for label in ("core.apply", "orbits.cycle_type", "oracle.verify"):
        out[label + ".calls"] = (calls(label), "count")
    for label in ("core.evaluate", "core.deserialize", "core.serialize", "conjugacy.conjugate"):
        out[label + ".self_ms"] = (self_ms(label), "ms")
    for label in (
        "core.conjugate_element", "core.inverse", "core.compose", "cli.main",
        "orbits.cycle_decomposition", "conjugacy.fsym_conjugate", "conjugacy.compute_bounds",
        "conjugacy.construct_translation_element", "conjugacy.verify", "oracle.brute_force_conjugator",
    ):
        out[label + ".calls"] = (calls(label), "count")
        out[label + ".self_ms"] = (self_ms(label), "ms")
    fsym = calls("conjugacy.fsym_conjugate")
    out["conjugacy.fsym_conjugate.hit_ratio"] = (tracer.fsym_hits[0] / fsym if fsym else 0.0, "ratio")
    for name in ("yes", "cheap_no", "searched_no", "capped"):
        times = classes[name]
        out["conjugacy.outcome.%s.count" % name] = (len(times), "count")
        out["conjugacy.outcome.%s.ms_p50" % name] = (1000 * statistics.median(times) if times else 0.0, "ms")
    out["trace.overhead_ratio"] = (
        sum(t.cpu_s * t.scale for _, t in traced) / sum(r.cpu_s * r.scale for r, _ in traced), "ratio")
    return out


def traced_pass(workload: str, seed: int, work: Path, untraced: List[Record], cap: Optional[float]):
    """Rebuild the inputs and re-run, under the tracer and in the same
    order, the ops of the first untraced pass that completed.  Ops that hit
    the cap are not re-run, so call counts do not depend on where the cap
    fell.  Outcome classes are timed by their untraced charge."""
    first = [(r, t) for r, t in zip(untraced, charged(untraced, cap)) if r.pass_no == 0 and r.status != "error"]
    done = [(r, t) for r, t in first if r.status == "done"]
    tracer = spans.Tracer()
    tracer.install()
    try:
        ops = {op.key: op for op in workloads.WORKLOADS[workload](sys.modules["houghton"], seed, work)}
        traced = execute([ops[r.op.key] for r, _ in done], 1, 1, None, None, TRACED_SAMPLE_S, tracer.root())
    finally:
        tracer.uninstall()
    classes: Dict[str, List[float]] = {"yes": [], "cheap_no": [], "searched_no": []}
    classes["capped"] = [r.cpu_s for r, _ in first if r.status == "capped"]  # as stopped, unscaled
    candidates = tracer.calls_per_root("conjugacy.fsym_conjugate")
    for (r, cpu_s), rec, tested in zip(done, traced, candidates):
        yes = rec.op.is_yes(rec.result) if rec.status == "done" else None
        if yes is not None:
            classes["yes" if yes else "searched_no" if tested else "cheap_no"].append(cpu_s)
    return tracer, list(zip((r for r, _ in done), traced)), classes


def wrong_keys(records: List[Record]) -> List[str]:
    """Keys of completed ops whose answer fails its independent check."""
    return [r.op.key for r in records if r.status == "done" and not r.op.judge(r.result)]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "houghton" / "__init__.py").is_file():
        print("error: no houghton sources under %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.dont_write_bytecode = True  # every set-up compiles houghton alike

    work = OUT / ("work-%d" % os.getpid())
    work.mkdir(parents=True, exist_ok=True)
    try:
        setup_times = []
        for _ in range(SETUPS):
            before = speed_scale()
            start = clock()
            H, ops = setup(args.workload, args.seed, work)
            setup_times.append((clock() - start) * (before + speed_scale()) / 2)
        rounds = max(1, round(args.seconds / ROUND_S))
        round_passes = workloads.PASSES[args.workload]
        cap = workloads.CAP_S if args.workload == "same_invariant" else None
        records = execute(ops, rounds * round_passes, round_passes, cap, random.Random(args.seed))
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        wrong = wrong_keys(records)
        if args.trace:
            tracer, traced, classes = traced_pass(args.workload, args.seed, work, records, cap)
            wrong_traced = wrong_keys([rec for _, rec in traced])
            metrics = per_layer(tracer, traced, classes)
            tracer.write(OUT / ("spans-%s-%d.tsv.gz" % (args.workload, args.seed)))
        else:
            wrong_traced = []
            metrics = end_to_end(records, cap, setup_times, rss_mb, len(wrong))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = [r for r in records if r.status != "done"]
    for r in failed:
        if r.status == "error":
            print("error in %s:\n%s" % (r.op.key, r.result), file=sys.stderr)
    print(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "failed_keys": sorted({r.op.key for r in failed}),
        "wrong_keys": sorted(set(wrong + wrong_traced)),
        "cpu_s": sum(r.cpu_s for r in records),
        "speed_scale": statistics.median(r.scale for r in records),
    }), file=sys.stderr)
    print(json.dumps({
        "correct": not (wrong or wrong_traced),
        "attempted": len(records),
        "failed": len(failed) + len(wrong),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
