"""Benchmark of the tunelz command line.

Usage, from the root of a tunelz checkout:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see bench/README.md for why each exists):

    corpus-dump    tunelz corpus --dump D --format json on a generated dump
    baseline-grid  tunelz baseline on the paper's length grid
    analyze-abc    tunelz analyze --format csv --baseline C on large ABC files
    cli-single     normalize, compress (LZ77 text, LZ78 JSON) and decompress
                   of single tunes, one command at a time

Every workload is a closed loop with one client: each command starts
only after the previous one has exited.  With ``--trace 0`` the commands
run as subprocesses of ``python3 -m tunelz.cli`` (the package is taken
from ``src/`` of the checkout) and the end-to-end metrics are reported,
with times scaled to a fixed host speed by a reference loop.  With
``--trace 1`` the same commands run in-process through
``tunelz.cli.main``, alternating untraced and traced repetitions, and
the per-layer metrics are reported.  Inputs are generated from the seed
under ``.bench_work/<workload>/``; generation is not timed.

Every output is checked against the generator's plan or the
benchmark's own oracle.  The last line of stdout is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` (checks) and ``metrics``.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable

import checks
import generate
import tracing

BASELINE_LENGTHS = [50, 96, 100, 128, 150, 200]
SIZES = {
    "corpus-dump": {"entries": 600},
    "baseline-grid": {"lengths": BASELINE_LENGTHS, "samples": 300},
    "analyze-abc": {"files": 4, "tunes_per_file": 150},
    "cli-single": {"tunes": 5},
}
SETUP_REPEATS = 15
# The reference loop's time on an idle core of the 2-core x86-64 host the
# benchmark was tuned on; scaled times are seconds at that speed.
REFERENCE_S = 0.015
END_TO_END = (
    ("items_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)


@dataclass
class Step:
    """One tunelz command.  ``check`` sees its first output; later runs
    of the same ``key`` must repeat that output byte for byte."""

    key: str
    argv: list[str]
    check: Callable[[checks.Tally, int, str, str], None]
    save: Callable[[str], None] | None = None


class Workload:
    """The commands of one repetition (``unit``) and the items each handles."""

    def __init__(self, name: str, plan: dict, work: Path, seed: int):
        self.plan = plan
        self.work = work
        self.seed = seed
        self._normalized: dict[int, str] = {}
        build = {
            "corpus-dump": self._corpus,
            "baseline-grid": self._baseline,
            "analyze-abc": self._analyze,
            "cli-single": self._single,
        }[name]
        self.items, self._units = build()

    def unit(self, i: int) -> list[Step]:
        return self._units[i % len(self._units)]

    def _checked(self, what, content):
        plan = self.plan

        def check(t, code, out, err):
            checks.exit_code(t, code, plan, what)
            checks.rejections(t, err, plan)
            content(t, out)

        return check

    def _corpus(self):
        argv = ["corpus", "--dump", self.plan["dump"], "--format", "json"]
        check = self._checked("corpus", lambda t, out: checks.corpus_json(t, out, self.plan))
        return self.plan["entries"], [[Step("corpus", argv, check)]]

    def _baseline(self):
        lengths = self.plan["lengths"]
        argv = ["baseline", "--lengths", ",".join(map(str, lengths)), "--alphabet", "13",
                "--samples", str(self.plan["samples"]),
                "--seed", str(self.plan["baseline_seed"]), "--format", "json"]
        check = self._checked("baseline", lambda t, out: checks.baseline_json(t, out, lengths))
        return len(lengths) * self.plan["samples"], [[Step("baseline", argv, check)]]

    def _analyze(self):
        curve = self.work / "curve.json"
        curve.write_text(json.dumps({
            "alphabet_size": 13,
            "samples_per_length": 1000,
            "rng_seed": 0,
            "points": [{"length": n, "mean_ratio": m, "std_dev": 0.0}
                       for n, m in sorted(checks.PAPER_BASELINE.items())],
        }), encoding="utf-8")
        argv = ["analyze", "--format", "csv", "--baseline", str(curve),
                "--normalize-to", str(checks.REFERENCE_LENGTH), *self.plan["files"]]
        check = self._checked(
            "analyze", lambda t, out: checks.analyze_csv(t, out, self.plan, self.seed))
        return self.plan["entries"], [[Step("analyze", argv, check)]]

    def _single(self):
        units = []
        for k, (path, tune) in enumerate(zip(self.plan["files"], self.plan["accepted"])):
            lz77_file = self.work / f"tune{k + 1}.lz77.txt"
            lz78_file = self.work / f"tune{k + 1}.lz78.json"
            units.append([
                Step(f"normalize:{k}", ["normalize", path],
                     self._checked("normalize", self._keep_symbols(k, tune))),
                Step(f"lz77:{k}", ["compress", path],
                     self._checked("compress", lambda t, out, tune=tune:
                                   checks.lz77_text(t, out, tune)),
                     lambda out, f=lz77_file: f.write_text(out.split("\n")[0] + "\n")),
                Step(f"lz78:{k}", ["compress", "--algo", "lz78", "--format", "json", path],
                     self._checked("compress", lambda t, out, tune=tune:
                                   checks.lz78_json(t, out, tune)),
                     lambda out, f=lz78_file: f.write_text(out)),
                Step(f"unlz77:{k}", ["decompress", str(lz77_file)],
                     self._checked("decompress", self._matches_normalized(k, "lz77"))),
                Step(f"unlz78:{k}", ["decompress", str(lz78_file)],
                     self._checked("decompress", self._matches_normalized(k, "lz78"))),
            ])
        return 1, units

    def _keep_symbols(self, k, tune):
        def content(t, out):
            checks.normalize_text(t, out, tune)
            self._normalized[k] = out.rstrip("\n").split("\t")[-1]
        return content

    def _matches_normalized(self, k, algo):
        def content(t, out):
            checks.decompressed(t, out, self._normalized.get(k, ""),
                                f"decompress {algo} tune {k + 1}")
        return content


class Verifier:
    """Runs content checks on a command's first output, determinism after."""

    def __init__(self):
        self.tally = checks.Tally()
        self._first: dict[str, tuple[int, str, str]] = {}

    def __call__(self, step: Step, code: int, out: str, err: str) -> None:
        seen = self._first.get(step.key)
        if seen is None:
            self._first[step.key] = (code, out, err)
            step.check(self.tally, code, out, err)
        else:
            self.tally.check(seen == (code, out, err),
                             f"{step.key}: output differs from the first run")


# ------------------------------------------------------------- subprocesses


def reference_loop() -> float:
    """Seconds taken by a fixed pure-Python loop: the yardstick of host speed."""
    start = perf_counter()
    counts: dict[int, int] = {}
    for i in range(60000):
        counts[i % 977] = counts.get(i % 977, 0) + i * i
        str(i)
    return perf_counter() - start


@dataclass
class Call:
    """One finished command.  ``scaled`` is its wall time divided by the
    reference loop's time around it, in seconds at ``REFERENCE_S``."""

    wall: float
    scaled: float
    code: int
    out: str
    err: str
    rss_mb: float


class Subprocesses:
    """Runs ``python3 -m tunelz.cli`` with the checkout's ``src`` first on the path.

    The reference loop runs between commands, so each command sits between
    two of its timings.  On a shared host the speed of the CPU changes by up
    to 2x for minutes at a time; the ratio to the neighbouring reference
    times cancels most of that (see README.md).
    """

    def __init__(self, src: Path, work: Path):
        self.work = work
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(src), os.environ.get("PYTHONPATH")) if p)
        self._reference = reference_loop()

    def run(self, argv: list[str]) -> Call:
        out_path, err_path = self.work / "stdout.txt", self.work / "stderr.txt"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = perf_counter()
            proc = subprocess.Popen([sys.executable, "-m", "tunelz.cli", *argv],
                                    stdout=out, stderr=err, cwd=self.work, env=self.env)
            # wait4 gives the peak RSS of this child alone, unlike RUSAGE_CHILDREN.
            _, status, usage = os.wait4(proc.pid, 0)
            wall = perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        before, self._reference = self._reference, reference_loop()
        return Call(
            wall=wall,
            scaled=wall * REFERENCE_S * 2 / (before + self._reference),
            code=proc.returncode,
            out=out_path.read_text(encoding="utf-8", errors="replace"),
            err=err_path.read_text(encoding="utf-8", errors="replace"),
            rss_mb=usage.ru_maxrss / 1024,
        )


def measure_setup(procs: Subprocesses) -> float:
    """Median scaled time of a bare ``--help``: start-up, import, parser build."""
    procs.run(["--help"])  # compiles bytecode in a fresh checkout
    return statistics.median(procs.run(["--help"]).scaled for _ in range(SETUP_REPEATS))


def run_untraced(workload: Workload, procs: Subprocesses, seconds: float,
                 verify: Verifier) -> dict:
    """Run repetitions until ``seconds`` have passed; report scaled medians."""
    rates, scaled, walls, peaks = [], [], [], []
    start = perf_counter()
    i = 0
    while i == 0 or perf_counter() - start < seconds:
        unit_time, unit_peak = 0.0, 0.0
        for step in workload.unit(i):
            call = procs.run(step.argv)
            verify(step, call.code, call.out, call.err)
            if step.save:
                step.save(call.out)
            scaled.append(call.scaled)
            walls.append(call.wall)
            unit_time += call.scaled
            unit_peak = max(unit_peak, call.rss_mb)
        rates.append(workload.items / unit_time)
        peaks.append(unit_peak)
        i += 1
    return {
        "items_per_s": statistics.median(rates),
        "latency_p50_ms": statistics.median(scaled) * 1e3,
        "latency_p90_ms": tracing.percentile(scaled, 0.9) * 1e3,
        "peak_rss_mb": statistics.median(peaks),
        "repetitions": i,
        "invocations": len(scaled),
        "wall_p50_ms": statistics.median(walls) * 1e3,
    }


# ------------------------------------------------------------------ tracing


def run_traced(workload: Workload, src: Path, seconds: float, verify: Verifier) -> dict:
    sys.path.insert(0, str(src))
    import tunelz.cli as cli

    if not Path(cli.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"tunelz was imported from {cli.__file__}, not from {src}")
    tracer = tracing.Tracer()
    walls = {False: [], True: []}
    steps_per_rep = []
    start = perf_counter()
    i = 0
    while i == 0 or perf_counter() - start < seconds:
        for traced in (False, True):
            wall = 0.0
            if traced:
                tracer.begin_rep()
                steps_per_rep.append(len(workload.unit(i)))
            with tracer.installed() if traced else nullcontext():
                for step in workload.unit(i):
                    out, err = io.StringIO(), io.StringIO()
                    with redirect_stdout(out), redirect_stderr(err):
                        t0 = perf_counter()
                        code = cli.main(step.argv)
                        wall += perf_counter() - t0
                    verify(step, code, out.getvalue(), err.getvalue())
                    if step.save:
                        step.save(out.getvalue())
            walls[traced].append(wall)
        i += 1
    tracer.write(workload.work / "spans.json")

    metrics = tracer.metrics()
    traced_wall = statistics.median(walls[True])
    untraced_wall = statistics.median(walls[False])
    overhead = traced_wall - untraced_wall
    metrics["trace.traced_wall_s"] = traced_wall
    metrics["trace.untraced_wall_s"] = untraced_wall
    metrics["trace.overhead_ratio"] = overhead / untraced_wall
    # Self times partition the traced wall time; what is left over is
    # time outside cli.main, which must stay within the tracing overhead.
    for wall, own, steps in zip(walls[True], tracer.rep_self_totals(), steps_per_rep):
        gap = wall - own
        verify.tally.check(-1e-6 <= gap <= max(overhead, 0.0) + 50e-6 * steps,
                           f"self times sum to {own:.6f} s of {wall:.6f} s traced")
    metrics["repetitions"] = i
    return metrics


# --------------------------------------------------------------------- main


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=tuple(SIZES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    src = root / "src"
    if not (src / "tunelz" / "cli.py").is_file():
        print(f"bench: no tunelz sources under {src}; run from a checkout root",
              file=sys.stderr)
        return 2
    work = root / ".bench_work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    plan = generate.make_inputs(args.workload, args.seed, work, SIZES[args.workload])
    workload = Workload(args.workload, plan, work, args.seed)
    verify = Verifier()

    if hasattr(os, "sched_setaffinity"):
        # The reference loop and the commands it scales share one CPU.
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    if args.trace:
        measured = run_traced(workload, src, args.seconds, verify)
        names = tracing.PER_LAYER
    else:
        procs = Subprocesses(src, work)
        setup_s = measure_setup(procs)
        measured = run_untraced(workload, procs, args.seconds, verify)
        measured["setup_s"] = setup_s
        names = END_TO_END
    metrics = {name: {"value": measured[name], "unit": unit} for name, unit, *_ in names}

    tally = verify.tally
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{measured['repetitions']} repetitions, closed loop, one client")
    planned = {k: plan[k] for k in ("entries", "accepted_by_category", "rejected_by_kind")
               if k in plan}
    if planned:
        print(f"planned inputs: {json.dumps(planned)}")
    for name, unit, *_ in names:
        print(f"  {name:42s} {measured[name]:>14.6g} {unit}")
    if not args.trace:
        print(f"  latency samples: {measured['invocations']} invocations; unscaled "
              f"median wall time {measured['wall_p50_ms']:.6g} ms")
    print(f"  error_rate {tally.failed / tally.attempted:.6g} "
          f"({tally.failed} of {tally.attempted} checks failed)")
    for failure in tally.failures:
        print(f"  FAILED: {failure}")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    (work / "result.json").write_text(json.dumps(result, indent=1), encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
