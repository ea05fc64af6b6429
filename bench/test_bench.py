"""Tests of the benchmark itself: seeded inputs and the checks behind error_rate.

Run from the repository root with ``python3 -m unittest discover -s bench``
(or ``python3 -m pytest bench``).
"""

from __future__ import annotations

import io
import json
import sys
import tempfile
import unittest
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import generate  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from tunelz import cli  # noqa: E402

SMALL = {
    "corpus-dump": {"entries": 100},
    "analyze-abc": {"files": 2, "tunes_per_file": 50},
    "cli-single": {"tunes": 3},
    "baseline-grid": {"lengths": run.BASELINE_LENGTHS, "samples": 300},
}


def _files(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir()) if p.name != "plan.json"}


def _without_paths(plan: dict) -> dict:
    return {k: v for k, v in plan.items() if k not in ("dump", "files")}


def _main(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _replace_line(text: str, index: int, old: str, new: str) -> str:
    lines = text.split("\n")
    assert old in lines[index], (old, lines[index])
    lines[index] = lines[index].replace(old, new, 1)
    return "\n".join(lines)


def _line_index(text: str, needle: str) -> int:
    return next(i for i, line in enumerate(text.split("\n")) if needle in line)


class GeneratorTest(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        for workload, sizes in SMALL.items():
            with tempfile.TemporaryDirectory() as a, tempfile.TemporaryDirectory() as b:
                plan_a = generate.make_inputs(workload, 7, Path(a), sizes)
                plan_b = generate.make_inputs(workload, 7, Path(b), sizes)
                self.assertEqual(_without_paths(plan_a), _without_paths(plan_b), workload)
                self.assertEqual(_files(Path(a)), _files(Path(b)), workload)

    def test_other_seed_other_inputs(self):
        with tempfile.TemporaryDirectory() as a, tempfile.TemporaryDirectory() as b:
            generate.make_inputs("corpus-dump", 7, Path(a), SMALL["corpus-dump"])
            generate.make_inputs("corpus-dump", 8, Path(b), SMALL["corpus-dump"])
            self.assertNotEqual(_files(Path(a)), _files(Path(b)))

    def test_planted_rejects_have_fixed_shares(self):
        with tempfile.TemporaryDirectory() as d:
            plan = generate.make_inputs("corpus-dump", 3, Path(d), {"entries": 500})
        self.assertEqual(set(plan["rejected_by_kind"].values()), {10})
        self.assertEqual(sum(plan["accepted_by_category"].values()), 450)
        for tune in plan["accepted"]:
            expected = 128 if tune["category"] == "reel" else 96
            self.assertEqual(len(tune["symbols"]), expected)


class ChecksFireTest(unittest.TestCase):
    """Every check passes on the program's real output and fails when one
    output line is corrupted."""

    def setUp(self):
        self._dir = tempfile.TemporaryDirectory()
        self.work = Path(self._dir.name)

    def tearDown(self):
        self._dir.cleanup()

    def _workload(self, name):
        plan = generate.make_inputs(name, 5, self.work, SMALL[name])
        return run.Workload(name, plan, self.work, 5)

    def _tally(self, step, code, out, err):
        tally = checks.Tally()
        step.check(tally, code, out, err)
        return tally

    def _assert_clean_then_fires(self, step, code, out, err, corrupted):
        self.assertEqual(self._tally(step, code, out, err).failed, 0, step.key)
        for bad in corrupted:
            tally = self._tally(step, *bad)
            self.assertGreater(tally.failed, 0, (step.key, bad[1][:80], bad[2][:80]))
            self.assertGreater(tally.failed / tally.attempted, 0)

    def test_corpus_dump(self):
        (step,) = self._workload("corpus-dump").unit(0)
        code, out, err = _main(step.argv)
        count_line = _line_index(out, '"count"')
        first_reject = err.split("\n")[0]
        kind = checks._REJECTED_RE.match(first_reject).group(3)
        other_kind = next(k for k in generate.REJECT_KINDS if k != kind)
        self._assert_clean_then_fires(step, code, out, err, [
            (0, out, err),
            (code, _replace_line(out, count_line, '": ', '": 1'), err),
            (code, out, err.replace(first_reject + "\n", "", 1)),
            (code, out, err + first_reject + "\n"),
            (code, out, _replace_line(err, 0, f"): {kind}: ", f"): {other_kind}: ")),
        ])

    def test_analyze_abc(self):
        workload = self._workload("analyze-abc")
        (step,) = workload.unit(0)
        code, out, err = _main(step.argv)
        sampled = checks.oracle_sample(workload.plan["accepted"], workload.seed)[0]["id"]
        line = _line_index(out, sampled + ",")
        tokens = out.split("\n")[line].split(",")[4]
        self._assert_clean_then_fires(step, code, out, err, [
            (code, _replace_line(out, line, f",{tokens},", f",{int(tokens) + 1},"), err),
            (code, "\n".join(out.split("\n")[:1] + out.split("\n")[2:]), err),
            (code, out, "\n".join(err.split("\n")[1:])),
        ])

    def test_baseline_grid(self):
        (step,) = self._workload("baseline-grid").unit(0)
        code, out, err = _main(step.argv)
        mean_line = _line_index(out, '"mean_ratio"')
        self._assert_clean_then_fires(step, code, out, err, [
            (code, _replace_line(out, mean_line, '": 1.', '": 2.'), err),
            (2, out, err),
        ])

    def test_cli_single(self):
        workload = self._workload("cli-single")
        steps = workload.unit(0)
        outputs = []
        for step in steps:
            result = _main(step.argv)
            outputs.append(result)
            if step.save:
                step.save(result[1])
        for step, (code, out, err) in zip(steps, outputs):
            swap = "g" if out[-2] != "g" else "a"
            self._assert_clean_then_fires(step, code, out, err, [
                (code, out[:-2] + swap + out[-1:], err),
                (1, out, err),
            ])

    def test_repeated_output_must_match(self):
        (step,) = self._workload("baseline-grid").unit(0)
        code, out, err = _main(step.argv)
        verify = run.Verifier()
        verify(step, code, out, err)
        verify(step, code, out, err)
        self.assertEqual(verify.tally.failed, 0)
        verify(step, code, out.replace("1.", "2.", 1), err)
        self.assertEqual(verify.tally.failed, 1)


class TracerTest(unittest.TestCase):
    def test_counts_and_self_times(self):
        with tempfile.TemporaryDirectory() as d:
            plan = generate.make_inputs("corpus-dump", 2, Path(d), SMALL["corpus-dump"])
            tracer = tracing.Tracer()
            tracer.begin_rep()
            with tracer.installed():
                code, _, _ = _main(["corpus", "--dump", plan["dump"], "--format", "json"])
        self.assertEqual(code, 1)
        self.assertFalse(hasattr(cli.main, "__wrapped__"))  # wrappers removed
        metrics = tracer.metrics()
        for kind, count in plan["rejected_by_kind"].items():
            self.assertEqual(metrics[f"notation.rejects.{kind}"], count)
        accepted = sum(plan["accepted_by_category"].values())
        self.assertEqual(metrics["lz.compress_lz77.calls"], accepted)
        self.assertEqual(metrics["notation.parse_abc.calls"], plan["entries"])
        self.assertAlmostEqual(metrics["notation.normalize.accepted_ratio"],
                               accepted / plan["entries"])
        roots = [end - start for _, start, end, parent, _ in tracer.spans if parent < 0]
        self.assertAlmostEqual(sum(tracer.self_times()), sum(roots), places=9)


class ContractTest(unittest.TestCase):
    def test_benchmark_json_lists_what_run_reports(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual([w["name"] for w in spec["workloads"]], list(run.SIZES))
        self.assertEqual([(m["name"], m["unit"]) for m in spec["end_to_end"]],
                         list(run.END_TO_END))
        self.assertEqual([(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]],
                         list(tracing.PER_LAYER))


if __name__ == "__main__":
    unittest.main()
