"""Correctness checks on the program's outputs.

Each check compares an output with the generator's plan or with the
benchmark's own oracle, never with the code under test.  Every check is
one attempt in a ``Tally``; the benchmark's error rate is failed checks
over attempted checks.
"""

from __future__ import annotations

import csv
import io
import json
import random
import re

import oracle

# Mean LZ77 ratios of random 13-letter strings published in the paper.
PAPER_BASELINE = {50: 1.13, 96: 1.23, 100: 1.24, 128: 1.29, 150: 1.33, 200: 1.40}
BASELINE_TOLERANCE = 0.03
REFERENCE_LENGTH = 128
ORACLE_ROWS = 24

_REJECTED_RE = re.compile(r"^tunelz: rejected (\S+) \((.*)\): ([a-z_]+): ")


class Tally:
    """Counts attempted and failed checks and keeps the first failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def check(self, ok: bool, message: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(message)
        return ok


def exit_code(t: Tally, code: int, plan: dict, what: str) -> None:
    expected = 1 if plan.get("rejects") else 0
    t.check(code == expected, f"{what}: exit code {code}, expected {expected}")


def rejections(t: Tally, stderr: str, plan: dict) -> None:
    """Each planted reject is reported once with its kind; nothing else."""
    seen: dict[str, list[str]] = {}
    other = []
    for line in stderr.splitlines():
        m = _REJECTED_RE.match(line)
        if m:
            seen.setdefault(m.group(1), []).append(m.group(3))
        else:
            other.append(line)
    planted = plan.get("rejects", {})
    for tid, kind in planted.items():
        got = seen.get(tid, [])
        t.check(got == [kind], f"reject {tid}: planted {kind}, reported {got}")
    unplanned = sorted(set(seen) - set(planted))
    t.check(not unplanned and not other,
            f"unplanned stderr: {unplanned[:3]} {other[:3]}")


def corpus_json(t: Tally, stdout: str, plan: dict) -> None:
    try:
        stats = json.loads(stdout)
        counts = {s["category"]: s["count"] for s in stats}
        hist_sums = {s["category"]: sum(s["histogram"]["counts"]) for s in stats}
    except (ValueError, KeyError, TypeError) as exc:
        t.check(False, f"corpus stdout is not the stats JSON: {exc}")
        return
    planned = plan["accepted_by_category"]
    t.check(sum(counts.values()) == sum(planned.values()),
            f"corpus counts sum to {sum(counts.values())}, "
            f"planned {sum(planned.values())} accepted")
    for category, count in planned.items():
        t.check(counts.get(category) == count,
                f"{category}: count {counts.get(category)}, planned {count}")
        t.check(hist_sums.get(category) == count,
                f"{category}: histogram holds {hist_sums.get(category)}, planned {count}")


def analyze_csv(t: Tally, stdout: str, plan: dict, seed: int) -> None:
    rows = list(csv.DictReader(io.StringIO(stdout)))
    accepted = plan["accepted"]
    t.check([r.get("id") for r in rows] == [a["id"] for a in accepted],
            f"analyze rows: {len(rows)} ids, planned {len(accepted)} accepted")
    by_id = {r.get("id"): r for r in rows}
    for tune in oracle_sample(accepted, seed):
        row = by_id.get(tune["id"], {})
        symbols = tune["symbols"]
        n77 = len(oracle.lz77(symbols))
        n78 = len(oracle.lz78(symbols))
        expected = {
            "category": tune["category"],
            "length": str(len(symbols)),
            "lz77_tokens": str(n77),
            "lz78_tokens": str(n78),
            "ratio_lz77": f"{len(symbols) / n77:.6f}",
            "normalized_ratio": f"{_normalized(len(symbols) / n77, len(symbols)):.6f}",
        }
        got = {k: row.get(k) for k in expected}
        t.check(got == expected, f"row {tune['id']}: {got} != oracle {expected}")


def oracle_sample(accepted: list[dict], seed: int) -> list[dict]:
    """The seeded subsample of accepted tunes checked against the oracle."""
    return random.Random(f"oracle-rows:{seed}").sample(
        accepted, min(ORACLE_ROWS, len(accepted)))


def _normalized(ratio: float, length: int) -> float:
    # same order of operations as the documented formula: the factor first
    return ratio * (PAPER_BASELINE[REFERENCE_LENGTH] / PAPER_BASELINE[length])


def baseline_json(t: Tally, stdout: str, lengths: list[int]) -> None:
    try:
        points = {p["length"]: p["mean_ratio"] for p in json.loads(stdout)["points"]}
    except (ValueError, KeyError, TypeError) as exc:
        t.check(False, f"baseline stdout is not the curve JSON: {exc}")
        return
    t.check(sorted(points) == sorted(lengths), f"baseline lengths {sorted(points)}")
    for length in lengths:
        mean = points.get(length)
        paper = PAPER_BASELINE[length]
        t.check(mean is not None and abs(mean - paper) <= BASELINE_TOLERANCE,
                f"baseline mean at {length}: {mean}, paper {paper}")


def normalize_text(t: Tally, stdout: str, tune: dict) -> None:
    expected = (f"{tune['id']}\t{tune['category']}\t{len(tune['symbols'])}\t"
                f"{tune['symbols']}\n")
    t.check(stdout == expected, f"normalize {tune['id']}: {stdout[:60]!r}")


def lz77_text(t: Tally, stdout: str, tune: dict) -> None:
    tokens = oracle.lz77(tune["symbols"])
    n = len(tune["symbols"])
    expected = (f"{oracle.lz77_text(tokens)}\n"
                f"ratio {n}/{len(tokens)} ≈ {n / len(tokens):.2f}\n")
    t.check(stdout == expected, f"compress lz77 {tune['id']}: {stdout[:60]!r}")


def lz78_json(t: Tally, stdout: str, tune: dict) -> None:
    expected = {
        "algorithm": "lz78",
        "source_length": len(tune["symbols"]),
        "tokens": [{"prefix": p, "extension": e} for p, e in oracle.lz78(tune["symbols"])],
    }
    try:
        got = json.loads(stdout)
    except ValueError:
        got = None
    t.check(got == expected, f"compress lz78 {tune['id']}: {stdout[:60]!r}")


def decompressed(t: Tally, stdout: str, symbols: str, what: str) -> None:
    t.check(stdout == symbols + "\n", f"{what}: {stdout[:60]!r}")
