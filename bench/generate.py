"""Seeded input generator for the tunelz benchmark.

Every input is built from the workload seed alone.  Tunes are made by
recombining bars of the tunes in the repository's test data (copied
below, so the benchmark does not change when test data does) into reels
and jigs with ``|: :|`` repeats, first and second endings and long
notes.  The generator expands each tune itself, so correctness checks
can compare the program's output with symbols that never went through
the code under test.

A fixed share of tunes is planted as rejects, one group per ErrorKind.
The plan -- accepted tunes with their expansions and the planted reject
of every rejected id -- is returned and written next to the inputs as
``plan.json``.
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass
from pathlib import Path

# Bars of 8 quavers (L:1/8) from the reels in the test data.
REEL_BARS = (
    "A2FA BAFA", "B3A B3A", "B3A BAFA", "FABc d3A", "BAFE D4", "Ad3 Ad3",
    "Ad2A BAFA", "c2Ac BBGB", "AGEF GEDG", "EAAB cBcd", "eaaf gfed",
    "cBAc BAGB", "EAAB cded", "cABG A4", "eaab ageg", "agbg agef",
    "gfga gfef", "gfaf gfdf", "g3e aaga", "bgaf ge3", "g2dg bbgb",
    "DbEb Dbab", "D2bD EFGE", "Dbab gede", "Dbab g4", "DG2F G2DG",
    "G2DG AGFG", "EA2G A2EA", "A2BG AGEG", "a2ga bgag", "agbg a4",
)
# Bars of 6 quavers from the jig in the test data; more are cut from reel bars.
JIG_BARS = (
    "FAF DED", "FAF A2F", "GBG EFE", "GBG B2G", "faf ded", "faf a2f",
    "gbg efe", "gbg b2g",
)
# Bars of 4 quavers from the polka in the test data (2/4, always rejected).
POLKA_BARS = ("FA AB", "de fe", "dB AF", "A2 A2")

REJECT_KINDS = (
    "out_of_range_note",
    "non_quaver_duration",
    "wrong_length",
    "unsupported_construct",
    "malformed_header",
)
# Each playback shape is an ABC template over distinct bars and the
# order in which those bars sound; every shape plays eight bars.
SHAPES = (
    ("|: {0} | {1} | {2} | {3} :|", (0, 1, 2, 3, 0, 1, 2, 3)),
    ("|: {0} | {1} | {2} |1 {3} :|2 {4} ||", (0, 1, 2, 3, 0, 1, 2, 4)),
    ("|: {0} | {1} |1 {2} | {3} :|2 {4} | {5} ||", (0, 1, 2, 3, 0, 1, 4, 5)),
    ("{0} | {1} | {2} | {3} | {4} | {5} | {6} | {7} |", (0, 1, 2, 3, 4, 5, 6, 7)),
)
ADJECTIVES = ("Green", "Silver", "Crooked", "Lonesome", "Merry", "Wild",
              "Humours", "Windy", "Lark", "Rocky", "Golden", "Old")
NOUNS = ("Road", "Fiddler", "Harbour", "Gap", "Meadow", "Cottage", "Piper",
         "Mill", "Ferry", "Hill", "Bridge", "Morning")
MODES = ("Gmajor", "Ador", "Dmajor", "Edorian", "Amix")

_NOTE_RE = re.compile(r"([A-Ga-g])(\d*)")


def _bar_notes(text: str) -> tuple[tuple[str, int], ...]:
    return tuple((m.group(1), int(m.group(2) or 1)) for m in _NOTE_RE.finditer(text))


def _cut(notes, quavers):
    out, total = [], 0
    for letter, q in notes:
        take = min(q, quavers - total)
        out.append((letter, take))
        total += take
        if total == quavers:
            return tuple(out)
    raise ValueError("bar too short to cut")


REEL_POOL = tuple(_bar_notes(b) for b in REEL_BARS)
JIG_POOL = tuple(_bar_notes(b) for b in JIG_BARS) + tuple(_cut(b, 6) for b in REEL_POOL)
POLKA_POOL = tuple(_bar_notes(b) for b in POLKA_BARS)


@dataclass
class Tune:
    """One generated tune: header values, ABC body lines and its expansion
    (None for a planted reject, whose kind is ``reject``)."""

    category: str
    name: str
    meter: str
    unit: str
    mode: str
    lines: list[str]
    symbols: str | None
    reject: str | None = None

    def abc_block(self, number: int) -> str:
        head = [f"X: {number}", f"T: {self.name}", f"R: {self.category}",
                f"M: {self.meter}", f"L: {self.unit}", f"K: {self.mode}"]
        return "\n".join(head + self.lines) + "\n\n"


def _vary(rng: random.Random, notes):
    """Merge one adjacent pair into a long note now and then."""
    notes = list(notes)
    if len(notes) > 2 and rng.random() < 0.3:
        i = rng.randrange(len(notes) - 1)
        notes[i:i + 2] = [(notes[i][0], notes[i][1] + notes[i + 1][1])]
    return tuple(notes)


def _render_note(rng, letter, quavers, scale):
    text = letter + (str(quavers * scale) if quavers * scale != 1 else "")
    roll = rng.random()
    if roll < 0.04:
        text = rng.choice("^_=") + text  # accidentals fold to the bare letter
    elif roll < 0.07:
        text = "~" + text  # ornaments carry no pitch
    return text


def _render_bar(rng, notes, scale, bar_quavers):
    words, current, total = [], "", 0
    for letter, q in notes:
        current += _render_note(rng, letter, q, scale)
        total += q
        if total * 2 == bar_quavers:
            words.append(current)
            current = ""
    words.append(current)
    return " ".join(w for w in words if w)


def _make_tune(rng, category, unit="1/8", parts=2):
    pool, bar_q, meter = {
        "reel": (REEL_POOL, 8, rng.choice(("4/4", "4/4", "C"))),
        "jig": (JIG_POOL, 6, "6/8"),
        "polka": (POLKA_POOL, 4, "2/4"),
    }[category]
    scale = 2 if unit == "1/16" else 1
    lines, played = [], []
    for _ in range(parts):
        template, order = rng.choice(SHAPES)
        bars = [_vary(rng, rng.choice(pool)) for _ in range(max(order) + 1)]
        rendered = [_render_bar(rng, b, scale, bar_q) for b in bars]
        lines.append(template.format(*rendered))
        played.extend(bars[i] for i in order)
    symbols = "".join(letter * q for bar in played for letter, q in bar)
    name = f"The {rng.choice(ADJECTIVES)} {rng.choice(NOUNS)}"
    return Tune(category, name, meter, unit, rng.choice(MODES), lines, symbols)


def _plant(rng, tune: Tune, kind: str, variant: int) -> Tune:
    """Turn an accepted tune into a reject of ``kind`` with one fault."""
    tune.reject = kind
    tune.symbols = None
    if kind == "malformed_header":
        tune.meter = "4/0"
        return tune
    if kind == "wrong_length":
        if variant % 2:
            polka = _make_tune(rng, "polka", tune.unit)
            polka.reject, polka.symbols = kind, None
            return polka
        tune.lines = tune.lines[:1]  # one part only: a short body
        return tune
    line = tune.lines[0]
    spots = list(re.finditer(r"[~^_=]*([A-Ga-g])(\d*)", line))
    m = spots[rng.randrange(len(spots) - 1)]
    letter = m.group(1)
    fault = {
        ("out_of_range_note", 0): letter.upper() + "," + m.group(2),
        ("out_of_range_note", 1): letter.lower() + "'" + m.group(2),
        ("non_quaver_duration", 0): letter + "/",
        ("non_quaver_duration", 1): m.group(0) + ">",
        ("unsupported_construct", 0): "z" + m.group(2),
        ("unsupported_construct", 1): "[" + letter + "c]",
    }[(kind, variant % 2)]
    tune.lines = [line[:m.start()] + fault + line[m.end():]] + tune.lines[1:]
    return tune


def _tunes(rng, count, kinds, reject_share, units=("1/8",)):
    """``count`` tunes, ``reject_share`` of them rejected per kind in ``kinds``."""
    per_kind = round(count * reject_share)
    plan = [kind for kind in kinds for _ in range(per_kind)]
    plan += [None] * (count - len(plan))
    rng.shuffle(plan)
    tunes, variants = [], {}
    for kind in plan:
        category = "reel" if rng.random() < 0.6 else "jig"
        tune = _make_tune(rng, category, rng.choice(units))
        if kind is not None:
            variants[kind] = variants.get(kind, 0) + 1
            tune = _plant(rng, tune, kind, variants[kind])
        tunes.append(tune)
    return tunes


def _summary(tunes, ids):
    accepted = [
        {"id": tid, "category": t.category, "symbols": t.symbols}
        for tid, t in zip(ids, tunes) if t.reject is None
    ]
    by_category = {}
    for a in accepted:
        by_category[a["category"]] = by_category.get(a["category"], 0) + 1
    rejects = {tid: t.reject for tid, t in zip(ids, tunes) if t.reject is not None}
    by_kind = {k: 0 for k in REJECT_KINDS}
    for kind in rejects.values():
        by_kind[kind] += 1
    return {
        "entries": len(tunes),
        "accepted_by_category": dict(sorted(by_category.items())),
        "rejected_by_kind": by_kind,
        "accepted": accepted,
        "rejects": rejects,
    }


def make_corpus_dump(rng, work: Path, entries: int) -> dict:
    tunes = _tunes(rng, entries, REJECT_KINDS, 0.02)
    records, ids = [], []
    for n, tune in enumerate(tunes):
        tid = str(100000 + n * 7)
        ids.append(tid)
        record = {
            "tune_id": str(n + 1),
            "setting_id": tid,
            "name": tune.name,
            "type": tune.category.capitalize() if n % 5 == 0 else tune.category,
            "mode": tune.mode,
            "abc": "\r\n".join(tune.lines),
        }
        if n % 3 or tune.reject == "malformed_header" or tune.category == "polka":
            record["meter"] = tune.meter
        records.append(record)
    (work / "dump.json").write_text(json.dumps(records, indent=1), encoding="utf-8")
    plan = _summary(tunes, ids)
    plan["dump"] = str(work / "dump.json")
    return plan


def make_abc_files(rng, work: Path, files: int, tunes_per_file: int) -> dict:
    # A malformed header fails a whole ABC file (exit 2), so it is planted
    # in the dump only.
    kinds = REJECT_KINDS[:4]
    all_tunes, ids, paths = [], [], []
    for f in range(files):
        path = work / f"set{f + 1}.abc"
        tunes = _tunes(rng, tunes_per_file, kinds, 0.02, units=("1/8", "1/8", "1/16"))
        blocks = [f"% generated tune set {f + 1}\n\n"]
        for n, tune in enumerate(tunes):
            number = 10 + 3 * n
            blocks.append(tune.abc_block(number))
            ids.append(f"{path.stem}:{number}")
        path.write_text("".join(blocks), encoding="utf-8")
        all_tunes.extend(tunes)
        paths.append(str(path))
    plan = _summary(all_tunes, ids)
    plan["files"] = paths
    return plan


def make_single_tunes(rng, work: Path, count: int) -> dict:
    tunes = _tunes(rng, count, (), 0.0, units=("1/8", "1/16"))
    ids, paths = [], []
    for n, tune in enumerate(tunes):
        path = work / f"tune{n + 1}.abc"
        path.write_text(tune.abc_block(n + 1), encoding="utf-8")
        ids.append(f"{path.stem}:{n + 1}")
        paths.append(str(path))
    plan = _summary(tunes, ids)
    plan["files"] = paths
    return plan


def make_inputs(workload: str, seed: int, work: Path, sizes: dict) -> dict:
    """Write the inputs of ``workload`` under ``work`` and return their plan."""
    rng = random.Random(f"tunelz-bench:{workload}:{seed}")
    if workload == "corpus-dump":
        plan = make_corpus_dump(rng, work, sizes["entries"])
    elif workload == "analyze-abc":
        plan = make_abc_files(rng, work, sizes["files"], sizes["tunes_per_file"])
    elif workload == "cli-single":
        plan = make_single_tunes(rng, work, sizes["tunes"])
    elif workload == "baseline-grid":
        plan = {"baseline_seed": rng.randrange(1, 10**6)}
    else:
        raise ValueError(f"unknown workload {workload!r}")
    plan = {"workload": workload, "seed": seed, **sizes, **plan}
    (work / "plan.json").write_text(json.dumps(plan, indent=1), encoding="utf-8")
    return plan
