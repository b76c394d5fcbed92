"""Golden outputs: a walk change must leave every suggestion list as it was.

The fixtures under ``tests/golden/`` hold the output of an earlier commit,
which every later change to the walks or the reports must reproduce byte
for byte:

* ``document.txt``, a seeded document of valid words and about 150
  typos (one and two edits, 1-3-letter tokens, confusable-series swaps,
  keyboard neighbours, conjoined pairs), and ``document.tsv``, the
  ``tamilspell`` batch output for it over the bundled lexicon;
* ``document.json``, the compact ``CheckReport.to_json()`` text of that
  document over the bundled lexicon, and ``document.cli.json``, the
  ``tamilspell --json`` output for it;
* ``dense.sha256``, the digest of the ``check_word`` reports for seeded
  typos over a seeded dense lexicon that :func:`dense_case` builds, whose
  trie nodes have dozens of children;
* ``dense.ed<n>.sha256`` and ``document.ed<n>.sha256``, the digests of
  those reports and of ``document.json``'s text at the edit distances
  ``OTHER_DISTANCES``, 1, 3 and 4.

The reports are ranked by ``(score, priority, candidate)``, so neither
depends on the hash seed.  To rewrite the fixtures at a commit whose
output is trusted, run ``PYTHONPATH=src python tests/test_golden.py``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import unicodedata
from pathlib import Path

import pytest

import tamilspell.checker
from oracles import LETTERS
from tamilspell.bundled import bundled_confusion_matrix, bundled_lexicon
from tamilspell.checker import EngineConfig, SpellChecker
from tamilspell.cli import main
from tamilspell.letters import letter_texts
from tamilspell.lexicon import Lexicon

GOLDEN = Path(__file__).with_name("golden")
DOCUMENT = "document.txt"
# The edit distances pinned by digest, besides the default 2.
OTHER_DISTANCES = (1, 3, 4)
SERIES = ("லழள", "ரற", "நனண", "ஙஞ")
TABLE = LETTERS


def _swap_series(letters: tuple[str, ...], rng: random.Random) -> tuple[str, ...] | None:
    # One series consonant swapped for another of its series, vowel kept.
    spots = [i for i, lt in enumerate(letters) if any(lt[0] in s for s in SERIES)]
    if not spots:
        return None
    i = rng.choice(spots)
    group = next(s for s in SERIES if letters[i][0] in s)
    other = rng.choice([c for c in group if c != letters[i][0]])
    return letters[:i] + (other + letters[i][1:],) + letters[i + 1 :]


def _edit(letters: tuple[str, ...], rng: random.Random, ops: int) -> tuple[str, ...]:
    out = list(letters)
    for _ in range(ops):
        op = rng.randrange(4)
        if op == 0 and len(out) > 1:
            del out[rng.randrange(len(out))]
        elif op == 1 and len(out) > 1:
            i = rng.randrange(len(out) - 1)
            out[i], out[i + 1] = out[i + 1], out[i]
        elif op == 2:
            out.insert(rng.randrange(len(out) + 1), rng.choice(TABLE))
        else:
            out[rng.randrange(len(out))] = rng.choice(TABLE)
    return tuple(out)


def _typos(words: list[str], rng: random.Random, plan, known) -> list[str]:
    """Distinct non-words, ``count`` of each ``kind`` in ``plan``, in a seeded order."""
    matrix = bundled_confusion_matrix()
    made: list[str] = []
    seen = set(known)
    for kind, count in plan:
        while count:
            word = letter_texts(rng.choice(words))
            if kind == "edit1":
                letters = _edit(word, rng, 1)
            elif kind == "edit2":
                letters = _edit(word, rng, 2)
            elif kind == "short":
                letters = _edit(word[: rng.randint(1, 3)], rng, rng.randint(0, 1))
            elif kind == "series":
                letters = _swap_series(word, rng)
            elif kind == "keyboard":
                i = rng.randrange(len(word))
                alts = matrix.alternates_for(word[i])
                letters = word[:i] + (rng.choice(alts),) + word[i + 1 :] if alts else None
            else:  # conjoined, sometimes with a series swap or an edit
                letters = word + letter_texts(rng.choice(words))
                if kind == "conjoined+typo":
                    letters = _swap_series(letters, rng) or _edit(letters, rng, 1)
            token = "".join(letters or ())
            if (
                not token
                or token in seen
                or unicodedata.normalize("NFC", token) != token
                or letter_texts(token) != letters
            ):
                continue
            seen.add(token)
            made.append(token)
            count -= 1
    rng.shuffle(made)
    return made


def golden_document() -> str:
    """About 150 typos over the bundled lexicon, between valid words, 12 tokens a line."""
    rng = random.Random("golden-document")
    words = sorted(bundled_lexicon().words())
    plan = [
        ("edit1", 30), ("edit2", 25), ("short", 30), ("series", 20),
        ("keyboard", 20), ("conjoined", 15), ("conjoined+typo", 10),
    ]
    tokens = _typos(words, rng, plan, words)
    tokens += [rng.choice(words) for _ in range(100)]
    rng.shuffle(tokens)
    lines = [" ".join(tokens[i : i + 12]) for i in range(0, len(tokens), 12)]
    return "\n".join(lines) + "\n"


def dense_case() -> tuple[Lexicon, list[str]]:
    """A 2,500-word lexicon over 40 letters, and 200 typos of its words.

    Most words have one to four letters, so most short prefixes are in the
    trie and its upper nodes have dozens of children.
    """
    rng = random.Random("golden-dense")
    letters = rng.sample([lt for lt in TABLE if not any(lt[0] in s for s in SERIES)], 32)
    letters += ["ல", "ழ", "ளி", "ர", "றா", "ன", "ணு", "ந"]
    words: set[str] = set()
    while len(words) < 2_500:
        n = rng.choice((1, 2, 2, 3, 3, 3, 4, 4, 5, 6))
        words.add("".join(rng.choice(letters) for _ in range(n)))
    ordered = sorted(words)
    plan = [
        ("edit1", 40), ("edit2", 30), ("short", 60), ("series", 30),
        ("keyboard", 10), ("conjoined", 20), ("conjoined+typo", 10),
    ]
    return Lexicon(ordered), _typos(ordered, rng, plan, ordered)


def dense_reports(ed: int = 2) -> list[dict]:
    lexicon, queries = dense_case()
    checker = SpellChecker(lexicon, config=EngineConfig(edit_distance=ed))
    return [checker.check_word(q).as_dict() for q in queries]


def _digest(reports: list[dict]) -> str:
    text = json.dumps(reports, ensure_ascii=False, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def dense_digest(ed: int = 2) -> str:
    return _digest(dense_reports(ed))


def document_digest(ed: int) -> str:
    return hashlib.sha256(_json_report(ed).encode()).hexdigest()


def _pinned(name: str) -> str:
    return (GOLDEN / name).read_text(encoding="ascii").strip()


def _batch_output(*options: str) -> str:
    """The ``tamilspell`` output for the golden document, run in its folder."""
    out = io.StringIO()
    cwd = os.getcwd()
    os.chdir(GOLDEN)
    try:
        with contextlib.redirect_stdout(out):
            main([*options, DOCUMENT])
    finally:
        os.chdir(cwd)
    return out.getvalue()


def _json_report(ed: int = 2) -> str:
    """The compact JSON report of the golden document over the bundled lexicon."""
    text = (GOLDEN / DOCUMENT).read_text(encoding="utf-8")
    checker = SpellChecker(bundled_lexicon(), config=EngineConfig(edit_distance=ed))
    return checker.check_text(text).to_json()


def test_document_output_is_golden():
    assert _batch_output() == (GOLDEN / "document.tsv").read_text(encoding="utf-8")


def test_document_json_report_is_golden(walk_calls):
    # The short non-words take the bounded path (one walk within ed - 1),
    # where a few skip the distance-ed search and the others take it, and
    # the long ones take the ed walk.
    budgets, searches = walk_calls
    assert _json_report() == (GOLDEN / "document.json").read_text(encoding="utf-8")
    assert 0 < len(searches) < budgets.count(1)
    assert budgets.count(2) > 0


def test_document_cli_json_output_is_golden():
    expected = (GOLDEN / "document.cli.json").read_text(encoding="utf-8")
    assert _batch_output("--json") == expected


def test_dense_lexicon_reports_are_golden(walk_calls):
    budgets, searches = walk_calls
    assert dense_digest() == _pinned("dense.sha256")
    assert 0 < len(searches) < budgets.count(1), "a full cut must skip some distance-ed searches"


def _heads(reports: list[dict], k: int) -> list[dict]:
    """The reports with each suggestion list cut to its first ``k``."""
    return [{**report, "suggestions": report["suggestions"][:k]} for report in reports]


def _with_the_early_out_forced(monkeypatch, walk_calls, reports):
    """``reports()`` at the default cut and at a cut of three, and the distance-ed searches each made.

    At a cut of three, more short non-words fill the cut within ed - 1,
    so the bounded path skips their distance-ed search (the early out).
    """
    searches = walk_calls[1]
    full = reports()
    taken = len(searches)
    del searches[:]
    monkeypatch.setattr(tamilspell.checker, "MAX_SUGGESTIONS", 3)
    return full, taken, reports(), len(searches)


def test_document_json_report_is_golden_with_the_early_out_forced(monkeypatch, walk_calls):
    # Each report at the cut of three is the head of the golden report.
    full, taken, cut, forced = _with_the_early_out_forced(
        monkeypatch, walk_calls, lambda: json.loads(_json_report())
    )
    assert full == json.loads((GOLDEN / "document.json").read_text(encoding="utf-8"))
    assert cut == _heads(full, 3)
    assert forced < taken, "a cut of three must skip more distance-ed searches"


def test_dense_lexicon_reports_are_golden_with_the_early_out_forced(monkeypatch, walk_calls):
    full, taken, cut, forced = _with_the_early_out_forced(monkeypatch, walk_calls, dense_reports)
    assert _digest(full) == _pinned("dense.sha256")
    assert cut == _heads(full, 3)
    assert forced < taken, "a cut of three must skip more distance-ed searches"


@pytest.mark.parametrize("ed", OTHER_DISTANCES)
def test_dense_lexicon_reports_are_golden_at_other_distances(ed):
    assert dense_digest(ed) == _pinned(f"dense.ed{ed}.sha256")


@pytest.mark.parametrize("ed", OTHER_DISTANCES)
def test_document_json_report_is_golden_at_other_distances(ed):
    assert document_digest(ed) == _pinned(f"document.ed{ed}.sha256")


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    (GOLDEN / DOCUMENT).write_text(golden_document(), encoding="utf-8")
    (GOLDEN / "document.tsv").write_text(_batch_output(), encoding="utf-8")
    (GOLDEN / "document.json").write_text(_json_report(), encoding="utf-8")
    (GOLDEN / "document.cli.json").write_text(_batch_output("--json"), encoding="utf-8")
    (GOLDEN / "dense.sha256").write_text(dense_digest() + "\n", encoding="ascii")
    for ed in OTHER_DISTANCES:
        (GOLDEN / f"dense.ed{ed}.sha256").write_text(dense_digest(ed) + "\n", encoding="ascii")
        (GOLDEN / f"document.ed{ed}.sha256").write_text(document_digest(ed) + "\n", encoding="ascii")
