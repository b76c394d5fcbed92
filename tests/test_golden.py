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
  trie nodes have dozens of children.

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


def dense_digest() -> str:
    lexicon, queries = dense_case()
    checker = SpellChecker(lexicon)
    reports = [checker.check_word(q).as_dict() for q in queries]
    text = json.dumps(reports, ensure_ascii=False, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


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


def _json_report() -> str:
    """The compact JSON report of the golden document over the bundled lexicon."""
    text = (GOLDEN / DOCUMENT).read_text(encoding="utf-8")
    return SpellChecker(bundled_lexicon()).check_text(text).to_json()


def test_document_output_is_golden():
    assert _batch_output() == (GOLDEN / "document.tsv").read_text(encoding="utf-8")


def test_document_json_report_is_golden():
    assert _json_report() == (GOLDEN / "document.json").read_text(encoding="utf-8")


def test_document_cli_json_output_is_golden():
    expected = (GOLDEN / "document.cli.json").read_text(encoding="utf-8")
    assert _batch_output("--json") == expected


def test_dense_lexicon_reports_are_golden():
    assert dense_digest() == (GOLDEN / "dense.sha256").read_text(encoding="ascii").strip()


def _count_bounded_searches(monkeypatch) -> tuple[list, list]:
    """Force the bounded path open; record each walk's budget and each distance-ed search."""
    budgets: list = []
    searches: list = []
    walk, search = Lexicon.within_distance, Lexicon.first_at_distance
    monkeypatch.setattr(
        Lexicon, "within_distance", lambda *args: budgets.append(args[2]) or walk(*args)
    )
    monkeypatch.setattr(
        Lexicon, "first_at_distance", lambda *args: searches.append(1) or search(*args)
    )
    monkeypatch.setattr(tamilspell.checker, "DENSE_LEXICON", 0)
    return budgets, searches


def test_document_json_report_is_golden_with_the_early_out_forced(monkeypatch):
    # The bundled lexicon is below DENSE_LEXICON, so its reports come from
    # the ed walk; with the gate forced open the short non-words take the
    # bounded path (one walk within ed - 1), where a few skip the
    # distance-ed search and the others take it, and the long ones still
    # take the ed walk.
    budgets, searches = _count_bounded_searches(monkeypatch)
    text = (GOLDEN / DOCUMENT).read_text(encoding="utf-8")
    report = SpellChecker(bundled_lexicon()).check_text(text)
    assert report.to_json() == (GOLDEN / "document.json").read_text(encoding="utf-8")
    assert 0 < len(searches) < budgets.count(1)
    assert budgets.count(2) > 0


def test_dense_lexicon_reports_are_golden_with_the_early_out_forced(monkeypatch):
    budgets, searches = _count_bounded_searches(monkeypatch)
    assert dense_digest() == (GOLDEN / "dense.sha256").read_text(encoding="ascii").strip()
    assert 0 < len(searches) < budgets.count(1), "a full cut must skip some distance-ed searches"


@pytest.mark.parametrize("ed", [1, 3, 4])
def test_dense_lexicon_reports_agree_on_both_paths(monkeypatch, ed):
    # dense.sha256 pins ed 2 on both paths; here the bounded path, forced
    # open, must give the one walk's reports at the other distances.
    lexicon, queries = dense_case()
    config = EngineConfig(edit_distance=ed)
    one_walk = [SpellChecker(lexicon, config=config).check_word(q) for q in queries]
    monkeypatch.setattr(tamilspell.checker, "DENSE_LEXICON", 0)
    assert [SpellChecker(lexicon, config=config).check_word(q) for q in queries] == one_walk


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    (GOLDEN / DOCUMENT).write_text(golden_document(), encoding="utf-8")
    (GOLDEN / "document.tsv").write_text(_batch_output(), encoding="utf-8")
    (GOLDEN / "document.json").write_text(_json_report(), encoding="utf-8")
    (GOLDEN / "document.cli.json").write_text(_batch_output("--json"), encoding="utf-8")
    (GOLDEN / "dense.sha256").write_text(dense_digest() + "\n", encoding="ascii")
