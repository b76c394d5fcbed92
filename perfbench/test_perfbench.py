"""The benchmark's own tests: ``python -m pytest perfbench`` from the repository root."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import oracle  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _bench(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3", "--seconds", "1",
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_spec_names_every_workload_and_metric():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.NAMES)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.LAYER_UNITS


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_output_names_every_metric(trace, section):
    result = _bench("typos", trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    names = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == names


def _digest(name: str, seed: int, hash_seed: str) -> str:
    code = (
        "import hashlib, sys, workloads\n"
        f"w = workloads.build({name!r}, {seed})\n"
        "h = hashlib.sha256()\n"
        "for part in (w.words, w.doc_tokens, [w.doc_text], [repr(t) for t in w.stream]):\n"
        "    h.update('\\x00'.join(part).encode())\n"
        "print(h.hexdigest(), w.quality)\n"
    )
    env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=os.pathsep.join([str(HERE), str(ROOT / "src")]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.parametrize("name", workloads.NAMES)
def test_generation_is_deterministic_per_seed(name):
    first = _digest(name, 7, "1")
    assert _digest(name, 7, "2") == first
    assert _digest(name, 8, "1") != first


def test_workloads_have_their_shape():
    doc = workloads.build("doc", 1)
    assert 19000 <= len(doc.doc_tokens) <= 21000
    pool = {t.token for t in doc.quality[:40]}
    assert len(pool) == 40 and pool <= set(doc.doc_tokens)
    assert len(doc.quality) == workloads.QUALITY
    typos = workloads.build("typos", 1)
    assert len({t.token for t in typos.stream}) == len(typos.stream) >= typos.min_words >= 200
    assert typos.quality == typos.stream[: workloads.QUALITY]
    known = typos.word_set()
    assert not any(t.token in known for t in typos.stream)


def test_distance_is_unrestricted_damerau_levenshtein():
    assert oracle.letters("தென்றல்") == ("தெ", "ன்", "ற", "ல்")
    assert oracle.distance("பழம்", "பளம்") == 1
    assert oracle.distance("அது", "துஅ") == 1
    assert oracle.distance(("c", "a"), ("a", "b", "c")) == 2  # Levenshtein says 3
    assert oracle.distance("", "கடல்") == 3


def test_checks_catch_bad_suggestions():
    words = {"பழம்", "பலம்", "களம்"}
    good = [
        {"candidate": "பலம்", "strategy": "mayangoli", "score": 1},
        {"candidate": "பழம்", "strategy": "mayangoli", "score": 1},
        {"candidate": "களம்", "strategy": "keyboard", "score": 1},
    ]
    assert oracle.check_suggestions("பளம்", good, words) == []
    assert oracle.check_suggestions("பளம்", good[::-1], words)  # out of order
    assert oracle.check_suggestions("பளம்", [{**good[0], "score": 2}], words)  # wrong score
    assert oracle.check_suggestions("பளம்", [{**good[0], "candidate": "பளம"}], words)  # not a word
    entry = {"token": "Computer", "verdict": "nontamil", "suggestions": []}
    assert oracle.check_token(entry, words, {"computer": "கணினி"})


def test_tracer_restores_functions_and_reports_absent_layers(monkeypatch):
    import tamilspell.checker
    import tamilspell.edits

    before = tamilspell.checker.letter_edit_distance
    monkeypatch.setattr(tracer, "LAYERS", tracer.LAYERS + ("no_such_layer",))
    t = tracer.Tracer()
    t.install()
    assert tamilspell.checker.letter_edit_distance is not before
    assert tamilspell.checker.letter_edit_distance is tamilspell.edits.letter_edit_distance
    tamilspell.checker.letter_edit_distance("கடல்", "கடை")
    t.uninstall()
    assert tamilspell.checker.letter_edit_distance is before
    assert t.absent == ["no_such_layer"]
    assert [s[0] for s in t.spans] == ["edits.letter_edit_distance"]


def test_tracer_counts_a_delegating_probe_once():
    from tamilspell.bundled import bundled_lexicon

    lexicon = bundled_lexicon()
    t = tracer.Tracer()
    t.install()
    mark = t.mark()
    assert lexicon.is_word(workloads.bundled_words()[0])
    t.uninstall()
    phase = t.since(mark)
    assert phase.probe_counts() == (1, 1)
    assert [s[0] for s in phase.spans] == ["lexicon.is_word"]


def test_refuses_to_run_without_the_package(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in HERE.glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_bytes(path.read_bytes())
    (tmp_path / "BENCHMARK.json").write_bytes((ROOT / "BENCHMARK.json").read_bytes())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "doc", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
