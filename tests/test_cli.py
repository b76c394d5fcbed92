"""CLI tests: the interactive loop, batch checking, flags, exit codes."""

from __future__ import annotations

import io
import json
import subprocess
import sys
from pathlib import Path

import pytest

from tamilspell import __version__
from tamilspell.bundled import bundled_confusion_matrix
from tamilspell.checker import EngineConfig, SpellChecker
from tamilspell.cli import _build_parser, build_engine, main, repl
from tamilspell.keyboard import ConfusionMatrix
from tamilspell.lexicon import Lexicon


def repl_engine(*words: str) -> SpellChecker:
    """A small, fully deterministic engine for transcript tests."""
    return SpellChecker(
        Lexicon(words),
        config=EngineConfig(edit_distance=1),
        confusion_matrix=ConfusionMatrix({}),
    )


def run_repl(engine: SpellChecker, script: str) -> str:
    out = io.StringIO()
    repl(engine, in_stream=io.StringIO(script), out_stream=out)
    return out.getvalue()


# ----------------------------------------------------------------- repl


def test_repl_transcript():
    engine = repl_engine("பலம்", "பழம்")
    got = run_repl(engine, "பளம்\n1\nபலம்\n:q\n")
    assert got == (
        '>> சொல் "பளம்" மாற்றங்கள்\n'
        "(0) பலம், (1) பழம்\n"
        ">> பழம்\n"
        '>> சொல் "பலம்" சரி\n'
        ">> "
    )


def test_repl_eof_ends_cleanly():
    got = run_repl(repl_engine("பலம்"), "பலம்\n")
    assert got.endswith(">> \n")


def test_repl_selection_out_of_range():
    got = run_repl(repl_engine("பலம்", "பழம்"), "பளம்\n7\n:q\n")
    assert "எண் 7 பட்டியலில் இல்லை" in got


@pytest.mark.parametrize("entry", ["²", "①"])
def test_repl_takes_an_index_only_from_decimal_digits(entry):
    # A digit that is not a decimal digit is no index: it is checked as a
    # word, and the loop goes on.
    got = run_repl(repl_engine("பலம்", "பழம்"), f"பளம்\n{entry}\n:q\n")
    assert got == (
        '>> சொல் "பளம்" மாற்றங்கள்\n'
        "(0) பலம், (1) பழம்\n"
        f'>> சொல் "{entry}" சரி\n'
        ">> "
    )


def test_repl_index_past_int_digit_limit():
    entry = "1" * 5000
    got = run_repl(repl_engine("பலம்", "பழம்"), f"பளம்\n{entry}\n1\n:q\n")
    assert got == (
        '>> சொல் "பளம்" மாற்றங்கள்\n'
        "(0) பலம், (1) பழம்\n"
        f">> எண் {entry} பட்டியலில் இல்லை\n"
        ">> பழம்\n"
        ">> "
    )


def test_repl_no_suggestions():
    got = run_repl(repl_engine("பலம்"), "கககக\n:q\n")
    assert 'சொல் "கககக" மாற்றங்கள்' in got
    assert "(மாற்றங்கள் இல்லை)" in got


def test_repl_blank_lines_ignored():
    got = run_repl(repl_engine("பலம்"), "\n\nபலம்\n:q\n")
    assert got.count("சரி") == 1


def test_repl_valid_word_clears_selection():
    engine = repl_engine("பலம்", "பழம்")
    got = run_repl(engine, "பளம்\nபலம்\n0\n:q\n")
    # After a valid word the stale list is gone, so "0" is checked as a word.
    assert got.count("(0) பலம்") == 1
    assert 'சொல் "0" சரி' in got


def test_repl_reports_what_batch_mode_passes_as_correct():
    # A stop word and a non-Tamil token with no parallel-dictionary entry
    # are never listed in batch mode; the loop calls them correct and
    # drops the stale list, as for a valid word.
    engine = SpellChecker(
        Lexicon(["பலம்", "பழம்"]),
        config=EngineConfig(edit_distance=1),
        confusion_matrix=ConfusionMatrix({}),
        stop_words=["ஒரு"],
    )
    got = run_repl(engine, "பளம்\nஒரு\n0\nxylophone\n:q\n")
    assert got == (
        '>> சொல் "பளம்" மாற்றங்கள்\n'
        "(0) பலம், (1) பழம்\n"
        '>> சொல் "ஒரு" சரி\n'
        '>> சொல் "0" சரி\n'
        '>> சொல் "xylophone" சரி\n'
        ">> "
    )


def test_repl_gives_each_token_the_batch_verdict(tmp_path, capsys):
    # The line is split as a document is: பழம், is the valid word பழம்
    # followed by punctuation, the verdict batch mode gives the same text.
    engine = repl_engine("பலம்", "பழம்")
    got = run_repl(engine, "பழம்,\n\"...\"\nபழம் பளம்!\n1\n:q\n")
    assert got == (
        '>> சொல் "பழம்" சரி\n'
        ">> "  # a line with no word token is skipped
        '>> சொல் "பழம்" சரி\n'
        'சொல் "பளம்" மாற்றங்கள்\n'
        "(0) பலம், (1) பழம்\n"
        ">> பழம்\n"
        ">> "
    )
    words = tmp_path / "words.txt"
    words.write_text("பலம்\nபழம்\n", encoding="utf-8")
    doc = tmp_path / "doc.txt"
    doc.write_text("பழம்,\n", encoding="utf-8")
    assert main(["--dict", str(words), str(doc)]) == 0
    assert capsys.readouterr().out == ""


# ----------------------------------------------------------------- batch


@pytest.fixture
def wordlist(tmp_path):
    path = tmp_path / "words.txt"
    path.write_text("பழம்\nபலம்\nதென்றல்\nகாற்று\nசிவம்\n", encoding="utf-8")
    return str(path)


def write_doc(tmp_path, name: str, text: str) -> str:
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_batch_reports_findings(tmp_path, wordlist, capsys):
    doc = write_doc(tmp_path, "doc.txt", "பழம் பளம்\n")
    status = main([doc, "--dict", wordlist])
    out = capsys.readouterr().out
    assert status == 1
    # சிவம் is two edits from பளம் (சி for ப, வ for ள).
    assert out == f"{doc}\tபளம்\tபலம் (mayangoli:1); பழம் (mayangoli:1); சிவம் (edit:2)\n"


def test_batch_clean_file(tmp_path, wordlist, capsys):
    doc = write_doc(tmp_path, "doc.txt", "பழம் பலம்\n")
    status = main([doc, "--dict", wordlist])
    assert status == 0
    assert capsys.readouterr().out == ""


def test_readme_examples_print_what_they_say(tmp_path, monkeypatch, capsys):
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    # The library example: each print's comment is what it prints.
    block = readme.split("```python\n", 1)[1].split("```", 1)[0]
    exec(block, {})
    printed = capsys.readouterr().out.splitlines()
    said = [line.split("# ", 1)[1] for line in block.splitlines() if line.startswith("print(")]
    assert said[:3] == ["nonword", "['பலம்', 'பழம்']", "False"]
    assert printed[:3] == said[:3]
    # The command line example, with the bundled data, up to its "...".
    shown = readme.split("$ tamilspell letter.txt\n", 1)[1].split("...", 1)[0]
    assert shown == "letter.txt\tபளம்\tபலம் (mayangoli:1); பழம் (mayangoli:1); களம் (keyboard:1); "
    write_doc(tmp_path, "letter.txt", "பளம்\n")
    monkeypatch.chdir(tmp_path)
    assert main(["letter.txt"]) == 1
    assert capsys.readouterr().out.startswith(shown)


def test_wordlist_saved_with_a_byte_order_mark(tmp_path, capsys):
    words = tmp_path / "bom.txt"
    words.write_bytes("\ufeffபழம்\n".encode())
    doc = write_doc(tmp_path, "doc.txt", "பழம்\n")
    assert main([doc, "--dict", str(words)]) == 0
    assert capsys.readouterr().out == ""


def test_document_saved_with_a_byte_order_mark_and_crlf(tmp_path, wordlist, capsys):
    # The mark is dropped, and a CR ends a token as a line feed does: the
    # findings and tokens are the plain document's.
    text = "பழம் பளம்\nதென்றல்காற்று computer\n"
    plain = write_doc(tmp_path, "plain.txt", text)
    saved = tmp_path / "saved.txt"
    saved.write_bytes(("\ufeff" + text.replace("\n", "\r\n")).encode())
    outputs = []
    for path in (plain, str(saved)):
        tsv_status = main([path, "--dict", wordlist])
        tsv = capsys.readouterr().out.replace(path, "FILE")
        json_status = main([path, "--dict", wordlist, "--json"])
        tokens = json.loads(capsys.readouterr().out)[0]["tokens"]
        outputs.append((tsv_status, tsv, json_status, tokens))
    assert outputs[0] == outputs[1]
    assert outputs[0][0] == 1 and len(outputs[0][3]) == 4


def test_batch_conjoined_finding_still_exits_zero(tmp_path, wordlist, capsys):
    doc = write_doc(tmp_path, "doc.txt", "தென்றல்காற்று\n")
    status = main([doc, "--dict", wordlist])
    out = capsys.readouterr().out
    assert status == 0
    assert "தென்றல் காற்று (conjoined:0)" in out


def test_batch_json_report(tmp_path, wordlist, capsys):
    doc = write_doc(tmp_path, "doc.txt", "பழம் பளம்\n")
    status = main([doc, "--dict", wordlist, "--json"])
    payload = json.loads(capsys.readouterr().out)
    assert status == 1
    assert payload[0]["file"] == doc
    tokens = payload[0]["tokens"]
    assert [t["verdict"] for t in tokens] == ["valid", "nonword"]
    assert tokens[1]["suggestions"][0]["candidate"] == "பலம்"


def test_batch_json_bytes_equal_json_dumps(tmp_path, wordlist, capsys):
    one = write_doc(tmp_path, 'say "hi".txt', "பழம் பளம் computer\nதென்றல்காற்று\n")
    two = write_doc(tmp_path, "empty.txt", "")
    main([one, two, "--dict", wordlist, "--json"])
    engine = build_engine(_build_parser().parse_args([one, "--dict", wordlist]))
    payload = [
        {"file": path, "tokens": engine.check_text(text).as_dicts()}
        for path, text in ((one, "பழம் பளம் computer\nதென்றல்காற்று\n"), (two, ""))
    ]
    assert payload[0]["tokens"] and not payload[1]["tokens"]
    assert capsys.readouterr().out == json.dumps(payload, ensure_ascii=False, indent=2) + "\n"


def test_batch_multiple_files(tmp_path, wordlist, capsys):
    one = write_doc(tmp_path, "one.txt", "பளம்\n")
    two = write_doc(tmp_path, "two.txt", "பழம்\n")
    status = main([one, two, "--dict", wordlist])
    out = capsys.readouterr().out
    assert status == 1
    assert out.startswith(f"{one}\t")
    assert two not in out


def test_ed_flag_extends_reach(tmp_path, wordlist, capsys):
    # சிவம் is two edits from சுவ.
    doc = write_doc(tmp_path, "doc.txt", "சுவ\n")
    assert main([doc, "--dict", wordlist, "--ed", "1"]) == 1
    near = capsys.readouterr().out
    assert "சிவம்" not in near
    assert main([doc, "--dict", wordlist, "--ed", "2"]) == 1
    far = capsys.readouterr().out
    assert "சிவம்" in far


def test_stopwords_flag(tmp_path, wordlist, capsys):
    stops = tmp_path / "stops.txt"
    stops.write_text("பளம்\n", encoding="utf-8")
    doc = write_doc(tmp_path, "doc.txt", "பளம்\n")
    status = main([doc, "--dict", wordlist, "--stopwords", str(stops)])
    assert status == 0
    assert capsys.readouterr().out == ""


def test_parallel_flag(tmp_path, wordlist, capsys):
    pairs = tmp_path / "pairs.tsv"
    pairs.write_text("printer\tஅச்சுப்பொறி\n", encoding="utf-8")
    doc = write_doc(tmp_path, "doc.txt", "printer பழம்\n")
    status = main([doc, "--dict", wordlist, "--parallel", str(pairs), "--json"])
    payload = json.loads(capsys.readouterr().out)
    assert status == 0
    token = payload[0]["tokens"][0]
    assert token["verdict"] == "nontamil"
    assert token["suggestions"][0]["candidate"] == "அச்சுப்பொறி"


def test_stats_go_to_stderr(tmp_path, wordlist, capsys):
    doc = write_doc(tmp_path, "doc.txt", "பளம்\n")
    main([doc, "--dict", wordlist, "--stats"])
    err = capsys.readouterr().err
    stats = json.loads(err.strip().splitlines()[-1])
    assert stats["cache_misses"] == 1
    assert "elapsed_seconds" in stats


# ----------------------------------------------------------------- errors


def test_no_arguments_is_usage_error(capsys):
    status = main([])
    err = capsys.readouterr().err
    assert status == 2
    assert "usage" in err
    assert "FILEs" in err


def test_missing_file_reports_and_exits_two(capsys):
    status = main(["/no/such/file.txt"])
    err = capsys.readouterr().err
    assert status == 2
    assert "tamilspell: error:" in err


@pytest.mark.parametrize("ed", ["0", "-1"])
def test_ed_below_one_is_usage_error(tmp_path, wordlist, capsys, ed):
    doc = write_doc(tmp_path, "doc.txt", "பளம்\n")
    with pytest.raises(SystemExit) as exit_info:
        main([doc, "--dict", wordlist, "--ed", ed])
    assert exit_info.value.code == 2
    assert "--ed" in capsys.readouterr().err


def test_undecodable_document_exits_two(tmp_path, wordlist, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_bytes("பழம்\n".encode() + b"\xff\n")
    status = main([str(bad), "--dict", wordlist])
    captured = capsys.readouterr()
    assert status == 2
    assert captured.out == ""
    assert captured.err.startswith(f"tamilspell: error: {bad}:2: undecodable bytes: ")
    assert "can't decode byte 0xff" in captured.err


def test_empty_wordlist_rejected(tmp_path, capsys):
    empty = tmp_path / "empty.txt"
    empty.write_text("# nothing\n", encoding="utf-8")
    doc = write_doc(tmp_path, "doc.txt", "பழம்\n")
    status = main([doc, "--dict", str(empty)])
    assert status == 2
    assert "empty" in capsys.readouterr().err


def test_bad_matrix_file_exits_two(tmp_path, wordlist, capsys):
    bad = tmp_path / "matrix.tsv"
    bad.write_text("க் no-tab-here\n", encoding="utf-8")
    doc = write_doc(tmp_path, "doc.txt", "பழம்\n")
    status = main([doc, "--dict", wordlist, "--cm", str(bad)])
    assert status == 2
    assert ":1:" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--cm", "--parallel", "--stopwords"])
def test_undecodable_data_file_exits_two(tmp_path, wordlist, capsys, flag):
    bad = tmp_path / "bad.tsv"
    bad.write_bytes(b"\xff\tx\n")
    doc = write_doc(tmp_path, "doc.txt", "பழம்\n")
    status = main([doc, "--dict", wordlist, flag, str(bad)])
    captured = capsys.readouterr()
    assert status == 2
    assert captured.out == ""
    assert captured.err.startswith(f"tamilspell: error: {bad}:1: ")
    assert "can't decode byte 0xff" in captured.err


# ----------------------------------------------------------------- flags


def test_dictionaries_merge(tmp_path, capsys):
    first = tmp_path / "a.txt"
    first.write_text("பழம்\n", encoding="utf-8")
    second = tmp_path / "b.txt"
    second.write_text("பலம்\n", encoding="utf-8")
    args = _build_parser().parse_args(["--dict", str(first), "--dict", str(second), "x"])
    engine = build_engine(args)
    assert engine.lexicon.is_word("பழம்")
    assert engine.lexicon.is_word("பலம்")
    doc = write_doc(tmp_path, "doc.txt", "பழம் பலம்\n")
    assert main([doc, "--dict", str(first), "--dict", str(second)]) == 0
    assert capsys.readouterr().out == ""


def test_build_engine_takes_the_engine_defaults():
    engine = build_engine(_build_parser().parse_args([]))
    assert engine.config == EngineConfig()
    assert engine.confusion_matrix is bundled_confusion_matrix()
    assert engine.stop_words == frozenset()


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["--version"])
    assert exit_info.value.code == 0
    assert capsys.readouterr().out.strip() == f"tamilspell {__version__}"


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "tamilspell", "--version"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == f"tamilspell {__version__}"
