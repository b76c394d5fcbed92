"""Engine tests: verdicts, strategy merging, the cache, and documents."""

from __future__ import annotations

import io
import json
import random
import time
import unicodedata
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings, strategies as st

import tamilspell.checker
import tamilspell.letters
from tamilspell import Strategy, Suggestion, conjoined, edits, keyboard, mayangoli
from tamilspell.bundled import bundled_lexicon
from tamilspell.checker import (
    CheckReport,
    EngineConfig,
    SpellChecker,
    TokenReport,
    Verdict,
    _nfc_document,
    _word_tokens,
    load_parallel_dict,
    load_stop_words,
)
from tamilspell.edits import letter_edit_distance
from tamilspell.errors import MatrixFormatError, TamilSpellError, WordListError
from tamilspell.keyboard import ConfusionMatrix, load_confusion_matrix
from tamilspell.letters import alphabet, letter_texts
from tamilspell.lexicon import Lexicon, load_wordlist
from oracles import reference_word_tokens
from test_walks import _random_lexicon

GOLDEN = Path(__file__).with_name("golden")


def engine(lexicon, **kwargs):
    kwargs.setdefault("parallel_dict", {"computer": "கணினி"})
    return SpellChecker(lexicon, **kwargs)


# ----------------------------------------------------------------- words


def test_valid_word(fixture_lexicon):
    report = engine(fixture_lexicon).check_word("பழம்")
    assert report.verdict is Verdict.VALID
    assert report.suggestions == ()
    assert report.is_clean


def test_nonword_merged_order(fixture_lexicon):
    report = engine(fixture_lexicon).check_word("பளம்")
    assert report.verdict is Verdict.NON_WORD
    assert not report.is_clean
    got = [(s.candidate, s.strategy) for s in report.suggestions]
    # Series substitutions outrank the keyboard hit, which outranks plain
    # edit candidates at the same distance.
    assert got[0] == ("பலம்", Strategy.MAYANGOLI)
    assert got[1] == ("பழம்", Strategy.MAYANGOLI)
    assert ("களம்", Strategy.KEYBOARD) in got


def test_merge_keeps_lowest_priority_strategy(fixture_lexicon):
    # பழம் is one edit away too, but the series strategy claims it.
    report = engine(fixture_lexicon).check_word("பளம்")
    by_candidate = {s.candidate: s for s in report.suggestions}
    assert by_candidate["பழம்"].strategy is Strategy.MAYANGOLI
    assert by_candidate["பழம்"].score == 1


def test_conjoined_pair_that_is_also_an_edit_is_listed_once():
    # The lexicon holds the spaced form too, one letter (the space) away.
    lexicon = Lexicon(["தென்றல்", "காற்று", "தென்றல் காற்று"])
    report = engine(lexicon).check_word("தென்றல்காற்று")
    assert report.suggestions == (Suggestion("தென்றல் காற்று", Strategy.CONJOINED, 0),)


def test_series_candidate_beyond_ed_is_scored_by_distance():
    # Three series swaps turn லழல into ழலழ, two edits away (a rotation);
    # the series budget is unlimited, so ed=1 does not hide it.
    report = engine(Lexicon(["ழலழ"]), config=EngineConfig(edit_distance=1)).check_word("லழல")
    assert report.suggestions == (Suggestion("ழலழ", Strategy.MAYANGOLI, 2),)


def test_bare_mei_is_an_edit_not_a_series_swap():
    # ல் and ள் share a series, but a bare mei is never substituted, so
    # கள் is one plain edit away from கல்.
    eng = engine(Lexicon(["கள்"]), confusion_matrix=ConfusionMatrix({}))
    assert eng.check_word("கல்").suggestions == (Suggestion("கள்", Strategy.EDIT, 1),)


def test_merged_list_is_sorted(fixture_lexicon):
    report = engine(fixture_lexicon).check_word("பளம்")
    keys = [(s.score, s.strategy.priority, s.candidate) for s in report.suggestions]
    assert keys == sorted(keys)


def test_scores_are_letter_edit_distance(fixture_lexicon):
    report = engine(fixture_lexicon).check_word("பளம்")
    for s in report.suggestions:
        if s.strategy is Strategy.CONJOINED:
            assert s.score == 0
        else:
            assert s.score == letter_edit_distance("பளம்", s.candidate)


def test_conjoined_scores_zero_and_reads_clean(fixture_lexicon, monkeypatch):
    # At MAX_SUGGESTIONS=1 the pair is the single suggestion kept.
    for k in (1, 10):
        monkeypatch.setattr(tamilspell.checker, "MAX_SUGGESTIONS", k)
        report = engine(fixture_lexicon).check_word("தென்றல்காற்று")
        assert report.verdict is Verdict.NON_WORD
        top = report.suggestions[0]
        assert top == Suggestion("தென்றல் காற்று", Strategy.CONJOINED, 0)
        assert report.is_clean


def test_max_suggestions_cap(fixture_lexicon, monkeypatch):
    assert tamilspell.checker.MAX_SUGGESTIONS == 10
    assert len(engine(fixture_lexicon).check_word("பளம்").suggestions) == 10
    monkeypatch.setattr(tamilspell.checker, "MAX_SUGGESTIONS", 2)
    assert len(engine(fixture_lexicon).check_word("பளம்").suggestions) == 2


def _suggestions(monkeypatch, lexicon, matrix, word, k, ed=2):
    monkeypatch.setattr(tamilspell.checker, "MAX_SUGGESTIONS", k)
    config = EngineConfig(edit_distance=ed)
    return engine(lexicon, confusion_matrix=matrix, config=config).check_word(word).suggestions


@pytest.mark.parametrize("ed", [1, 2, 3])
def test_max_suggestions_keeps_the_head_of_the_ranking(monkeypatch, ed):
    # Dense random lexicons over series letters, a mei and an uyir give
    # every strategy candidates, many at one distance.  The cut must keep
    # exactly the head of the uncut ranking, also with DENSE_LEXICON at 0,
    # where a non-word is first walked within ed - 1 and then searched for
    # only the distance-ed edit words the cut can still take, or not at all
    # when the cut is already full.
    searches = []
    search = Lexicon.first_at_distance
    monkeypatch.setattr(
        Lexicon, "first_at_distance", lambda *args: searches.append(args[3]) or search(*args)
    )
    default = tamilspell.checker.DENSE_LEXICON
    skipped = 0
    rng = random.Random(1210)
    pool = ["ல", "ள", "ழ", "லா", "ன", "ண", "ல்", "அ"]
    dense = 0
    for _ in range(300):
        letters = rng.sample(pool, 5)
        words = _random_lexicon(rng, letters, 4)
        matrix = ConfusionMatrix(
            {key: [c for c in rng.sample(letters, 2) if c != key] for key in letters}
        )
        lexicon = Lexicon(words)
        if rng.random() < 0.5:
            word = "".join(rng.sample(sorted(words), 2))
        else:
            word = "".join(rng.choice(letters) for _ in range(rng.randint(1, 5)))
        if lexicon.is_word(word):
            continue
        # The uncut ranking comes from the ed walk.
        monkeypatch.setattr(tamilspell.checker, "DENSE_LEXICON", default)
        uncut = _suggestions(monkeypatch, lexicon, matrix, word, 10**6, ed)
        for gate in (default, 0):
            monkeypatch.setattr(tamilspell.checker, "DENSE_LEXICON", gate)
            for k in (1, 3, 10):
                before = len(searches)
                assert _suggestions(monkeypatch, lexicon, matrix, word, k, ed) == uncut[:k], (word, k, gate)
                if gate:
                    assert len(searches) == before, "a lexicon this small takes the ed walk"
                elif len(searches) == before:
                    skipped += 1
                else:
                    assert 0 < searches[-1] <= k
        keys = [(s.score, s.strategy.priority, s.candidate) for s in uncut]
        assert keys == sorted(keys)
        assert len({s.candidate for s in uncut}) == len(uncut)
        # Few lexicons hold more than ten candidates within one edit, so at
        # ed 1 the cut at three is the one that must bite.
        dense += len(uncut) > (3 if ed == 1 else 10)
    assert dense > 40, "the lexicons must give more candidates than the cut keeps"
    assert skipped > 100, "the ed - 1 walk and the other strategies must fill the cut often"
    assert len(searches) > 100, "the bounded search must run often"


def test_the_early_out_counts_a_candidate_two_strategies_propose_once(monkeypatch):
    # அ க is a lexicon word one letter (the space) from அக, so the ed - 1
    # walk finds it, and it is also அக's conjoined pair: one rank key.
    # Counted twice, the three keys under ed would read as a full cut of
    # four and lose இஈ, two edits away.
    lexicon = Lexicon(["அ", "க", "அ க", "இஈ"])
    monkeypatch.setattr(tamilspell.checker, "DENSE_LEXICON", 0)
    ranked = _suggestions(monkeypatch, lexicon, ConfusionMatrix({}), "அக", 10**6)
    assert ranked == (
        Suggestion("அ க", Strategy.CONJOINED, 0),
        Suggestion("அ", Strategy.EDIT, 1),
        Suggestion("க", Strategy.EDIT, 1),
        Suggestion("இஈ", Strategy.EDIT, 2),
    )
    for k in range(1, 6):
        assert _suggestions(monkeypatch, lexicon, ConfusionMatrix({}), "அக", k) == ranked[:k]


def test_the_early_out_needs_the_whole_cut_below_ed(monkeypatch):
    # ழழழ is three series swaps from லலல, distance 3.  With the cut at two,
    # லலலம் (one edit) and ழழழ fill it after the ed - 1 walk, but லம், two
    # edits away, outranks ழழழ, so the search at distance ed must still run.
    lexicon = Lexicon(["லலலம்", "லம்", "ழழழ"])
    monkeypatch.setattr(tamilspell.checker, "DENSE_LEXICON", 0)
    ranked = _suggestions(monkeypatch, lexicon, ConfusionMatrix({}), "லலல", 10**6)
    assert ranked == (
        Suggestion("லலலம்", Strategy.EDIT, 1),
        Suggestion("லம்", Strategy.EDIT, 2),
        Suggestion("ழழழ", Strategy.MAYANGOLI, 3),
    )
    assert _suggestions(monkeypatch, lexicon, ConfusionMatrix({}), "லலல", 2) == ranked[:2]


def test_a_small_lexicon_takes_one_edit_walk_per_non_word(fixture_lexicon):
    # Under DENSE_LEXICON words, every non-word takes the ed walk alone,
    # as it did before the early-out existed.
    budgets = []

    class Recording(Lexicon):
        def within_distance(self, letters, ed):
            budgets.append(ed)
            return super().within_distance(letters, ed)

    lexicon = Recording(fixture_lexicon.words())
    assert len(lexicon) < tamilspell.checker.DENSE_LEXICON
    eng = engine(lexicon)
    eng.check_text((GOLDEN / "document.txt").read_text(encoding="utf-8"))
    for word in ("பளம்", "ஙொ", "கறக", "மலழ"):
        eng.check_word(word)
    assert budgets == [2] * eng.stats["cache_misses"]


def test_an_edit_distance_beyond_every_word_answers_quickly(fixture_lexicon, monkeypatch):
    # No word is farther than max(m, L) letters from an m-letter token, so
    # any larger edit distance gives the same report, in the same time, on
    # either path.
    for gate in (tamilspell.checker.DENSE_LEXICON, 0):
        monkeypatch.setattr(tamilspell.checker, "DENSE_LEXICON", gate)
        for word in ("கடலா", "பளம்", "ஙொ"):
            top = max(len(letter_texts(word)), fixture_lexicon.longest)
            at_top = engine(fixture_lexicon, config=EngineConfig(edit_distance=top)).check_word(word)
            started = time.perf_counter()
            far = engine(fixture_lexicon, config=EngineConfig(edit_distance=10**6)).check_word(word)
            assert time.perf_counter() - started < 2.0
            assert far == at_top


def test_engine_config_validation():
    with pytest.raises(ValueError):
        EngineConfig(edit_distance=0)
    # A float or a string would fail later, inside the walk.
    for ed in (2.0, "2"):
        with pytest.raises(TypeError, match="edit_distance"):
            EngineConfig(edit_distance=ed)


# ----------------------------------------------------------------- documents


def test_check_text_orders_and_verdicts(fixture_lexicon):
    text = "பழம் பளம், computer!"
    report = engine(fixture_lexicon).check_text(text)
    assert [t.token for t in report.tokens] == ["பழம்", "பளம்", "computer"]
    assert [t.verdict for t in report.tokens] == [
        Verdict.VALID,
        Verdict.NON_WORD,
        Verdict.NON_TAMIL,
    ]
    assert not report.clean
    assert [t.token for t in report.non_words()] == ["பளம்"]


def test_check_word_gives_the_check_text_verdict(fixture_lexicon):
    eng = engine(fixture_lexicon, stop_words=["பளம்"])
    for token in ("computer", "பளம்", "பழம்", "சுவம்", "தென்\u200cறல்", "தென்\u200dறல்"):
        assert eng.check_text(token).tokens == (eng.check_word(token),)
    assert eng.check_word("computer") == TokenReport(
        "computer", Verdict.NON_TAMIL, (Suggestion("கணினி", Strategy.FOREIGN, 0),)
    )
    assert eng.check_word("பளம்") == TokenReport("பளம்", Verdict.SKIPPED, ())
    assert eng.check_word("") == TokenReport("", Verdict.NON_TAMIL, ())
    # A joiner stays inside its word, which is then one letter from தென்றல்.
    zwnj = eng.check_word("தென்\u200cறல்")
    assert zwnj.verdict is Verdict.NON_WORD
    assert Suggestion("தென்றல்", Strategy.EDIT, 1) in zwnj.suggestions
    # Only சுவம் and the two joiner spellings reached the strategies.
    assert eng.stats["cache_misses"] == 3


def test_valid_tokens_carry_no_suggestions(fixture_lexicon):
    report = engine(fixture_lexicon).check_text("பழம் வீடு மரம் பளம்")
    for token in report.tokens:
        if token.verdict is Verdict.VALID:
            assert token.suggestions == ()


def test_stop_words_skipped(fixture_lexicon):
    eng = engine(fixture_lexicon, stop_words=["பளம்"])
    report = eng.check_text("பளம் பழம்")
    assert report.tokens[0].verdict is Verdict.SKIPPED
    assert report.tokens[0].suggestions == ()
    assert report.clean


def test_foreign_token_casefolds(fixture_lexicon):
    report = engine(fixture_lexicon).check_text("COMPUTER Computer computer")
    for token in report.tokens:
        assert token.verdict is Verdict.NON_TAMIL
        assert [s.candidate for s in token.suggestions] == ["கணினி"]
        assert token.suggestions[0].strategy is Strategy.FOREIGN


def test_parallel_dict_is_nfc_normalized(fixture_lexicon):
    # Tokens are NFC, so an NFD key must still match and an NFD value comes
    # back composed.
    nfd = {unicodedata.normalize("NFD", "CAFÉ"): unicodedata.normalize("NFD", "கோப்பி")}
    eng = engine(fixture_lexicon, parallel_dict=nfd)
    assert [s.candidate for s in eng.check_word("café").suggestions] == ["கோப்பி"]


def test_unknown_foreign_has_no_suggestions(fixture_lexicon):
    report = engine(fixture_lexicon).check_text("zebra")
    token = report.tokens[0]
    assert token.verdict is Verdict.NON_TAMIL
    assert token.suggestions == ()
    assert token.is_clean


def test_empty_text_is_clean(fixture_lexicon):
    report = engine(fixture_lexicon).check_text("")
    assert report.tokens == ()
    assert report.clean


def test_a_token_too_long_for_any_candidate_runs_no_strategy(fixture_lexicon, monkeypatch):
    # No candidate of the bundled lexicon (longest word L = 6 letters) can
    # match a token of more than max(L + 2, 2 * L) letters, so a 10^5-letter
    # one is answered at once and is not memoized.
    calls = []
    for module, name in (
        (edits, "suggest"),
        (mayangoli, "suggest"),
        (keyboard, "corrections"),
        (conjoined, "recognize"),
        (tamilspell.checker, "letter_texts"),
    ):
        original = getattr(module, name)

        def recorded(*args, _original=original, _name=name, **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, name, recorded)
    eng = engine(fixture_lexicon)
    token = "க" * 100_000
    report = eng.check_word(token)
    assert report == TokenReport(token, Verdict.NON_WORD, ())
    assert eng.check_text(f"பழம் {token} பழம்").tokens[1] == report
    assert calls == []
    assert eng.stats == {"cache_hits": 0, "cache_misses": 0, "cache_size": 0}
    eng.check_word("பளம்")
    assert set(calls) == {"suggest", "corrections", "recognize", "letter_texts"}


@pytest.mark.parametrize(
    ("words", "ed", "letters"),
    [
        (["க்ஷா"], 2, 3),  # L + ed letters, L = 1: an edit candidate
        (["க்ஷா", "க்ஷாக்ஷா"], 1, 4),  # 2 * L letters, L = 2: a conjoined pair
    ],
)
def test_the_length_bound_agrees_with_the_strategies_at_its_edge(words, ed, letters):
    # க்ஷா is one letter of four code points, the most one letter spans, so
    # a token of its copies is as short in code points as its letters allow.
    lexicon = Lexicon(words)
    assert max(lexicon.longest + ed, 2 * lexicon.longest) == letters
    eng = engine(lexicon, config=EngineConfig(edit_distance=ed))
    for token in ("க்ஷா" * letters, "க்ஷா" * (letters + 1), "க" * (4 * letters + 1)):
        unbounded = TokenReport(token, Verdict.NON_WORD, eng._compute_suggestions(token))
        assert eng.check_word(token) == unbounded, token
    assert eng.check_word("க்ஷா" * letters).suggestions
    assert eng.stats["cache_misses"] == 1


def test_mixed_script_token_goes_to_lexicon(fixture_lexicon):
    # One Tamil code point is enough to route a token at the lexicon.
    report = engine(fixture_lexicon).check_text("பzழம்")
    assert report.tokens[0].verdict is Verdict.NON_WORD


# Code points the word split must classify as the category loop does.
_SPLIT_CHARS = st.one_of(
    st.sampled_from([chr(c) for c in range(0x0B80, 0x0C00)]),  # unassigned points too
    st.characters(max_codepoint=0x7F),
    st.sampled_from(["\u200c", "\u200d", "\u0301", "\u093e", "\u0660", "\u00a0", "\u3000", "\x1c"]),
    st.characters(min_codepoint=0x10000),
    st.characters(),
)


@settings(max_examples=300, deadline=None)
@given(st.text(_SPLIT_CHARS, max_size=40))
@example("க\u0bfb\u0be6\u0b80ா\u0bff_\u200cக\u0301 \u00a0\u3000x\u093e\x1c\u0660😀𝔸")
def test_word_split_equals_the_category_loop(text):
    assert _word_tokens(*_nfc_document(text)) == reference_word_tokens(
        unicodedata.normalize("NFC", text)
    )


# ASCII, the Tamil block, the joiners, the no-break space and U+2010-U+2027:
# a text of these alone is normalized only when it holds one of the four
# composing pairs.
_BASE_CHARS = [
    chr(c)
    for c in (*range(0x80), 0xA0, *range(0x0B80, 0x0C00), 0x200C, 0x200D, *range(0x2010, 0x2028))
]


def test_nfc_gate_is_exact_on_every_pair_of_base_code_points():
    for a in _BASE_CHARS:
        for b in _BASE_CHARS:
            assert _nfc_document(a + b) == (unicodedata.normalize("NFC", a + b), False)


_NFC_CHARS = st.one_of(
    st.sampled_from(_BASE_CHARS),
    # The parts of the composing pairs, and pulli.
    st.sampled_from(["\u0bc6", "\u0bc7", "\u0b92", "\u0bbe", "\u0bd7", "\u0bcd"]),
    # Outside the base: = and U+0338 compose, U+0301 sorts after a pulli
    # that follows it, the Kelvin sign becomes ASCII K, a nukta, and é.
    st.sampled_from(["=", "e", "\u0338", "\u0301", "\u212a", "\u093c", "\u00e9"]),
    st.characters(),
)


@settings(max_examples=300, deadline=None)
@given(st.text(_NFC_CHARS, max_size=40))
@example("=\u0338 \u0b95\u0bc6\u0bbe \u0b95\u0301\u0bcd \u0b92\u0bd7 \u212a e\u0301")
def test_nfc_gate_equals_normalize_on_any_text(text):
    normalized, mixed = _nfc_document(text)
    assert normalized == unicodedata.normalize("NFC", text)
    assert _word_tokens(normalized, mixed) == reference_word_tokens(normalized)


def test_check_text_routes_each_distinct_token_once(fixture_lexicon):
    class Counting(Lexicon):
        def is_word(self, word):
            probed.append(word)
            return super().is_word(word)

    probed = []
    eng = engine(Counting(fixture_lexicon.words()), stop_words=["கறி"])
    text = "பழம் பளம் பழம் computer பளம் கறி பழம் computer கறி"
    first = eng.check_text(text)
    assert probed == ["பழம்", "பளம்"]  # a stop word or a non-Tamil token is never probed
    tokens = first.tokens
    assert tokens[0] is tokens[2] is tokens[6]
    assert tokens[3] is tokens[7]
    assert tokens[5] is tokens[8]
    assert tokens[1].suggestions is tokens[4].suggestions
    # Nothing is kept across calls.
    probed.clear()
    assert eng.check_text(text) == first
    assert probed == ["பழம்", "பளம்"]
    assert [eng.check_word(tok) for tok in text.split()] == list(first.tokens)


def test_to_json_renders_shared_and_same_text_reports(fixture_lexicon):
    eng = engine(fixture_lexicon)
    nonword = eng.check_word("பளம்")
    valid = eng.check_word("பழம்")
    # One report object repeated, and two different reports for one token
    # text, with equal and with different suggestions.
    other = TokenReport("பளம்", Verdict.NON_WORD, nonword.suggestions[:1])
    equal = TokenReport("பளம்", Verdict.NON_WORD, tuple(list(nonword.suggestions)))
    skipped = TokenReport("பழம்", Verdict.SKIPPED, ())
    assert equal.suggestions is not nonword.suggestions
    report = CheckReport((valid, nonword, valid, other, nonword, skipped, equal, other, valid))
    for indent in (None, 0, 2):
        assert report.to_json(indent) == _dumps(report, indent)


def test_to_json_on_a_warm_engine_follows_each_layout(fixture_lexicon):
    # The same suggestion lists come back on every pass, in a new layout each
    # time, and last in the first layout again.
    eng = engine(fixture_lexicon)
    text = "பளம் பழம் சுவம் பளம் computer தென்றல்காற்று"
    for indent in (None, 2, "\t", 0, None):
        report = eng.check_text(text)
        assert report.to_json(indent) == _dumps(report, indent)


def test_to_json_keeps_tamil_readable(fixture_lexicon):
    report = engine(fixture_lexicon).check_text("பளம்")
    text = report.to_json()
    assert "பளம்" in text
    assert "\\u" not in text


def _dumps(report, indent):
    return json.dumps(report.as_dicts(), ensure_ascii=False, indent=indent)


ODD_TEXTS = ('say "hi"', "back\\slash", "\x00\x07\t\n\x1f\x7f", "line\u2028sep\u2029", "😀𝔸", "")


def test_to_json_equals_json_dumps(fixture_lexicon):
    checked = engine(fixture_lexicon).check_text("பழம் பளம் computer தென்றல்காற்று xyz")
    odd = CheckReport(tuple(
        TokenReport(text, verdict, suggestions)
        for text, verdict, suggestions in [
            (ODD_TEXTS[0], Verdict.NON_WORD, ()),
            (ODD_TEXTS[1], Verdict.NON_TAMIL, (Suggestion(ODD_TEXTS[2], Strategy.FOREIGN, 0),)),
            (ODD_TEXTS[3], Verdict.NON_WORD, tuple(
                Suggestion(text, strategy, score)
                for text, strategy, score in zip(ODD_TEXTS, Strategy, (0, 1, 2, 12, -3))
            )),
            (ODD_TEXTS[4], Verdict.SKIPPED, ()),
            (ODD_TEXTS[5], Verdict.VALID, ()),
        ]
    ))
    for report in (checked, odd, CheckReport(())):
        for indent in (None, 0, 2):
            assert report.to_json(indent) == _dumps(report, indent)
    assert any(t.suggestions for t in checked.tokens)
    assert any(not t.suggestions for t in checked.tokens)


@given(st.lists(st.tuples(
    st.text(max_size=8),
    st.sampled_from(Verdict),
    st.lists(st.tuples(st.text(max_size=8), st.sampled_from(Strategy), st.integers(-999, 999)), max_size=3),
), max_size=4))
def test_to_json_equals_json_dumps_on_any_text(rows):
    report = CheckReport(tuple(
        TokenReport(token, verdict, tuple(Suggestion(*s) for s in suggestions))
        for token, verdict, suggestions in rows
    ))
    for indent in (None, 0, 2):
        assert report.to_json(indent) == _dumps(report, indent)


def test_report_dict_shapes(fixture_lexicon):
    report = engine(fixture_lexicon).check_text("பழம் பளம்")
    dicts = report.as_dicts()
    assert dicts[0] == {"token": "பழம்", "verdict": "valid", "suggestions": []}
    entry = dicts[1]
    assert entry["token"] == "பளம்"
    assert entry["verdict"] == "nonword"
    first = entry["suggestions"][0]
    assert set(first) == {"candidate", "strategy", "score"}


# The vowel signs that NFD decomposes into two code points.
_TWO_PART_SIGNS = ("ொ", "ோ", "ௌ")
_TWO_PART_WORDS = sorted(
    w for w in bundled_lexicon().words() if any(sign in w for sign in _TWO_PART_SIGNS)
)


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(_TWO_PART_WORDS),
    st.lists(
        st.tuples(st.booleans(), st.integers(0, 20), st.sampled_from(alphabet().letters)),
        max_size=2,
    ),
)
def test_nfd_spelling_gets_the_nfc_report(fixture_lexicon, word, edits):
    # Only the checker normalizes; every strategy sees the NFC letters.
    # Edited words are mostly non-words, which reach every strategy.
    letters = list(letter_texts(word))
    for replace, pos, letter in edits:
        if replace:
            letters[pos % len(letters)] = letter
        else:
            letters.insert(pos % (len(letters) + 1), letter)
    nfc = "".join(letters)
    nfd = unicodedata.normalize("NFD", nfc)
    assume(nfd != nfc)
    want = engine(fixture_lexicon).check_word(nfc)
    assert engine(fixture_lexicon).check_word(nfd) == want
    text = f"{nfd}, {nfd}"
    assert engine(fixture_lexicon).check_text(text) == CheckReport((want, want))


@pytest.mark.parametrize("token", ["பளம்", "தென்றல்காற்று", "கணவன்", "ஙொ", "ளளளளளள"])
def test_a_non_word_is_split_once_when_computed(fixture_lexicon, monkeypatch, token):
    # Counted at the letter splitter behind letter_texts and tokenize; the
    # lexicon's own splits of other texts (halves, candidates) do not count.
    split = tamilspell.letters._SPLIT
    calls = []
    monkeypatch.setattr(tamilspell.letters, "_SPLIT", lambda text: calls.append(text) or split(text))
    monkeypatch.setattr(tamilspell.checker, "MAX_SUGGESTIONS", 10**6)
    eng = engine(fixture_lexicon)
    report = eng.check_word(token)
    assert report.verdict is Verdict.NON_WORD
    assert calls.count(token) == 1
    assert eng.check_word(token).suggestions is report.suggestions
    assert calls.count(token) == 1


@pytest.mark.parametrize(
    "strategy",
    [
        lambda text, lex: edits.suggest(text, lex),
        lambda text, lex: mayangoli.suggest(text, lex),
        lambda text, lex: keyboard.corrections(text, lex, ConfusionMatrix({"ள்": ["ழ்"]}), 1),
        lambda text, lex: conjoined.recognize(text, lex),
    ],
    ids=["edits.suggest", "mayangoli.suggest", "keyboard.corrections", "conjoined.recognize"],
)
def test_strategies_reject_text(fixture_lexicon, strategy):
    # Text is a sequence of code points, not of letters: பளம் as text would
    # be five one-code-point "letters" and match nothing.
    with pytest.raises(TypeError):
        strategy("பளம்", fixture_lexicon)
    assert strategy(letter_texts("பளம்"), fixture_lexicon) is not None


# ----------------------------------------------------------------- cache


def test_cache_counts_and_shares_result(fixture_lexicon):
    eng = engine(fixture_lexicon)
    report = eng.check_text("பளம் பளம் பளம் பளம்")
    assert eng.stats["cache_misses"] == 1
    assert eng.stats["cache_hits"] == 3
    tuples = [t.suggestions for t in report.tokens]
    assert all(t is tuples[0] for t in tuples)


def test_cache_hits_return_identical_object(fixture_lexicon):
    eng = engine(fixture_lexicon)
    first = eng.check_word("பளம்").suggestions
    second = eng.check_word("பளம்").suggestions
    assert second is first


def test_computations_count_distinct_nonwords(fixture_lexicon):
    # கறி is in the lexicon; பளம் and சுவம் are the two distinct non-words.
    eng = engine(fixture_lexicon)
    eng.check_text("பளம் கறி சுவம் பளம் கறி சுவம் பளம்")
    assert eng.stats["cache_misses"] == 2
    assert eng.stats["cache_size"] == 2


def test_cache_never_stores_failures(fixture_lexicon):
    class FailingOnce(Lexicon):
        failed = False

        def within_distance(self, letters, ed):
            if not self.failed:
                self.failed = True
                raise RuntimeError("first walk fails")
            return super().within_distance(letters, ed)

    eng = engine(FailingOnce(fixture_lexicon.words()))
    with pytest.raises(RuntimeError):
        eng.check_word("பளம்")
    assert eng.stats["cache_size"] == 0
    assert eng.check_word("பளம்") == engine(fixture_lexicon).check_word("பளம்")
    assert eng.stats == {"cache_hits": 0, "cache_misses": 2, "cache_size": 1}


def test_cache_is_bounded_and_evicts_least_recent(fixture_lexicon, monkeypatch):
    monkeypatch.setattr(tamilspell.checker, "CACHE_SIZE", 2)
    eng = engine(fixture_lexicon)
    first = eng.check_word("பளம்").suggestions
    eng.check_word("சுவம்")
    assert eng.check_word("பளம்").suggestions is first  # now the most recent
    eng.check_word("கறக")  # evicts சுவம்
    assert eng.check_word("பளம்").suggestions is first
    for word in ("மலழ", "சுவம்"):
        eng.check_word(word)
        assert eng.stats["cache_size"] == 2
    again = eng.check_word("பளம்").suggestions
    assert again == first
    assert again is not first  # evicted, then computed afresh
    assert eng.stats == {"cache_hits": 2, "cache_misses": 6, "cache_size": 2}


def test_memo_eviction_mid_pass_keeps_each_report(fixture_lexicon, monkeypatch):
    # With one memo slot, the alternating non-words evict each other, so the
    # memo hands back a new tuple for every occurrence.
    monkeypatch.setattr(tamilspell.checker, "CACHE_SIZE", 1)
    eng = engine(fixture_lexicon)
    tokens = ["பளம்", "பழம்", "சுவம்", "பழம்"] * 3
    report = eng.check_text(" ".join(tokens))
    stats = eng.stats
    assert stats["cache_hits"] + stats["cache_misses"] == 6
    assert list(report.tokens) == [eng.check_word(tok) for tok in tokens]
    assert eng.check_word("பளம்").suggestions is not report.tokens[0].suggestions


def test_a_repeated_non_word_shares_one_report(fixture_lexicon):
    eng = engine(fixture_lexicon)
    report = eng.check_text("பளம் பழம் பளம்")
    assert report.tokens[0] is report.tokens[2]
    assert eng.check_word("பளம்") is report.tokens[0]
    assert eng.check_text("பளம்").tokens[0] is report.tokens[0]
    # Every occurrence is counted: two in the document, then two more.
    assert eng.stats == {"cache_hits": 3, "cache_misses": 1, "cache_size": 1}


def test_stats_shape(fixture_lexicon):
    eng = engine(fixture_lexicon)
    eng.check_word("பளம்")
    eng.check_word("பளம்")
    assert eng.stats == {"cache_hits": 1, "cache_misses": 1, "cache_size": 1}


# ----------------------------------------------------------------- loaders


def test_load_parallel_dict_casefolds_keys(tmp_path):
    path = tmp_path / "parallel.tsv"
    cafe = unicodedata.normalize("NFD", "Café")
    path.write_text(
        f"# pairs\nComputer\tகணினி\n\nPHONE\tதொலைபேசி\n{cafe}\tகோப்பி\n", encoding="utf-8"
    )
    mapping = load_parallel_dict(path)
    assert mapping == {"computer": "கணினி", "phone": "தொலைபேசி", "café": "கோப்பி"}


def test_load_parallel_dict_requires_tab():
    stream = io.StringIO("computer கணினி\n")
    with pytest.raises(Exception) as err:
        load_parallel_dict(stream)
    assert ":1:" in str(err.value)


def test_load_parallel_dict_rejects_empty_field():
    stream = io.StringIO("computer\tகணினி\n\t கணினி\n")
    with pytest.raises(Exception) as err:
        load_parallel_dict(stream)
    assert ":2:" in str(err.value)


def test_load_stop_words(tmp_path):
    path = tmp_path / "stops.txt"
    path.write_text("# list\nஒரு\n\nஅந்த\n", encoding="utf-8")
    assert load_stop_words(path) == frozenset({"ஒரு", "அந்த"})


@pytest.mark.parametrize(
    "loader, error, first_line",
    [
        (load_wordlist, WordListError, "கல்"),
        (load_confusion_matrix, MatrixFormatError, "க்\tல்"),
        (load_parallel_dict, TamilSpellError, "computer\tகணினி"),
        (load_stop_words, TamilSpellError, "ஒரு"),
    ],
)
def test_loaders_name_the_undecodable_line(tmp_path, loader, error, first_line):
    data = first_line.encode() + b"\n\xff\tx\n"
    path = tmp_path / "bad.txt"
    path.write_bytes(data)
    for source, name in ((str(path), str(path)), (path, str(path)), (io.BytesIO(data), "<stream>")):
        with pytest.raises(TamilSpellError) as err:
            loader(source)
        assert type(err.value) is error
        assert str(err.value).startswith(f"{name}:2: undecodable bytes: ")
        assert "can't decode byte 0xff" in str(err.value)


@pytest.mark.parametrize(
    "loader, text, view, want",
    [
        (load_wordlist, "பழம்\nகல்\n", lambda lex: set(lex.words()), {"பழம்", "கல்"}),
        (load_confusion_matrix, "க்\tல்\n", lambda cm: (len(cm), cm.alternates_for("க்")), (1, ("ல்",))),
        (load_parallel_dict, "computer\tகணினி\n", dict, {"computer": "கணினி"}),
        (load_stop_words, "ஒரு\nஅந்த\n", set, {"ஒரு", "அந்த"}),
    ],
    ids=["wordlist", "matrix", "parallel", "stop-words"],
)
def test_loaders_drop_a_leading_byte_order_mark(tmp_path, loader, text, view, want):
    # Editors that save "UTF-8 with BOM" put U+FEFF before the first line;
    # it must not become part of the first word or key.
    data = ("\ufeff" + text).encode()
    path = tmp_path / "bom.txt"
    path.write_bytes(data)
    for source in (path, io.BytesIO(data), io.StringIO("\ufeff" + text)):
        assert view(loader(source)) == want


def test_bundled_parallel_dict_used_by_default(fixture_lexicon, fixture_parallel):
    eng = SpellChecker(fixture_lexicon, parallel_dict=fixture_parallel)
    token = eng.check_text("internet").tokens[0]
    assert [s.candidate for s in token.suggestions] == ["இணையம்"]


def test_token_report_is_frozen(fixture_lexicon):
    report = engine(fixture_lexicon).check_word("பழம்")
    with pytest.raises(AttributeError):
        report.verdict = Verdict.NON_WORD
    non_word = engine(fixture_lexicon).check_word("பளம்")
    fields = {
        non_word: ("token", "verdict", "suggestions"),
        non_word.suggestions[0]: ("candidate", "strategy", "score"),
    }
    for obj, names in fields.items():
        for name in (*names, "extra"):  # no field is settable and none can be added
            with pytest.raises(AttributeError):
                setattr(obj, name, None)


def test_equal_reports_hash_equal_and_keep_their_repr(fixture_lexicon):
    first = engine(fixture_lexicon).check_word("பளம்")
    second = engine(fixture_lexicon).check_word("பளம்")
    assert first == second and first is not second
    assert hash(first) == hash(second)
    assert len({first, second, *first.suggestions, *second.suggestions}) == 1 + len(first.suggestions)
    report = TokenReport("பளம்", Verdict.NON_WORD, (Suggestion("பழம்", Strategy.MAYANGOLI, 1),))
    assert repr(report) == (
        "TokenReport(token='பளம்', verdict=<Verdict.NON_WORD: 'nonword'>, suggestions="
        "(Suggestion(candidate='பழம்', strategy=<Strategy.MAYANGOLI: 'mayangoli'>, score=1),))"
    )
    assert repr(TokenReport("x", Verdict.VALID)) == (
        "TokenReport(token='x', verdict=<Verdict.VALID: 'valid'>, suggestions=())"
    )
