from __future__ import annotations

import collections
import unicodedata

import pytest
from hypothesis import example, given, settings, strategies as st

from oracles import GRANTHA_LETTERS, LETTERS, reference_tokenize
from tamilspell.letters import (
    AYUDHAM,
    GRANTHA_CONSONANTS,
    KSSA,
    PULLI,
    SIGN_TO_UYIR,
    Letter,
    LetterKind,
    classify,
    has_tamil,
    is_tamil_codepoint,
    join_mei_uyir,
    letter_texts,
    split_mei_uyir,
    tokenize,
)
from tamilspell.letters import _BASE_CODE_POINTS, _LETTERS, _known_nfc


def texts(tokens):
    return [t.text for t in tokens]


def kinds(tokens):
    return [t.kind for t in tokens]


# --------------------------------------------------------------------- #
# code point screening


def test_block_boundaries():
    assert not is_tamil_codepoint("஁")
    assert is_tamil_codepoint("ஂ")
    assert is_tamil_codepoint("க")
    assert is_tamil_codepoint("௺")
    assert not is_tamil_codepoint("௻")
    assert not is_tamil_codepoint("a")


def test_predicate_wants_one_codepoint():
    with pytest.raises(ValueError):
        is_tamil_codepoint("கா")
    with pytest.raises(ValueError):
        is_tamil_codepoint("")


def test_has_tamil():
    assert has_tamil("abc க xyz")
    assert not has_tamil("abc xyz")
    assert not has_tamil("")
    # The block edges agree with is_tamil_codepoint.
    assert has_tamil("x\u0b82") and has_tamil("\u0bfa")
    assert not has_tamil("\u0b81\u0bfb")


# The code points on each side of the Tamil block's two edges.
_BLOCK_EDGES = "\u0b81\u0b82\u0bfa\u0bfb"


@given(
    st.one_of(st.sampled_from(_BLOCK_EDGES), st.characters(min_codepoint=0x10000), st.characters()),
    st.text(st.one_of(st.sampled_from(_BLOCK_EDGES + "க"), st.characters()), max_size=12),
)
@example("\u0b81", "x")
@example("\u0bfb", "\U0001f600")
@example("\U0001f600", "\u0bfa")
def test_has_tamil_equals_the_code_point_loop(first, rest):
    # The first code point is drawn apart, since has_tamil decides on it alone
    # when it is Tamil.
    text = first + rest
    assert has_tamil(text) == any(is_tamil_codepoint(c) for c in text)


# --------------------------------------------------------------------- #
# tokenization


def test_tokenize_simple_word():
    tokens = tokenize("பளம்")
    assert texts(tokens) == ["ப", "ள", "ம்"]
    assert kinds(tokens) == [LetterKind.UYIRMEI, LetterKind.UYIRMEI, LetterKind.MEI]


def test_tokenize_compound():
    assert texts(tokenize("தென்றல்காற்று")) == ["தெ", "ன்", "ற", "ல்", "கா", "ற்", "று"]


def test_tokenize_uyir_and_ayudham():
    tokens = tokenize("அஃது")
    assert texts(tokens) == ["அ", "ஃ", "து"]
    assert kinds(tokens) == [LetterKind.UYIR, LetterKind.AYUDHAM, LetterKind.UYIRMEI]


def test_tokenize_passthrough():
    tokens = tokenize("abக1")
    assert texts(tokens) == ["a", "b", "க", "1"]
    assert kinds(tokens) == [
        LetterKind.OTHER,
        LetterKind.OTHER,
        LetterKind.UYIRMEI,
        LetterKind.OTHER,
    ]


def test_tokenize_dangling_marks_are_kept():
    # A vowel sign or pulli with nothing to attach to is malformed, not lost.
    tokens = tokenize("ாக்")
    assert texts(tokens) == ["ா", "க்"]
    assert tokens[0].kind is LetterKind.MALFORMED
    tokens = tokenize("்")
    assert kinds(tokens) == [LetterKind.MALFORMED]


def test_tokenize_empty():
    assert tokenize("") == []


def test_tokenize_ksha_conjunct():
    assert tokenize(KSSA) == [Letter(KSSA, LetterKind.UYIRMEI)]
    assert tokenize("க்ஷா") == [Letter("க்ஷா", LetterKind.UYIRMEI)]
    assert tokenize("க்ஷ்") == [Letter("க்ஷ்", LetterKind.MEI)]
    # க் followed by anything but ஷ stays a mei of its own
    assert texts(tokenize("க்க")) == ["க்", "க"]


@given(st.text(max_size=40))
def test_tokenize_partitions_any_text(text):
    assert "".join(texts(tokenize(text))) == text


# Pieces drawn for the reference comparison: the whole Tamil block
# (assigned or not), Latin letters, newline, the joiners, a combining
# acute, and the pieces of க்ஷ, also pre-joined so the conjunct turns up.
_PIECES = (
    [chr(cp) for cp in range(0x0B80, 0x0C00)]
    + list("abcXYZ")
    + ["\n", "\u200c", "\u200d", "\u0301", "க", PULLI, "ஷ", "க்", "க்ஷ", KSSA + PULLI]
)


@given(st.lists(st.sampled_from(_PIECES), max_size=30).map("".join))
def test_tokenize_equals_reference_loop(text):
    expected = [(t.text, t.kind) for t in reference_tokenize(text)]
    assert [(t.text, t.kind) for t in tokenize(text)] == expected
    assert letter_texts(text) == tuple(t for t, _ in expected)


def test_every_table_letter_is_one_token():
    for letter in GRANTHA_LETTERS:
        tokens = tokenize(letter)
        assert len(tokens) == 1, letter
        assert tokens[0].text == letter
        assert tokens[0].kind not in (LetterKind.OTHER, LetterKind.MALFORMED)


# --------------------------------------------------------------------- #
# split / join


def test_split_uyirmei_with_sign():
    mei, uyir = split_mei_uyir("கா")
    assert (mei.text, uyir.text) == ("க்", "ஆ")
    assert (mei.kind, uyir.kind) == (LetterKind.MEI, LetterKind.UYIR)


def test_split_bare_consonant_has_implicit_a():
    mei, uyir = split_mei_uyir("க")
    assert (mei.text, uyir.text) == ("க்", "அ")


def test_split_atomic_letters():
    assert [lt.text for lt in split_mei_uyir("ஆ")] == ["ஆ"]
    assert [lt.text for lt in split_mei_uyir("க்")] == ["க்"]
    assert [lt.text for lt in split_mei_uyir(AYUDHAM)] == [AYUDHAM]


def test_split_rejects_non_letters():
    with pytest.raises(ValueError):
        split_mei_uyir("ab")
    with pytest.raises(ValueError):
        split_mei_uyir("x")
    with pytest.raises(ValueError):
        split_mei_uyir("ா")


def test_join_examples():
    assert join_mei_uyir("க்", "ஈ").text == "கீ"
    assert join_mei_uyir("ல்", "அ").text == "ல"
    assert join_mei_uyir("ழ்", "ஐ").text == "ழை"


def test_join_rejects_wrong_kinds():
    with pytest.raises(ValueError):
        join_mei_uyir("க", "ஈ")  # first argument must be a mei
    with pytest.raises(ValueError):
        join_mei_uyir("க்", "க்")  # second must be an uyir


def test_split_join_round_trip_whole_table():
    seen = 0
    for letter in GRANTHA_LETTERS:
        token = classify(letter)
        if token.kind is not LetterKind.UYIRMEI:
            continue
        mei, uyir = split_mei_uyir(token)
        assert join_mei_uyir(mei, uyir).text == letter
        seen += 1
    assert seen == 216 + 72


# --------------------------------------------------------------------- #
# the package's letter table (C4 checks it entry by entry against the oracle)


def test_alphabet_sizes():
    assert len(_LETTERS) == 337
    assert sum(lt.kind is not LetterKind.MALFORMED for lt in _LETTERS.values()) == 323 + 2


def test_alphabet_letters_unique():
    # Each entry is keyed by its own text, so no two share a Letter.
    assert all(text == lt.text for text, lt in _LETTERS.items())


def test_grantha_extends_standard():
    # Past the 247 standard letters come only the grantha ones and the marks.
    assert set(LETTERS) <= _LETTERS.keys()
    for text in _LETTERS.keys() - set(LETTERS):
        assert text.startswith(GRANTHA_CONSONANTS) or _LETTERS[text].kind is LetterKind.MALFORMED, text


def test_alphabet_composition():
    kinds = collections.Counter(lt.kind for lt in _LETTERS.values())
    assert kinds == {
        LetterKind.UYIR: 12,
        LetterKind.AYUDHAM: 1,
        LetterKind.MEI: 24,
        LetterKind.UYIRMEI: 288,
        LetterKind.MALFORMED: 12,
    }


def test_alphabet_codepoints_are_tamil():
    for letter in _LETTERS:
        assert all(is_tamil_codepoint(ch) for ch in letter), letter


def test_letter_codepoint_width():
    # Letters and marks span 1..3 code points; only the க்ஷ forms reach 4.
    assert {len(letter) for letter in _LETTERS} == {1, 2, 3, 4}
    assert all(letter.startswith(KSSA) for letter in _LETTERS if len(letter) == 4)


# Base code points, half of them the marks NFC can act on: the vowel
# signs, pulli, and the members of the composing pairs, which are drawn
# twice as often as the rest.
_PAIR_MEMBERS = ["\u0bc6", "\u0bc7", "\u0bbe", "\u0bd7", "\u0b92"]
_NFC_RULE_CHARS = st.one_of(
    st.sampled_from([chr(c) for c in _BASE_CODE_POINTS]),
    st.sampled_from([*SIGN_TO_UYIR, PULLI, *_PAIR_MEMBERS, *_PAIR_MEMBERS]),
)


@settings(max_examples=500)
@given(st.text(_NFC_RULE_CHARS, max_size=30))
@example("கொடு\nகோழி ஔவை")
@example("க\u0bc6\u0bbe")
@example("க\u0bc7\u0bbe")
@example("க\u0bc6\u0bd7")
@example("\u0b92\u0bd7வை")
def test_a_text_the_nfc_rule_passes_is_nfc(text):
    if _known_nfc(text):
        assert unicodedata.is_normalized("NFC", text)
