from __future__ import annotations

import random

import pytest

import oracles
from conftest import random_letter_word
from tamilspell.checker import SpellChecker
from tamilspell.conjoined import SplitKind, SplitPair, recognize
from tamilspell.letters import PULLI, UYIR_LETTERS, VOWEL_SIGNS, letter_texts, tokenize
from tamilspell.lexicon import Lexicon


def _recognized(word: str, kind: SplitKind) -> list[tuple[str, str]]:
    # Recognized on a lexicon that holds every half of the oracle's splits.
    letters = letter_texts(word)
    halves = [half for left, right, _ in oracles.split_pairs(letters) for half in (left, right)]
    lexicon = Lexicon("".join(half) for half in halves)
    return [(p.left, p.right) for p in recognize(letters, lexicon) if p.kind is kind]


def test_ottru_splits_walk_left_to_right():
    assert _recognized("யாரிகுழந்து", SplitKind.OTTRU) == [
        ("ய்", "ஆரிகுழந்து"),
        ("யார்", "இகுழந்து"),
        ("யாரிக்", "உழந்து"),
        ("யாரிகுழ்", "அந்து"),
        ("யாரிகுழந்த்", "உ"),
    ]


def test_ottru_split_two_letter_word():
    assert recognize(letter_texts("கல்"), Lexicon(["க்", "அல்", "க", "ல்"])) == [
        SplitPair("க", "ல்", SplitKind.PLAIN),
        SplitPair("க்", "அல்", SplitKind.OTTRU),
    ]


def test_ottru_no_uyirmei_no_splits():
    assert _recognized("அஆ", SplitKind.OTTRU) == []
    assert _recognized("க்", SplitKind.OTTRU) == []


def test_plain_splits_between_letters():
    pairs = _recognized("தென்றல்காற்று", SplitKind.PLAIN)
    assert len(pairs) == 6
    assert pairs[3] == ("தென்றல்", "காற்று")


def test_plain_splits_need_two_letters():
    # க splits only through the letter: no plain split leaves both halves.
    lexicon = Lexicon(["க", "க்", "அ"])
    assert recognize(letter_texts("க"), lexicon) == [SplitPair("க்", "அ", SplitKind.OTTRU)]
    assert recognize((), lexicon) == []


@pytest.mark.parametrize("word", ["கணவன்", tokenize("கணவன்")], ids=["text", "letter objects"])
def test_recognize_rejects_anything_but_letter_texts(word, fixture_lexicon):
    with pytest.raises(TypeError, match="letter_texts"):
        recognize(word, fixture_lexicon)


def test_reconstruction_textual_rule():
    # Rejoining is pure text surgery: drop the pulli, swap in the sign.
    for left, right in _recognized("யாரிகுழந்து", SplitKind.OTTRU):
        assert left.endswith(PULLI)
        assert right[0] in UYIR_LETTERS
        rebuilt = left[:-1] + VOWEL_SIGNS[right[0]] + right[1:]
        assert rebuilt == "யாரிகுழந்து"
        assert SplitPair(left, right, SplitKind.OTTRU).reconstruct() == "யாரிகுழந்து"


def test_reconstruction_fuzz():
    rng = random.Random(20260821)
    for _ in range(300):
        word = random_letter_word(rng, 1, 7)
        for left, right, kind in oracles.split_pairs(letter_texts(word)):
            pair = SplitPair("".join(left), "".join(right), SplitKind(kind))
            assert pair.reconstruct() == word, (word, pair)


def test_recognize_requires_both_halves(fixture_lexicon):
    pairs = recognize(letter_texts("தென்றல்காற்று"), fixture_lexicon)
    assert (
        SplitPair("தென்றல்", "காற்று", SplitKind.PLAIN) in pairs
    )
    # no half-word pairings sneak in
    for pair in pairs:
        assert fixture_lexicon.is_word(pair.left)
        assert fixture_lexicon.is_word(pair.right)


def test_recognize_through_a_letter(fixture_lexicon):
    # கணவன் is not in the fixture list, but கண் + அவன் both are.
    pairs = recognize(letter_texts("கணவன்"), fixture_lexicon)
    assert [(p.left, p.right, p.kind) for p in pairs] == [
        ("கண்", "அவன்", SplitKind.OTTRU)
    ]


def test_ottru_right_half_is_its_exact_letters(make_lexicon):
    # Split through கொ, கொௗ gives க் + ஔ.  NFC composes ஒ + ௗ into the
    # word ஔ, but the right half is two letters, and no word's split.
    letters = letter_texts("கொௗ")
    assert letters == ("கொ", "ௗ")
    lex = make_lexicon("க்", "ஔ")
    assert recognize(letters, lex) == []
    assert not SpellChecker(lex).check_word("கொௗ").is_clean


def test_recognize_reaches_a_left_half_of_the_longest_word(make_lexicon):
    # தென்றல் has four letters, the most of any word: the split after the
    # fourth letter is the last one tried, and it must be tried.
    lex = make_lexicon("தென்றல்", "காற்று")
    assert lex.longest == 4
    assert recognize(letter_texts("தென்றல்காற்று"), lex) == [
        SplitPair("தென்றல்", "காற்று", SplitKind.PLAIN)
    ]


def test_recognize_misses_unknown_halves(make_lexicon):
    assert recognize(letter_texts("தென்றல்காற்று"), make_lexicon("தென்றல்")) == []


def test_recognize_orders_plain_first(make_lexicon):
    # One word can split both ways; plain pairs come first.
    lex = make_lexicon("கல்", "கண்", "அல்", "அண்", "கலண்", "க")
    pairs = recognize(letter_texts("கல்அண்"), lex)
    kinds = [p.kind for p in pairs]
    assert kinds == sorted(kinds, key=lambda k: k is not SplitKind.PLAIN)
    assert ("கல்", "அண்") in [(p.left, p.right) for p in pairs]


def test_recognize_no_duplicates(fixture_lexicon):
    rng = random.Random(5)
    for _ in range(50):
        word = random_letter_word(rng, 2, 6)
        pairs = recognize(letter_texts(word), fixture_lexicon)
        assert len({(p.left, p.right) for p in pairs}) == len(pairs)
