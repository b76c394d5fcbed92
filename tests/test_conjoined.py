from __future__ import annotations

import random

from conftest import random_letter_word
from tamilspell.checker import SpellChecker
from tamilspell.conjoined import (
    SplitKind,
    SplitPair,
    generate_ottru_splits,
    generate_plain_splits,
    recognize,
)
from tamilspell.letters import PULLI, UYIR_LETTERS, VOWEL_SIGNS, letter_texts
from tamilspell.lexicon import Lexicon


def test_ottru_splits_walk_left_to_right():
    pairs = generate_ottru_splits("யாரிகுழந்து")
    assert [(p.left, p.right) for p in pairs] == [
        ("ய்", "ஆரிகுழந்து"),
        ("யார்", "இகுழந்து"),
        ("யாரிக்", "உழந்து"),
        ("யாரிகுழ்", "அந்து"),
        ("யாரிகுழந்த்", "உ"),
    ]
    assert all(p.kind is SplitKind.OTTRU for p in pairs)


def test_ottru_split_two_letter_word():
    assert [(p.left, p.right) for p in generate_ottru_splits("கல்")] == [("க்", "அல்")]


def test_ottru_no_uyirmei_no_splits():
    assert generate_ottru_splits("அஆ") == []
    assert generate_ottru_splits("க்") == []


def test_plain_splits_between_letters():
    pairs = generate_plain_splits("தென்றல்காற்று")
    assert len(pairs) == 6
    assert (pairs[3].left, pairs[3].right) == ("தென்றல்", "காற்று")
    assert all(p.kind is SplitKind.PLAIN for p in pairs)


def test_plain_splits_need_two_letters():
    assert generate_plain_splits("க") == []
    assert generate_plain_splits("") == []


def test_reconstruction_textual_rule():
    # Rejoining is pure text surgery: drop the pulli, swap in the sign.
    for pair in generate_ottru_splits("யாரிகுழந்து"):
        assert pair.left.endswith(PULLI)
        assert pair.right[0] in UYIR_LETTERS
        rebuilt = pair.left[:-1] + VOWEL_SIGNS[pair.right[0]] + pair.right[1:]
        assert rebuilt == "யாரிகுழந்து"
        assert pair.reconstruct() == "யாரிகுழந்து"


def test_reconstruction_fuzz():
    rng = random.Random(20260821)
    for _ in range(300):
        word = random_letter_word(rng, 1, 7)
        for pair in generate_plain_splits(word) + generate_ottru_splits(word):
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
