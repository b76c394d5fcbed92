from __future__ import annotations

import random

import pytest

import oracles
from conftest import random_letter_word
from tamilspell import mayangoli
from tamilspell.lexicon import Lexicon
from tamilspell.letters import letter_texts, split_mei_uyir, tokenize
from tamilspell.mayangoli import DEFAULT_SERIES, suggest


def _variants(word: str) -> set[str]:
    return {"".join(v) for v in oracles.series_variants(letter_texts(word))}


def test_default_series_families():
    assert DEFAULT_SERIES == (
        ("ல்", "ழ்", "ள்"),
        ("ர்", "ற்"),
        ("ந்", "ன்", "ண்"),
        ("ங்", "ஞ்"),
    )


def test_series_table_equals_the_oracle():
    # Every letter's alternates, grantha included, against the series
    # derived from consonants and vowel signs.
    assert set(mayangoli._ALTERNATES) <= set(oracles.GRANTHA_LETTERS)
    for letter in oracles.GRANTHA_LETTERS:
        want = {(alt,) for alt in mayangoli._ALTERNATES.get(letter, ())}
        assert oracles.series_variants((letter,)) == want, letter


def test_find_positions_single_match():
    # Only ள, position 1 of பளம், is in a series.
    lexicon = Lexicon(["பலம்", "பழம்", "வளம்", "பளன்", "பளண்"])
    assert suggest(letter_texts("பளம்"), lexicon) == {"பலம்", "பழம்"}


def test_bare_mei_is_not_matched():
    # The final ல் of தென்றல் is in a series but carries no uyir; skipped.
    lexicon = Lexicon(["தென்ரல்", "தென்றழ்", "தென்றள்", "தென்ரள்"])
    assert suggest(letter_texts("தென்றல்"), lexicon) == {"தென்ரல்"}


def test_find_positions_no_match():
    assert suggest(letter_texts("அது"), Lexicon(["அது", "இது"])) == set()
    assert suggest(letter_texts("abc"), Lexicon(["abc", "abd"])) == set()


@pytest.mark.parametrize(
    "as_input", [str, tokenize, letter_texts], ids=["text", "letter objects", "letter texts"]
)
def test_series_lookups_take_any_form_of_the_word(as_input):
    # letter_texts turns each form into the split suggest takes.  மழலை
    # swaps at ழ and at லை; தென்றல் at ற only.
    lexicon = Lexicon(["மலலை", "மழழை", "தென்ரல்", "தென்றழ்"])
    assert suggest(letter_texts(as_input("மழலை")), lexicon) == {"மலலை", "மழழை"}
    assert suggest(letter_texts(as_input("தென்றல்")), lexicon) == {"தென்ரல்"}
    assert suggest(letter_texts(as_input("அது")), lexicon) == set()


@pytest.mark.parametrize("word", ["பளம்", tokenize("பளம்")], ids=["text", "letter objects"])
def test_suggest_rejects_anything_but_letter_texts(word, fixture_lexicon):
    with pytest.raises(TypeError, match="letter_texts"):
        suggest(word, fixture_lexicon)


def test_correspondents_preserve_uyir():
    assert suggest(letter_texts("ரீ"), Lexicon(["றீ", "றி", "ற", "ரீ"])) == {"றீ"}


def test_generate_alternates_single_position():
    assert _variants("பளம்") == {"பலம்", "பழம்"}
    assert suggest(letter_texts("பளம்"), Lexicon(_variants("பளம்"))) == {"பலம்", "பழம்"}


def test_generate_alternates_counts_product():
    # மழலை swaps at ழ (3 members) and லை (3 members): 3*3 - 1 variants.
    alternates = suggest(letter_texts("மழலை"), Lexicon(_variants("மழலை") | {"மழலை"}))
    assert len(alternates) == 8
    assert "மழலை" not in alternates
    assert "மலலை" in alternates
    assert all(len(tokenize(a)) == 3 for a in alternates)


def test_generate_alternates_changes_only_matched_positions():
    # The walk keeps the length and every letter's uyir, and changes only
    # series letters.
    rng = random.Random(7)
    for _ in range(40):
        word = random_letter_word(rng, 1, 5)
        letters = letter_texts(word)
        noise = {random_letter_word(rng, len(letters), len(letters)) for _ in range(20)}
        for alt in suggest(letters, Lexicon(_variants(word) | noise)):
            alt_letters = letter_texts(alt)
            assert len(alt_letters) == len(letters)
            for a, b in zip(letters, alt_letters):
                if a != b:
                    assert oracles.series_variants((a,))
                    assert split_mei_uyir(a)[1] == split_mei_uyir(b)[1]


def test_suggest_filters_through_lexicon(fixture_lexicon):
    assert suggest(letter_texts("பளம்"), fixture_lexicon) == {"பலம்", "பழம்"}


def test_suggest_is_validity_agnostic(fixture_lexicon):
    # கரை is itself a word; its series twin கறை is still offered.
    assert suggest(letter_texts("கரை"), fixture_lexicon) == {"கறை"}


def test_suggest_empty_when_no_positions(make_lexicon):
    assert suggest(letter_texts("அது"), make_lexicon("அது")) == set()
