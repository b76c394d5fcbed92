from __future__ import annotations

import random

from conftest import random_letter_word
from tamilspell.lexicon import Lexicon
from tamilspell.letters import letter_texts, split_mei_uyir, tokenize
from tamilspell.mayangoli import (
    DEFAULT_SERIES,
    find_correspondents,
    find_letter_positions,
    generate_alternates,
    suggest,
)


def test_default_series_families():
    assert DEFAULT_SERIES == (
        ("ல்", "ழ்", "ள்"),
        ("ர்", "ற்"),
        ("ந்", "ன்", "ண்"),
        ("ங்", "ஞ்"),
    )


def test_find_positions_single_match():
    matches = find_letter_positions("பளம்")
    assert len(matches) == 1
    match = matches[0]
    assert (match.position, match.mei, match.uyir, match.series_index) == (1, "ள்", "அ", 0)


def test_bare_mei_is_not_matched():
    # The final ல் of தென்றல் is in a series but carries no uyir; skipped.
    positions = [m.position for m in find_letter_positions("தென்றல்")]
    assert positions == [2]  # only ற (ற் + அ)


def test_find_positions_no_match():
    assert find_letter_positions("அது") == []
    assert find_letter_positions("abc") == []


def test_correspondents_preserve_uyir():
    rows = find_correspondents("ரீ")
    assert rows == [["ரீ", "றீ"]]


def test_generate_alternates_single_position():
    assert generate_alternates("பளம்") == ["பலம்", "பழம்"]


def test_generate_alternates_counts_product():
    # மழலை matches at ழ (3 members) and லை (3 members): 3*3 - 1 variants.
    alternates = generate_alternates("மழலை")
    assert len(alternates) == 8
    assert "மழலை" not in alternates
    assert "மலலை" in alternates
    assert all(len(tokenize(a)) == 3 for a in alternates)


def test_generate_alternates_changes_only_matched_positions():
    rng = random.Random(7)
    for _ in range(40):
        word = random_letter_word(rng, 1, 5)
        letters = letter_texts(word)
        matched = {m.position for m in find_letter_positions(word)}
        for alt in generate_alternates(word):
            alt_letters = letter_texts(alt)
            assert len(alt_letters) == len(letters)
            for pos, (a, b) in enumerate(zip(letters, alt_letters)):
                if pos not in matched:
                    assert a == b
                elif a != b:
                    # substituted letter keeps the original uyir
                    assert split_mei_uyir(a)[1] == split_mei_uyir(b)[1]


def test_suggest_filters_through_lexicon(fixture_lexicon):
    assert suggest(letter_texts("பளம்"), fixture_lexicon) == {"பலம்", "பழம்"}


def test_suggest_is_validity_agnostic(fixture_lexicon):
    # கரை is itself a word; its series twin கறை is still offered.
    assert suggest(letter_texts("கரை"), fixture_lexicon) == {"கறை"}


def test_suggest_empty_when_no_positions(make_lexicon):
    assert suggest(letter_texts("அது"), make_lexicon("அது")) == set()
