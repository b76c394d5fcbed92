from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from conftest import random_letter_word
from tamilspell.edits import (
    edit_operations,
    edits1,
    edits_n,
    letter_edit_distance,
    suggest,
)
from tamilspell.letters import alphabet, letter_texts
from tamilspell.lexicon import Lexicon

AK = ("அ", "க")


def test_edit_operations_counts_and_examples():
    ops = edit_operations("கஅ", AK)
    assert ops["deletes"] == ["அ", "க"]
    assert ops["transposes"] == ["அக"]
    assert len(ops["replaces"]) == 2 * 2
    assert len(ops["inserts"]) == 3 * 2
    default = edit_operations("கஅ")
    assert len(default["replaces"]) == 2 * len(alphabet().letters)
    assert len(default["inserts"]) == 3 * len(alphabet().letters)


def test_edits1_known_superset():
    result = set(edits1("கஅ", AK))
    assert {"அஅ", "கக", "ககஅ", "கஅக", "அகஅ"} <= result
    # replace-by-same regenerates the input; it is kept, not filtered
    assert "கஅ" in result


def test_edits1_is_ordered_dedup_of_operations():
    word, alpha = "கஅக", AK
    ops = edit_operations(word, alpha)
    expected: list[str] = []
    seen: set[str] = set()
    for name in ("deletes", "transposes", "replaces", "inserts"):
        for cand in ops[name]:
            if cand not in seen:
                seen.add(cand)
                expected.append(cand)
    assert edits1(word, alpha) == expected


def test_edits1_letter_wise_on_real_word():
    # Deleting the middle letter of a three-letter word keeps two letters.
    assert "கல்" in edits1("கடல்", alphabet())
    # Candidates are letter sequences, so they re-tokenize to themselves.
    for cand in edits1("பளம்", alphabet())[:300]:
        assert "".join(letter_texts(cand)) == cand


def test_edits1_rejects_empty_word():
    with pytest.raises(ValueError):
        edits1("", AK)


def test_edits_n_level_one_equals_edits1():
    assert edits_n("கஅ", AK, nedits=1) == edits1("கஅ", AK)


def test_edits_n_validates_nedits():
    with pytest.raises(ValueError):
        edits_n("கஅ", AK, nedits=0)
    with pytest.raises(ValueError):
        suggest(letter_texts("பள"), Lexicon(["பல"]), nedits=0)
    for nedits in (2.0, "2"):
        with pytest.raises(TypeError, match="nedits"):
            suggest(letter_texts("பள"), Lexicon(["பல"]), nedits=nedits)


def test_edits_n_matches_oracle_small():
    rng = random.Random(4021)
    table = alphabet().letters
    for _ in range(25):
        alpha = tuple(rng.sample(table, rng.randint(1, 3)))
        word = "".join(rng.choice(table) for _ in range(rng.randint(1, 3)))
        letters = letter_texts(word)
        for nedits in (1, 2):
            listed = edits_n(word, alpha, nedits=nedits)
            assert len(set(listed)) == len(listed)
            got = {letter_texts(c) for c in listed}
            assert got == oracles.oracle_edits_n(letters, alpha, nedits)


def test_alphabet_growth_grows_candidates():
    small = edits1("கஅ", AK)
    big = edits1("கஅ", alphabet())
    assert len(big) > len(small)
    assert set(small) <= set(big)


# --------------------------------------------------------------------- #
# suggest


def test_suggest_finds_lexicon_words():
    lex = Lexicon(["பல"])
    assert suggest(letter_texts("பள"), lex) == {"பல": 1}


def test_suggest_excludes_the_input_word():
    lex = Lexicon(["பள", "பல"])
    assert suggest(letter_texts("பள"), lex) == {"பல": 1}


def test_suggest_empty_lexicon():
    assert suggest(letter_texts("பள"), Lexicon()) == {}


# --------------------------------------------------------------------- #
# letter_edit_distance


def test_distance_examples():
    assert letter_edit_distance("பழம்", "பழம்") == 0
    assert letter_edit_distance("பளம்", "பழம்") == 1  # replace one letter
    assert letter_edit_distance("கஅ", "அக") == 1     # adjacent transpose
    assert letter_edit_distance("கடல்", "கல்") == 1   # delete
    assert letter_edit_distance("", "கடல்") == 3
    assert letter_edit_distance("கடல்", "") == 3


def test_distance_is_unrestricted():
    # The restricted (OSA) variant would answer 3 here; the unrestricted
    # distance edits inside a transposed pair: ca -> ac -> abc.
    assert letter_edit_distance("ca", "abc") == 2


def test_distance_counts_letters_not_codepoints():
    # கா -> கி is one letter replacement even though only the sign differs.
    assert letter_edit_distance("கா", "கி") == 1
    # க -> கா likewise: the bare and signed forms are single letters.
    assert letter_edit_distance("க", "கா") == 1


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_distance_matches_bfs_oracle(seed):
    rng = random.Random(seed)
    a = letter_texts(random_letter_word(rng, 0, 3) if rng.random() > 0.1 else "")
    b = letter_texts(random_letter_word(rng, 0, 3) if rng.random() > 0.1 else "")
    assert letter_edit_distance(a, b) == oracles.bfs_edit_distance(a, b)


def test_candidates_stay_within_distance():
    rng = random.Random(99)
    table = alphabet().letters
    for _ in range(10):
        alpha = tuple(rng.sample(table, 3))
        word = "".join(rng.choice(alpha) for _ in range(3))
        for nedits in (1, 2):
            for cand in edits_n(word, alpha, nedits=nedits):
                assert letter_edit_distance(word, cand) <= nedits
