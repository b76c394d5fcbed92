from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from conftest import random_letter_word
from tamilspell.edits import letter_edit_distance, suggest
from tamilspell.letters import letter_texts, tokenize
from tamilspell.lexicon import Lexicon

AK = ("அ", "க")
# Every word of one to three letters over AK: all that one edit reaches
# from a two-letter word.
AK_WORDS = Lexicon("".join(w) for n in (1, 2, 3) for w in itertools.product(AK, repeat=n))


def test_edit_operations_counts_and_examples():
    # The walk finds every distinct single edit of the oracle's: two
    # deletes, one transpose, two replaces and four inserts of கஅ.
    edited = {"".join(c) for c in oracles.naive_single_edits(("க", "அ"), AK)} - {"கஅ"}
    assert len(edited) == 9
    assert suggest(("க", "அ"), AK_WORDS, nedits=1) == dict.fromkeys(edited, 1)


def test_edits1_known_superset():
    result = suggest(("க", "அ"), AK_WORDS, nedits=1)
    assert {"அஅ", "கக", "ககஅ", "கஅக", "அகஅ"} <= set(result)
    # replacing a letter by itself gives the input back; it is no candidate
    assert "கஅ" not in result


def test_edits1_letter_wise_on_real_word():
    # Deleting the middle letter of a three-letter word keeps two letters.
    assert suggest(letter_texts("கடல்"), Lexicon(["கல்"]), nedits=1) == {"கல்": 1}


def test_edits_n_level_one_equals_edits1():
    # The walk at one edit is the walk at two, cut to distance one.
    two = suggest(("க", "அ", "க"), AK_WORDS, nedits=2)
    assert suggest(("க", "அ", "க"), AK_WORDS, nedits=1) == {w: d for w, d in two.items() if d == 1}
    assert 2 in two.values()


def test_edits_n_validates_nedits():
    with pytest.raises(ValueError):
        suggest(letter_texts("பள"), Lexicon(["பல"]), nedits=0)
    for nedits in (2.0, "2", True):
        with pytest.raises(TypeError, match="nedits"):
            suggest(letter_texts("பள"), Lexicon(["பல"]), nedits=nedits)


@pytest.mark.parametrize("word", ["பளம்", tokenize("பளம்")], ids=["text", "letter objects"])
def test_suggest_rejects_anything_but_letter_texts(word, fixture_lexicon):
    with pytest.raises(TypeError, match="letter_texts"):
        suggest(word, fixture_lexicon)


def test_edits_n_matches_oracle_small():
    # A lexicon that holds every oracle candidate gives them all back.
    rng = random.Random(4021)
    table = oracles.LETTERS
    for _ in range(25):
        alpha = tuple(rng.sample(table, rng.randint(1, 3)))
        letters = tuple(rng.choice(table) for _ in range(rng.randint(1, 3)))
        for nedits in (1, 2):
            edited = {"".join(c) for c in oracles.oracle_edits_n(letters, alpha, nedits)}
            edited -= {"".join(letters), ""}
            assert set(suggest(letters, Lexicon(edited), nedits=nedits)) == edited


def test_alphabet_growth_grows_candidates():
    # The lexicon is the walk's alphabet: one more letter, more candidates.
    big = Lexicon("".join(w) for n in (1, 2, 3) for w in itertools.product(AK + ("ம",), repeat=n))
    small = suggest(("க", "அ"), AK_WORDS, nedits=1)
    assert small.items() < suggest(("க", "அ"), big, nedits=1).items()


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
    table = oracles.LETTERS
    for _ in range(10):
        alpha = tuple(rng.sample(table, 3))
        words = Lexicon("".join(w) for n in range(1, 6) for w in itertools.product(alpha, repeat=n))
        letters = tuple(rng.choice(alpha) for _ in range(3))
        for nedits in (1, 2):
            for cand, distance in suggest(letters, words, nedits=nedits).items():
                assert 1 <= letter_edit_distance(letters, cand) == distance <= nedits
