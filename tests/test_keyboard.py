from __future__ import annotations

import io
import random
import unicodedata

import pytest
from hypothesis import given, strategies as st

import oracles
from conftest import random_letter_word
from tamilspell.errors import MatrixFormatError
from tamilspell.keyboard import ConfusionMatrix, corrections, load_confusion_matrix
from tamilspell.letters import letter_texts, tokenize
from tamilspell.lexicon import Lexicon


def test_bundled_matrix_layout_facts(fixture_matrix):
    # 12 + 11 + 8 keys on the three rows
    assert len(fixture_matrix) == 31
    assert fixture_matrix.alternates_for("க்") == ("எ", "ப்", "ள்", "ற்", "ங்", "ல்")
    # adjacency is symmetric
    assert "க்" in fixture_matrix.alternates_for("ப்")


def test_uyirmei_resolves_through_mei(fixture_matrix):
    # கா keeps its ஆ; only mei neighbours can carry it, so எ drops out.
    assert fixture_matrix.alternates_for("கா") == ("பா", "ளா", "றா", "ஙா", "லா")


def test_direct_uyirmei_entry_wins():
    matrix = ConfusionMatrix({"கா": ["பா"], "க்": ["ல்"]})
    assert matrix.alternates_for("கா") == ("பா",)
    assert matrix.alternates_for("கீ") == ("லீ",)  # falls back to க்
    # Membership asks the table itself, not the fallback.
    assert "கா" in matrix and "க்" in matrix
    assert "கீ" not in matrix


def test_unmapped_letter_has_no_alternates():
    matrix = ConfusionMatrix({"க்": ["ல்"]})
    assert matrix.alternates_for("ம") == ()
    assert matrix.alternates_for("ஆ") == ()
    with pytest.raises(ValueError):
        matrix.alternates_for("கம")


def test_matrix_rejects_self_neighbour():
    with pytest.raises(MatrixFormatError):
        ConfusionMatrix({"க்": ["க்"]})


@pytest.mark.parametrize("mapping", [{"க": ["பம"]}, {"கா": ["ொ"]}, {"கல": ["ம"]}])
def test_matrix_rejects_an_entry_that_is_not_one_letter(mapping):
    # The loader's rule: one letter, and not a lone vowel sign or pulli.
    with pytest.raises(MatrixFormatError, match="not a single letter"):
        ConfusionMatrix(mapping)


def test_loader_parses_and_validates(tmp_path):
    table = load_confusion_matrix(io.StringIO("# header\nக்\tல் ம்\n"))
    assert table.alternates_for("க்") == ("ல்", "ம்")

    with pytest.raises(MatrixFormatError) as err:
        load_confusion_matrix(io.StringIO("க் ல்\n"))
    assert ":1:" in str(err.value)

    with pytest.raises(MatrixFormatError) as err:
        load_confusion_matrix(io.StringIO("# x\nகல\tம்\n"))
    assert ":2:" in str(err.value)

    with pytest.raises(MatrixFormatError) as err:
        load_confusion_matrix(io.StringIO("க்\tக்\n"))
    assert ":1:" in str(err.value)


def test_loader_merges_repeated_keys():
    table = load_confusion_matrix(io.StringIO("க்\tல்\nக்\tம் ல்\n"))
    assert table.alternates_for("க்") == ("ல்", "ம்")


# Letters whose NFD spelling differs from their NFC one, and some that
# have one spelling, with the mei of the uyirmei ones as keys too.
_MATRIX_LETTERS = ("கொ", "கோ", "கெ", "பொ", "கௌ", "க்", "ப்", "ள்", "ழ்")


@st.composite
def _matrix_entries(draw) -> dict[str, list[str]]:
    spelled = draw(st.lists(st.tuples(
        st.sampled_from(_MATRIX_LETTERS), st.sampled_from(("NFC", "NFD"))
    ), max_size=8))
    return {
        unicodedata.normalize(form, letter): draw(st.lists(
            st.sampled_from([alt for alt in _MATRIX_LETTERS if alt != letter]), max_size=3
        ))
        for letter, form in spelled
    }


@given(_matrix_entries())
def test_matrix_from_a_mapping_reads_its_entries_as_a_file_would(mapping):
    # Two keys that spell one letter are one key, as a repeated key in a
    # file is.
    lines = "".join(f"{key}\t{' '.join(alts)}\n" for key, alts in mapping.items())
    built, loaded = ConfusionMatrix(mapping), load_confusion_matrix(io.StringIO(lines))
    assert len(built) == len(loaded)
    for key in (*mapping, *_MATRIX_LETTERS):
        assert (key in built) == (key in loaded)
        assert built.alternates_for(key) == loaded.alternates_for(key)


# --------------------------------------------------------------------- #
# corrections


LATIN = ConfusionMatrix({"a": ["b"], "b": ["a"]})
LATIN_WORDS = Lexicon(["aa", "ab", "ba", "bb"])


def test_patterns_single_substitution():
    assert corrections(("a", "b"), LATIN_WORDS, LATIN, ed=1) == {"bb", "aa"}
    assert corrections(("a", "b"), LATIN_WORDS, LATIN, ed=2) == {"bb", "aa", "ba"}


def test_patterns_never_emit_the_input():
    rng = random.Random(11)
    for _ in range(30):
        letters = letter_texts(random_letter_word(rng, 1, 4))
        matrix = _random_matrix(rng)
        lattice = _lattice(letters, matrix, 2)
        lexicon = Lexicon(lattice | {"".join(letters)})
        assert corrections(letters, lexicon, matrix, ed=2) == lattice


def test_patterns_respect_ed_budget(fixture_matrix):
    original = letter_texts("பளம்")
    lexicon = Lexicon(_lattice(original, fixture_matrix, 3))
    one = corrections(original, lexicon, fixture_matrix, ed=1)
    two = corrections(original, lexicon, fixture_matrix, ed=2)
    assert one < two
    for cand in two:
        letters = letter_texts(cand)
        assert len(letters) == len(original)
        changed = sum(1 for a, b in zip(original, letters) if a != b)
        assert 1 <= changed <= 2
        assert (changed == 1) == (cand in one)


def test_patterns_validate_ed():
    with pytest.raises(ValueError):
        corrections(letter_texts("பளம்"), LATIN_WORDS, LATIN, ed=0)
    for ed in (2.0, "2", True):
        with pytest.raises(TypeError, match="ed must be an int"):
            corrections(letter_texts("பளம்"), LATIN_WORDS, LATIN, ed=ed)


@pytest.mark.parametrize("word", ["பளம்", tokenize("பளம்")], ids=["text", "letter objects"])
def test_corrections_reject_anything_but_letter_texts(word, fixture_lexicon, fixture_matrix):
    with pytest.raises(TypeError, match="letter_texts"):
        corrections(word, fixture_lexicon, fixture_matrix)


def test_patterns_through_uyirmei():
    matrix = ConfusionMatrix({"ள்": ["ழ்", "ல்"]})
    lexicon = Lexicon(["பழம்", "பலம்", "பள்ம்"])
    assert corrections(letter_texts("பளம்"), lexicon, matrix, ed=1) == {"பழம்", "பலம்"}


def _random_matrix(rng: random.Random) -> ConfusionMatrix:
    table = oracles.LETTERS
    keys = rng.sample(table, rng.randint(2, 6))
    mapping = {}
    for key in keys:
        pool = [c for c in rng.sample(table, rng.randint(1, 4)) if c != key]
        if pool:
            mapping[key] = pool
    return ConfusionMatrix(mapping)


def _lattice(letters: tuple, matrix: ConfusionMatrix, ed: int) -> set[str]:
    alternates = [matrix.alternates_for(lt) for lt in letters]
    return {"".join(c) for c in oracles.substitution_lattice(letters, alternates, ed)}


def test_patterns_match_lattice_oracle():
    # The whole lattice and as many random words: the walk gives the lattice.
    rng = random.Random(31337)
    for _ in range(60):
        letters = letter_texts(random_letter_word(rng, 1, 4))
        matrix = _random_matrix(rng)
        ed = rng.randint(1, len(letters))
        lattice = _lattice(letters, matrix, ed)
        noise = {random_letter_word(rng, 1, 4) for _ in range(len(lattice))}
        assert corrections(letters, Lexicon(lattice | noise), matrix, ed) == lattice


def test_corrections_are_the_lexicon_words_among_the_patterns():
    lex = Lexicon(["பழம்", "பலம்"])
    matrix = ConfusionMatrix({"ள்": ["ழ்", "ம்"]})
    assert corrections(letter_texts("பளம்"), lex, matrix, ed=1) == {"பழம்"}


def test_corrections_clamp_ed_to_word_length():
    lex = Lexicon(["பழம்"])
    matrix = ConfusionMatrix({"ள்": ["ழ்"]})
    assert corrections(letter_texts("பளம்"), lex, matrix, ed=9) == {"பழம்"}


def test_corrections_with_bundled_matrix(fixture_lexicon, fixture_matrix):
    # ட் and த் sit on adjacent keys: மடம் is a plausible typo for மதம்.
    assert "மதம்" in corrections(letter_texts("மடம்"), fixture_lexicon, fixture_matrix, ed=1)
