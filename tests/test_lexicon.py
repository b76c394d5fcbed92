from __future__ import annotations

import io
import random
import string
import tracemalloc
import unicodedata

import pytest
from hypothesis import given, strategies as st

from conftest import random_letter_word
from tamilspell import lexicon as lexicon_module
from tamilspell.edits import letter_edit_distance
from tamilspell.errors import WordListError
from tamilspell.lexicon import Lexicon, load_wordlist
from tamilspell.letters import alphabet, letter_texts


def test_membership_basics(make_lexicon):
    lex = make_lexicon("கல்", "கல்வி")
    assert lex.is_word("கல்")
    assert lex.is_word("கல்வி")
    assert not lex.is_word("கல்விய")
    assert not lex.is_word("க")
    assert not lex.is_word("")
    assert "கல்" in lex
    assert len(lex) == 2


def test_prefixes_are_letters_not_codepoints(make_lexicon):
    lex = make_lexicon("காடு")
    # The first letter of காடு is கா; the bare letter க is not a prefix.
    assert lex.prefix_exists("கா")
    assert not lex.prefix_exists("க")
    assert lex.prefix_exists("காடு")
    assert not lex.prefix_exists("காட்")


def test_prefix_accepts_letter_sequences(make_lexicon):
    lex = make_lexicon("கல்வி")
    assert lex.prefix_exists(["க", "ல்"])
    assert lex.prefix_exists(letter_texts("கல்"))


def test_empty_prefix_means_nonempty_lexicon(make_lexicon):
    assert not Lexicon().prefix_exists("")
    assert make_lexicon("கல்").prefix_exists("")


def test_words_round_trip(make_lexicon):
    words = {"கல்", "கல்வி", "மரம்", "வீடு"}
    lex = Lexicon(words)
    assert set(lex.words()) == words


def test_load_wordlist_skips_comments_and_blanks():
    stream = io.StringIO("# comment\n\nகல்\nகல்\n  மரம்  \n# another\n")
    lex = load_wordlist(stream)
    assert set(lex.words()) == {"கல்", "மரம்"}
    assert len(lex) == 2


def test_load_wordlist_counts_a_word_in_two_sources_once():
    lex = load_wordlist(io.StringIO("கல்\nமரம்\n"), io.StringIO("மரம்\nவீடு\n"))
    assert len(lex) == 3
    assert set(lex.words()) == {"கல்", "மரம்", "வீடு"}


def test_load_wordlist_names_the_undecodable_source(tmp_path):
    first = tmp_path / "a.txt"
    first.write_text("கல்\n", encoding="utf-8")
    second = tmp_path / "b.txt"
    second.write_bytes("மரம்\nவீடு\n".encode() + b"\xff\n")
    with pytest.raises(WordListError) as err:
        load_wordlist(first, second)
    assert str(err.value).startswith(f"{second}:3: undecodable bytes")


def test_load_wordlist_bad_bytes_reports_line():
    stream = io.BytesIO("கல்\n".encode() + b"\xff\xfe\n")
    with pytest.raises(WordListError) as err:
        load_wordlist(stream)
    assert ":2:" in str(err.value)


def test_load_wordlist_from_path(tmp_path):
    path = tmp_path / "words.txt"
    path.write_text("கல்\nமரம்\n", encoding="utf-8")
    lex = load_wordlist(path)
    assert lex.is_word("மரம்")


def test_fixture_lexicon_contents(fixture_lexicon):
    # The bundled list backs the worked examples in the docs and tests.
    for word in ("பழம்", "பலம்", "பள்ளம்", "தென்றல்", "காற்று", "கண்", "அவன்", "கணினி"):
        assert fixture_lexicon.is_word(word), word
    for non_word in ("பளம்", "தென்றல்காற்று", "கணவன்", "சுவம்"):
        assert not fixture_lexicon.is_word(non_word), non_word
    assert len(fixture_lexicon) >= 200


def test_fixture_words_tokenize_cleanly(fixture_lexicon):
    from tamilspell.letters import tokenize

    for word in fixture_lexicon.words():
        assert all(t.is_tamil_letter for t in tokenize(word)), word


@given(st.integers(0, 2**32 - 1))
def test_membership_matches_set_semantics(seed):
    rng = random.Random(seed)
    words = [random_letter_word(rng, 1, 4) for _ in range(rng.randint(0, 12))]
    lex = Lexicon(words)
    reference = set(words)
    assert set(lex.words()) == reference
    assert len(lex) == len(reference)
    for word in words:
        assert lex.is_word(word)
        letters = letter_texts(word)
        for cut in range(len(letters) + 1):
            assert lex.prefix_exists(letters[:cut])
    probe = random_letter_word(rng, 1, 4)
    assert lex.is_word(probe) == (probe in reference)


# The flat index against a set of tokenized words.  Every walk must give
# what brute force over the lexicon's own letter splits gives.


def _assert_walks_match_tokenized_words(words, queries, rng: random.Random) -> int:
    lex = Lexicon(words)
    tokenized = {letter_texts(w): w for w in {unicodedata.normalize("NFC", w) for w in words} if w}
    alphabet_letters = sorted({letter for t in tokenized for letter in t})
    found = 0
    for query in queries:
        q = letter_texts(query)
        distance = {t: letter_edit_distance(q, t) for t in tokenized}
        for ed in (1, 2, 3):
            got = lex.within_distance(q, ed)
            assert len(got) == len(set(got)), query
            want = {w: distance[t] for t, w in tokenized.items() if 1 <= distance[t] <= ed}
            assert dict(got) == want, (query, ed)
            found += len(got)
        pool = alphabet_letters + ["ஔ", "z", "்"]
        alternates = [[a for a in rng.sample(pool, 6) if a != letter] for letter in q]
        budget = rng.randint(1, len(q))
        want = set()
        for t, w in tokenized.items():
            if len(t) == len(q) and all(a == b or a in alt for a, b, alt in zip(t, q, alternates)):
                changes = sum(a != b for a, b in zip(t, q))
                if 1 <= changes <= budget:
                    want.add((w, changes))
        got = lex.substitutions(q, alternates, budget)
        assert len(got) == len(set(got)) and set(got) == want, query
        assert lex.contains_letters(q) == (q in tokenized)
        for cut in range(len(q) + 1):
            assert lex.prefix_exists(q[:cut]) == any(t[:cut] == q[:cut] for t in tokenized)
    return found


def _near(rng: random.Random, word: str, pool) -> str:
    """``word`` with up to two random letter edits drawn from ``pool``."""
    letters = list(letter_texts(word))
    for _ in range(rng.randint(0, 2)):
        op = rng.randrange(3)
        if op == 0 and len(letters) > 1:
            del letters[rng.randrange(len(letters))]
        elif op == 1:
            letters.insert(rng.randrange(len(letters) + 1), rng.choice(pool))
        else:
            letters[rng.randrange(len(letters))] = rng.choice(pool)
    return "".join(letters)


def test_more_than_256_letters():
    # Letter codes past 255 no longer fit one byte.
    rng = random.Random(256)
    pool = list(alphabet(grantha=True).letters) + list(string.ascii_letters + string.digits)
    words = ["".join(pool[i : i + 3]) for i in range(0, len(pool), 3)]
    words += ["".join(rng.choice(pool) for _ in range(rng.randint(1, 4))) for _ in range(250)]
    assert len({letter for w in words for letter in letter_texts(w)}) > 256
    queries = [_near(rng, rng.choice(words), pool) for _ in range(40)]
    assert _assert_walks_match_tokenized_words(words, queries, rng) > 100


def test_query_letters_outside_the_alphabet():
    rng = random.Random(5)
    pool = ["க", "கா", "ம்", "அ", "ழ", "லி"]
    words = ["".join(rng.choice(pool) for _ in range(rng.randint(1, 5))) for _ in range(60)]
    outside = ["ஔ", "x", "்", "ஷ", "7"]
    queries = [_near(rng, rng.choice(words), pool + outside) for _ in range(60)]
    queries += ["".join(rng.choice(outside) for _ in range(rng.randint(1, 3))) for _ in range(5)]
    assert _assert_walks_match_tokenized_words(words, queries, rng) > 100


def test_words_with_a_space():
    rng = random.Random(9)
    words = ["தென்றல் காற்று", "தென்றல்", "காற்று", "மழை நீர்", "நீர்", "கல் மரம்", "மரம்"]
    queries = ["தென்றல்காற்று", "தென்றல்  காற்று", "மழைநீர்", "கல் மரம", " ", "நீர் "]
    queries += [_near(rng, rng.choice(words), [" ", "ம", "ல்"]) for _ in range(30)]
    assert _assert_walks_match_tokenized_words(words, queries, rng) > 20
    assert Lexicon(words).within_distance(letter_texts("தென்றல்காற்று"), 1) == [("தென்றல் காற்று", 1)]


# A query of at least 2 * ed letters is searched by a forward walk and a
# walk over the reversed words, split at half its length.  Each case puts
# its edits where the split cuts them.


@pytest.mark.parametrize(
    ("word", "query", "ed"),
    [
        ("கபடல்", ("க", "ட", "ல்"), 1),  # an insertion at the split
        ("அலிம்", ("லி", "அ", "ம்"), 1),  # a transposition across it
        ("அஈஆ", ("அ", "ஆ", "இ", "ஈ"), 2),  # a transposition over a gap
        ("அஊஆஇஉ", ("அ", "ஆ", "இ", "உ", "ஊ", "எ"), 3),
    ],
)
def test_edits_at_the_split_are_found(word, query, ed):
    assert letter_edit_distance(query, word) == ed
    assert Lexicon([word]).within_distance(query, ed) == [(word, ed)]


# Pieces that tokenize differently alone and joined: a lone vowel sign or
# pulli fuses with the consonant before it, ெ + ா compose under NFC, and
# க் + ஷ fuse into the conjunct.
_PIECES = ("க", "ா", "்", "கா", "க்", "ஷ", "க்ஷ", "ெ", "கொ", "ம", "ி", "அ", " ", "a")


@given(
    st.lists(st.lists(st.sampled_from(_PIECES), min_size=1, max_size=4), max_size=8),
    st.lists(st.sampled_from(_PIECES), max_size=5),
)
def test_contains_letters_means_the_exact_letter_split(word_pieces, probe):
    words = ["".join(pieces) for pieces in word_pieces]
    lex = Lexicon(words)
    tokenized = {letter_texts(unicodedata.normalize("NFC", w)) for w in words}
    for seq in [probe, (), ("க", "ா"), *word_pieces, *tokenized]:
        assert lex.contains_letters(seq) == (tuple(seq) in tokenized), seq


def test_too_many_distinct_letters_is_a_word_list_error(monkeypatch):
    # Letters are coded as characters, so there is a largest letter count;
    # past it the build refuses rather than confusing two letters.
    monkeypatch.setattr(lexicon_module, "_MAX_LETTERS", 300)
    table = alphabet(grantha=True).letters
    lex = Lexicon(table[:300])
    assert all(lex.contains_letters((letter,)) for letter in table[:300])
    with pytest.raises(WordListError):
        Lexicon(table[:301])


def test_memory_per_word_stays_small():
    # One object per trie node would cost about 1,100 bytes per word here.
    # The reversed trie, which the first split walk builds, counts too.
    rng = random.Random(20_000)
    words = [random_letter_word(rng, 2, 8) for _ in range(20_000)]
    query = letter_texts(random_letter_word(rng, 4, 4))
    tracemalloc.start()
    try:
        lex = Lexicon(words)
        lex.within_distance(query, 2)
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert retained / len(lex) <= 250
