from __future__ import annotations

import io
import os
import random
import string
import subprocess
import sys
import time
import tracemalloc
import unicodedata
from unittest import mock

import pytest
from hypothesis import given, strategies as st

from conftest import random_letter_word
from oracles import GRANTHA_LETTERS, LETTERS, capped_distance
import tamilspell
from tamilspell import lexicon as lexicon_module
from tamilspell.edits import letter_edit_distance
from tamilspell.errors import WordListError
from tamilspell.lexicon import Lexicon, load_wordlist
from tamilspell.letters import letter_texts


def test_membership_basics(make_lexicon):
    lex = make_lexicon("கல்", "கல்வி")
    assert lex.is_word("கல்")
    assert lex.is_word("கல்வி")
    assert not lex.is_word("கல்விய")
    assert not lex.is_word("க")
    assert not lex.is_word("")
    assert "கல்" in lex
    assert len(lex) == 2


def test_a_loaded_word_is_answered_without_normalizing(make_lexicon, monkeypatch):
    lex = make_lexicon("கொடு", "கல்")
    calls = []

    def counting_nfc(word):
        calls.append(word)
        return unicodedata.normalize("NFC", word)

    monkeypatch.setattr(lexicon_module, "_nfc", counting_nfc)
    assert lex.is_word("கொடு") and "கொடு" in lex
    assert calls == []
    # ொ is a two-part vowel sign: NFD spells it U+0BC6 U+0BBE.
    nfd = unicodedata.normalize("NFD", "கொடு")
    assert nfd != "கொடு"
    assert lex.is_word(nfd) and nfd in lex
    assert not lex.is_word("கொடி") and "கொடி" not in lex
    assert calls == [nfd, nfd, "கொடி", "கொடி"]
    # The exact probe never normalizes: it holds the NFC spelling alone.
    assert lex.holds("கொடு") and not lex.holds(nfd) and not lex.holds("கொடி")
    assert len(calls) == 4


def test_longest_counts_letters_not_codepoints(make_lexicon):
    assert Lexicon().longest == 0
    assert make_lexicon("தென்றல்", "காற்று").longest == 4
    # க்ஷ is one letter in three code points.
    assert make_lexicon("க்ஷ").longest == 1
    assert make_lexicon("க்ஷமா").longest == 2


def test_words_round_trip(make_lexicon):
    words = {"கல்", "கல்வி", "மரம்", "வீடு"}
    lex = Lexicon(words)
    assert set(lex.words()) == words
    # One text is not a collection of words: it would load its code points.
    with pytest.raises(TypeError, match="words"):
        Lexicon("பழம்")


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


def _layout(lex):
    # The words, the forward trie, the longest word and the letter codes in
    # the order they were assigned.
    return sorted(lex.words()), lex._forward, lex.longest, list(lex._code.__self__.items())


@pytest.mark.parametrize("composed", [True, False], ids=["nfc", "needs-nfc"])
def test_a_file_load_equals_a_build_from_its_lines(tmp_path, composed):
    rng = random.Random(3303)
    words = [random_letter_word(rng, 1, 6) for _ in range(300)]
    words += ["கொடு", "கோழி", "கௌரவம்", "ஔவை", "computer"]
    if not composed:
        # The NFD spelling of each composing pair: ொ, ோ, ௌ and ஔ, and of a
        # word listed only so; and a Latin word with é, in both spellings.
        words += [unicodedata.normalize("NFD", w) for w in ("கொடு", "கோழி", "கௌரவம்", "ஔவை", "தொகை")]
        words += ["café", unicodedata.normalize("NFD", "café")]
    rng.shuffle(words)
    sources = words[:200], words[150:]  # 50 words in both
    paths = []
    for i, source in enumerate(sources):
        lines = ["# a seeded word list", ""]
        for word in source:
            lines.append(rng.choice(("", " ", "\t ")) + word + rng.choice(("", "  ")))
            if rng.random() < 0.05:
                lines += ["", "# a comment"]
        paths.append(tmp_path / f"words{i}.txt")
        # A byte order mark on the first list; CRLF line ends on both.
        paths[-1].write_bytes(("\ufeff" * (i == 0) + "\r\n".join(lines) + "\r\n").encode())
    listed = [word for source in sources for word in source]
    with mock.patch.object(lexicon_module, "_nfc", wraps=lexicon_module._nfc) as nfc:
        loaded = load_wordlist(*paths)
    # A list of base code points without a composing pair is not normalized.
    assert nfc.called is not composed
    assert _layout(loaded) == _layout(Lexicon(listed))
    # With every word normalized, as if the rule passed no list, the build
    # is the same.
    with mock.patch.object(lexicon_module, "_known_nfc", return_value=False):
        assert _layout(loaded) == _layout(Lexicon(listed))
    assert set(loaded.words()) == {unicodedata.normalize("NFC", word) for word in listed}


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
    from tamilspell.letters import LetterKind, tokenize

    for word in fixture_lexicon.words():
        assert all(t.kind not in (LetterKind.OTHER, LetterKind.MALFORMED) for t in tokenize(word)), word


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
    assert lex.longest == max((len(letter_texts(w)) for w in reference), default=0)
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
            want = {w: distance[t] for t, w in tokenized.items() if 1 <= distance[t] <= ed}
            assert got == want, (query, ed)
            found += len(got)
        pool = alphabet_letters + ["ஔ", "z", "்"]
        alternates = [[a for a in rng.sample(pool, 6) if a != letter] for letter in q]
        budget = rng.randint(1, len(q))
        want = set()
        for t, w in tokenized.items():
            if len(t) == len(q) and all(a == b or a in alt for a, b, alt in zip(t, q, alternates)):
                if 1 <= sum(a != b for a, b in zip(t, q)) <= budget:
                    want.add(w)
        assert lex.substitutions(q, alternates, budget) == want, query
        assert lex.contains_letters(q) == (q in tokenized)
    assert lex.longest == max(map(len, tokenized), default=0)
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
    pool = list(GRANTHA_LETTERS) + list(string.ascii_letters + string.digits)
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
    assert Lexicon(words).within_distance(letter_texts("தென்றல்காற்று"), 1) == {"தென்றல் காற்று": 1}


# A query of more than ed letters is searched by a forward walk and a walk
# over the reversed words, split at half its length.  Each case puts its
# edits where the split cuts them; at m = ed + 1 one case of each ed needs
# the backward walk and one the forward walk.


@pytest.mark.parametrize(
    ("word", "query", "ed"),
    [
        ("கபடல்", ("க", "ட", "ல்"), 1),  # an insertion at the split
        ("அலிம்", ("லி", "அ", "ம்"), 1),  # a transposition across it
        ("அஈஆ", ("அ", "ஆ", "இ", "ஈ"), 2),  # a transposition over a gap
        ("அஊஆஇஉ", ("அ", "ஆ", "இ", "உ", "ஊ", "எ"), 3),
        ("ஊஅஇஅ", ("எ", "இ", "அ"), 2),
        ("ஊஎஉஊ", ("ஈ", "எ", "உ"), 2),
        ("அஊஊ", ("ஈ", "உ", "ஊ", "அ"), 3),
        ("ஊஉஅஈ", ("அ", "ஊ", "உ", "ஆ"), 3),
    ],
)
def test_edits_at_the_split_are_found(word, query, ed):
    assert letter_edit_distance(query, word) == ed
    assert Lexicon([word]).within_distance(query, ed) == {word: ed}


def test_every_query_length_around_the_split_walks_exactly():
    # Lengths 1..ed take one walk and ed + 1 up the split pair; every length
    # through 2 * ed + 1 is checked at ed 1-3 against brute force.
    rng = random.Random(2004)
    found = 0
    for ed in (1, 2, 3):
        for m in range(1, 2 * ed + 2):
            for _ in range(4):
                letters = rng.sample(LETTERS, 4)
                words = {
                    "".join(rng.choice(letters) for _ in range(rng.randint(1, m + ed)))
                    for _ in range(rng.randint(50, 300))
                }
                tokenized = {w: letter_texts(w) for w in words}
                lex = Lexicon(words)
                for _ in range(3):
                    query = tuple(rng.choice(letters) for _ in range(m))
                    distance = {w: letter_edit_distance(query, t) for w, t in tokenized.items()}
                    want = {w: d for w, d in distance.items() if 1 <= d <= ed}
                    assert lex.within_distance(query, ed) == want, (query, ed)
                    found += len(want)
    assert found > 2_000, "the lexicons must hold neighbours at every length"


# Pieces that tokenize differently alone and joined: a lone vowel sign or
# pulli fuses with the consonant before it, ெ + ா compose under NFC, and
# க் + ஷ fuse into the conjunct.
_PIECES = ("க", "ா", "்", "கா", "க்", "ஷ", "க்ஷ", "ெ", "கொ", "ம", "ி", "அ", " ", "a")


def _peak_bytes(walk) -> int:
    tracemalloc.start()
    try:
        walk()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_a_budget_beyond_every_word_is_lowered(fixture_lexicon):
    # No word is farther than max(m, L) letters from an m-letter query, so a
    # larger ed finds the same words: every word, at its distance.  The walk
    # at 10**6 costs the time and memory of the walk at max(m, L).
    rng = random.Random(6)
    words = list(fixture_lexicon.words())
    queries = ["கடலா", "க", rng.choice(words) + rng.choice(words), "க" * 20]
    for query in map(letter_texts, queries):
        top = max(len(query), fixture_lexicon.longest)
        want = {w: d for w in words if (d := letter_edit_distance(query, w))}
        assert fixture_lexicon.within_distance(query, top) == want
        started = time.perf_counter()
        assert fixture_lexicon.within_distance(query, 10**6) == want
        assert time.perf_counter() - started < 2.0
        at_top = _peak_bytes(lambda: fixture_lexicon.within_distance(query, top))
        assert _peak_bytes(lambda: fixture_lexicon.within_distance(query, 10**6)) < 2 * at_top


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
    table = GRANTHA_LETTERS
    lex = Lexicon(table[:300])
    assert all(lex.contains_letters((letter,)) for letter in table[:300])
    with pytest.raises(WordListError):
        Lexicon(table[:301])


_TRIE_DIGEST = """
import hashlib
from tamilspell.bundled import bundled_lexicon
from tamilspell.letters import letter_texts

lex = bundled_lexicon()
lex.within_distance(letter_texts("பழம்"), 1)  # builds the reversed trie
digest = hashlib.sha256()
for first, labels, ends in (lex._forward, lex._backward):
    digest.update(first.tobytes() + labels.encode() + ends)
print(digest.hexdigest())
"""


def test_trie_layout_does_not_depend_on_the_hash_seed():
    # Letter codes are assigned in load order, so both tries of the bundled
    # lexicon are the same bytes under every string hash seed.
    src = os.path.dirname(os.path.dirname(tamilspell.__file__))
    digests = set()
    for seed in ("0", "1", "2"):
        proc = subprocess.run(
            [sys.executable, "-c", _TRIE_DIGEST],
            env={**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src},
            capture_output=True,
            text=True,
            check=True,
        )
        digests.add(proc.stdout)
    assert len(digests) == 1, digests


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


def test_dense_lexicons_walk_exactly():
    # Three or four letters and hundreds of words: most prefixes are in the
    # trie, so one walk state is shared by many siblings and its children
    # are reached again at several depths, and several walks run on each
    # lexicon.  Brute-force distances to every word are the referee.
    rng = random.Random(1717)
    table = LETTERS
    found = 0
    for _ in range(8):
        letters = rng.sample(table, rng.randint(3, 4))
        words = {
            "".join(rng.choice(letters) for _ in range(rng.randint(1, 9)))
            for _ in range(rng.randint(300, 1500))
        }
        lex = Lexicon(words)
        tokenized = {w: letter_texts(w) for w in words}
        for _ in range(6):
            query = tuple(rng.choice(letters) for _ in range(rng.randint(1, 9)))
            distance = {w: letter_edit_distance(query, t) for w, t in tokenized.items()}
            for ed in (1, 2, 3):
                want = {w: d for w, d in distance.items() if 1 <= d <= ed}
                assert lex.within_distance(query, ed) == want, (query, ed)
                found += len(want)
    assert found > 5_000, "the lexicons must actually be dense"


def test_walk_work_per_step_does_not_grow_with_the_query(fixture_lexicon):
    # A step looks only at the query columns of its row's band, so the
    # Python work per step stays bounded however often the query repeats
    # the step's letter.  Counted in traced lines, not timed.
    per_step = []
    for m in (1_000, 10_000):
        counts = {"calls": 0, "lines": 0}

        def local(frame, event, arg):
            if event == "line":
                counts["lines"] += 1
            return local

        def tracer(frame, event, arg):
            if frame.f_code.co_name == "step" and frame.f_code.co_filename == lexicon_module.__file__:
                counts["calls"] += 1
                return local
            return None

        previous = sys.gettrace()
        sys.settrace(tracer)
        try:
            fixture_lexicon.within_distance(("க",) * m, 2)
        finally:
            sys.settrace(previous)
        assert counts["calls"] > 0
        per_step.append(counts["lines"] / counts["calls"])
    assert max(per_step) < 200, per_step


def test_walk_setup_stays_linear_in_the_query(fixture_lexicon):
    # A walk's per-query setup is O(m): the query's codes and the limits.
    # A long random token enters few trie nodes, so setup is most of its
    # work.  Counted in traced lines of this module, not timed; the
    # reversed trie is built first.
    fixture_lexicon.within_distance(("க",) * 4, 2)
    rng = random.Random(10_000)
    query = tuple(rng.choice(LETTERS) for _ in range(10_000))
    counts = {"lines": 0}

    def local(frame, event, arg):
        if event == "line":
            counts["lines"] += 1
        return local

    def tracer(frame, event, arg):
        return local if frame.f_code.co_filename == lexicon_module.__file__ else None

    previous = sys.gettrace()
    sys.settrace(tracer)
    try:
        fixture_lexicon.within_distance(query, 2)
    finally:
        sys.settrace(previous)
    assert counts["lines"] / len(query) < 10, counts


def _split_halves(words, query: tuple[str, ...], ed: int) -> tuple[dict, dict]:
    # The two walks of within_distance, each on its own, with its limits.
    lex = Lexicon(words)
    lex.within_distance(query, ed)  # builds the reversed trie
    m = len(query)
    b = m // 2
    forward: dict[str, int] = {}
    backward: dict[str, int] = {}
    lex._walk(lex._forward, query, [ed // 2] * (b + 1) + [ed] * (m - b), forward)
    lex._walk(lex._backward, query[::-1], [(ed + 1) // 2 - 1] * (m - b) + [ed] * (b + 1), backward)
    return forward, backward


@pytest.mark.parametrize(
    "word, query, ed, half, cost",
    [
        ("ஃஃஙங", "ஙஙஃங", 2, 0, 2),
        ("டொஙஙங", "ஙஙடொடொஙங", 3, 0, 3),
        ("ஆறஆஆ", "ஆஆறறஆ", 2, 1, 2),
        ("மஊஊமம", "ஊமஊமஊஊ", 3, 1, 3),
        ("அகஅமபமக", "அகஅமபக", 2, 1, 2),
        ("கம", "மக", 1, 0, 1),
        ("கமதப", "மகபத", 2, 1, 2),
    ],
    ids=[
        "forward-ed2",
        "forward-ed3",
        "backward-ed2",
        "backward-ed3",
        "backward-above-distance",
        "forward-column-0",
        "backward-column-0",
    ],
)
def test_each_split_half_keeps_its_opener_letters(word, query, ed, half, cost):
    # A cell whose insertions pass a lower limit before column j + d can
    # still open a transposition that a child of letter q[j + d] starts,
    # so that letter must be followed.  That holds for the column 0 cell
    # too.  The union of the halves hides a miss (the other half finds the
    # word), so each half is run alone.
    query = letter_texts(query)
    assert _split_halves([word], query, ed)[half] == {word: cost}
    assert cost >= letter_edit_distance(query, letter_texts(word))


def test_each_split_half_equals_its_capped_oracle():
    # Each half alone against the capped Lowrance-Wagner table of
    # tests/oracles.py, so a half that misses a word, or reports one at
    # the wrong cost, shows even when the other half finds it.
    rng = random.Random(2002)
    checked = 0
    for _ in range(150):
        letters = rng.sample(LETTERS, rng.randint(2, 5))
        words = {
            "".join(rng.choice(letters) for _ in range(rng.randint(1, 7)))
            for _ in range(rng.randint(5, 40))
        }
        tokenized = {w: letter_texts(w) for w in words}
        for ed in (1, 2, 3):
            query = tuple(rng.choice(letters) for _ in range(rng.randint(ed + 1, 2 * ed + 4)))
            m = len(query)
            b = m // 2
            forward, backward = _split_halves(words, query, ed)
            for got, limit, way in (
                (forward, [ed // 2] * (b + 1) + [ed] * (m - b), 1),
                (backward, [(ed + 1) // 2 - 1] * (m - b) + [ed] * (b + 1), -1),
            ):
                costs = {w: capped_distance(t[::way], query[::way], limit) for w, t in tokenized.items()}
                want = {w: cost for w, cost in costs.items() if cost}
                assert got == want, (query, ed, way)
                checked += len(want)
    assert checked > 1_000, "the lexicons must actually hold neighbours"


def test_capped_oracle_halves_give_the_distance():
    # The oracle's own check: the cheaper of the two halves is the distance
    # whenever that is within ed (the forward-backward argument), and
    # neither half reaches a word beyond ed.
    rng = random.Random(2004)
    for _ in range(600):
        letters = rng.sample(LETTERS, rng.randint(2, 4))
        word = tuple(rng.choice(letters) for _ in range(rng.randint(0, 7)))
        query = tuple(rng.choice(letters) for _ in range(rng.randint(0, 7)))
        distance = letter_edit_distance(query, word)
        m = len(query)
        assert capped_distance(word, query, [m + len(word)] * (m + 1)) == distance
        for ed in range(1, m // 2 + 1):
            b = m // 2
            forward = capped_distance(word, query, [ed // 2] * (b + 1) + [ed] * (m - b))
            backward = capped_distance(
                word[::-1], query[::-1], [(ed + 1) // 2 - 1] * (m - b) + [ed] * (b + 1)
            )
            costs = [c for c in (forward, backward) if c is not None]
            if distance <= ed:
                assert min(costs) == distance, (word, query, ed)
            else:
                assert not costs, (word, query, ed)


def test_wide_nodes_walk_exactly():
    # Forty letters and 2,000 short words: the upper trie nodes have dozens
    # of children, most of which the walk steps over.  Brute-force
    # distances to every word are the referee.
    rng = random.Random(4040)
    letters = rng.sample(LETTERS, 40)
    words = set()
    while len(words) < 2_000:
        words.add("".join(rng.choice(letters) for _ in range(rng.choice((1, 2, 2, 3, 3, 4, 5, 6)))))
    lex = Lexicon(words)
    tokenized = {w: letter_texts(w) for w in words}
    found = 0
    for n in (1, 1, 2, 2, 3, 3, 4, 5, 6) * 2:
        query = tuple(rng.choice(letters) for _ in range(n))
        distance = {w: letter_edit_distance(query, t) for w, t in tokenized.items()}
        for ed in (1, 2, 3):
            want = {w: d for w, d in distance.items() if 1 <= d <= ed}
            assert lex.within_distance(query, ed) == want, (query, ed)
            found += len(want)
    assert found > 10_000, "the lexicon must actually be dense"


def test_walk_work_does_not_grow_with_dead_children():
    # The root is wide, and its k children that the query letter does not
    # match share one state, which is neither wide nor a word at its
    # distance.  No child is a word, and no grandchild is worth entering, so
    # the walk finds nothing whatever k is, and its work must not grow with
    # k.  Counted in traced lines of this module, not timed.
    lines = []
    for k in (40, 400):
        lex = Lexicon(chr(0x4E00 + i) + "ம" for i in range(k))
        counts = {"lines": 0}

        def local(frame, event, arg):
            if event == "line":
                counts["lines"] += 1
            return local

        def tracer(frame, event, arg):
            return local if frame.f_code.co_filename == lexicon_module.__file__ else None

        previous = sys.gettrace()
        sys.settrace(tracer)
        try:
            assert lex.within_distance(("அ",), 1) == {}
        finally:
            sys.settrace(previous)
        lines.append(counts["lines"])
    assert lines[1] <= lines[0] + 10, lines
