"""End-to-end checks of the package's headline behaviors.

Each test covers one numbered criterion; the conftest summary hook prints
one [ACCEPTANCE] line per criterion after the run.  Tolerances and case
counts are pinned here, not sampled at run time.
"""

from __future__ import annotations

import collections
import itertools
import json
import random
import re
import time

import acceptance_report
import oracles
from conftest import random_letter_word

from tamilspell import Strategy
from tamilspell.bundled import bundled_lexicon, bundled_parallel_dict
from tamilspell.checker import SpellChecker, Verdict
from tamilspell import edits, keyboard
from tamilspell.conjoined import SplitKind, recognize
from tamilspell.keyboard import ConfusionMatrix
from tamilspell.letters import (
    AYUDHAM,
    KSSA,
    PULLI,
    SIGN_TO_UYIR,
    UYIR_LETTERS,
    LetterKind,
    _LETTERS,
    classify,
    is_tamil_codepoint,
    join_mei_uyir,
    letter_texts,
    split_mei_uyir,
)
from tamilspell.lexicon import Lexicon


def detail(criterion: int, text: str) -> None:
    acceptance_report.record_detail(criterion, text)


def test_every_criterion_has_one_test():
    # The summary prints only the criteria a test recorded, so a renamed
    # criterion test would drop out of it without a failure.
    numbers = [int(m[1]) for name in globals() if (m := re.match(r"test_c(\d+)_", name))]
    assert sorted(numbers) == sorted(acceptance_report.LABELS)


# ------------------------------------------------------------------ C1


def test_c1_mayangoli_flagship(fixture_lexicon):
    assert fixture_lexicon.is_word("பழம்")
    assert fixture_lexicon.is_word("பலம்")
    assert not fixture_lexicon.is_word("பளம்")
    engine = SpellChecker(fixture_lexicon)
    report = engine.check_word("பளம்")
    assert report.verdict is Verdict.NON_WORD
    candidates = [s.candidate for s in report.suggestions]
    assert "பழம்" in candidates
    detail(1, f"பழம் ranked {candidates.index('பழம்') + 1} of {len(candidates)}")


# ------------------------------------------------------------------ C2


def test_c2_conjoined_flagship(fixture_lexicon):
    assert fixture_lexicon.is_word("தென்றல்")
    assert fixture_lexicon.is_word("காற்று")
    assert not fixture_lexicon.is_word("தென்றல்காற்று")
    pairs = recognize(letter_texts("தென்றல்காற்று"), fixture_lexicon)
    assert ("தென்றல்", "காற்று") in [(p.left, p.right) for p in pairs]
    engine = SpellChecker(fixture_lexicon)
    top = engine.check_word("தென்றல்காற்று").suggestions[0]
    assert top.candidate == "தென்றல் காற்று"
    assert top.strategy is Strategy.CONJOINED
    assert top.score == 0
    detail(2, "தென்றல்காற்று = தென்றல் + காற்று, merged at score 0")


# ------------------------------------------------------------------ C3


def _ottru_recognized(word: str) -> list:
    # On a lexicon that holds every ottru half of the oracle's, recognize
    # finds every ottru pair of the oracle's, in its order.
    letters = letter_texts(word)
    ottru = [
        ("".join(left), "".join(right))
        for left, right, kind in oracles.split_pairs(letters)
        if kind == "ottru"
    ]
    lexicon = Lexicon(half for pair in ottru for half in pair)
    found = [p for p in recognize(letters, lexicon) if p.kind is SplitKind.OTTRU]
    assert [(p.left, p.right) for p in found] == ottru, word
    return found


def test_c3_ottru_split_structure():
    pairs = _ottru_recognized("யாரிகுழந்து")
    assert pairs, "a word with uyirmei letters must split"
    assert (pairs[0].left, pairs[0].right) == ("ய்", "ஆரிகுழந்து")

    rng = random.Random(4242)
    fuzzed = 0
    for _ in range(1000):
        word = random_letter_word(rng, 1, 8)
        for pair in _ottru_recognized(word):
            assert pair.reconstruct() == word
            fuzzed += 1
    assert fuzzed > 1000, "the fuzz corpus must actually exercise splits"
    detail(3, f"first pair (ய், ஆரிகுழந்து); {fuzzed} recognized pairs reconstructed over 1000 words")


# ------------------------------------------------------------------ C4


def _oracle_kind(letter: str) -> LetterKind:
    if letter in UYIR_LETTERS:
        return LetterKind.UYIR
    if letter == AYUDHAM:
        return LetterKind.AYUDHAM
    return LetterKind.MEI if letter.endswith(PULLI) else LetterKind.UYIRMEI


def test_c4_alphabet_totals():
    # The package's one letter table holds exactly the oracle's 323
    # letters, the two grantha mei those leave out and the lone marks.
    expected = {letter: _oracle_kind(letter) for letter in oracles.GRANTHA_LETTERS}
    assert len(expected) == len(oracles.GRANTHA_LETTERS) == 323
    assert collections.Counter(expected.values()) == {
        LetterKind.UYIR: 12, LetterKind.AYUDHAM: 1, LetterKind.MEI: 22, LetterKind.UYIRMEI: 288
    }
    expected.update(dict.fromkeys((KSSA + PULLI, "ஶ" + PULLI), LetterKind.MEI))
    expected.update(dict.fromkeys((PULLI, *SIGN_TO_UYIR), LetterKind.MALFORMED))
    assert len(expected) == 337
    got = {text: (letter.text, letter.kind) for text, letter in _LETTERS.items()}
    assert got == {text: (text, kind) for text, kind in expected.items()}

    round_tripped = {}
    for name, table in (("standard", oracles.LETTERS), ("grantha", oracles.GRANTHA_LETTERS)):
        compounds = [lt for lt in table if expected[lt] is LetterKind.UYIRMEI]
        for letter in compounds:
            mei, uyir = split_mei_uyir(letter)
            assert join_mei_uyir(mei, uyir).text == letter
        round_tripped[name] = len(compounds)
    assert round_tripped["standard"] == 216
    assert round_tripped["grantha"] == 288
    detail(4, "337 entries (323 letters, 2 grantha mei, 12 marks) equal the oracle's; 216+288 uyirmei split/join round-trips")


# ------------------------------------------------------------------ C5


def test_c5_edit_counts_and_oracle_equality():
    rng = random.Random(515)
    sweep = 0
    witness_pool = []
    for a_size in (2, 5):
        alpha = tuple(chr(ord("a") + i) for i in range(a_size))
        # Every word of 1-6 letters: all that two edits reach from 1-4.
        lexicon = Lexicon(
            "".join(w) for n in range(1, 7) for w in itertools.product(alpha, repeat=n)
        )
        for n in range(1, 5):
            for combo in itertools.product(alpha, repeat=n):
                # Deletes, transposes, replaces and inserts, duplicates kept.
                assert len(oracles.naive_single_edits(combo, alpha)) == (
                    n + max(n - 1, 0) + n * a_size + (n + 1) * a_size
                )
                word = "".join(combo)
                one = {"".join(t) for t in oracles.oracle_edits_n(combo, alpha, 1)} - {word, ""}
                two = {"".join(t) for t in oracles.oracle_edits_n(combo, alpha, 2)} - {word, ""}
                assert edits.suggest(combo, lexicon, nedits=1) == dict.fromkeys(one, 1)
                got = edits.suggest(combo, lexicon, nedits=2)
                assert got == {c: 1 if c in one else 2 for c in two}
                if rng.random() < 0.01:
                    witness_pool.append((combo, rng.choice(sorted(got)), got))
                sweep += 1
    # Independent distance witness: sampled members really are at the
    # distance the walk gives them.
    for source, cand, got in witness_pool[:40]:
        assert oracles.bfs_edit_distance(source, tuple(cand)) == got[cand]
    detail(5, f"{sweep} words x 2 edit levels, edit walk equals the leveled oracle")


# ------------------------------------------------------------------ C6


def test_c6_pruned_lattice_equals_oracle():
    rng = random.Random(66)
    table = oracles.LETTERS
    table_set = set(table)
    strict = 0
    for _ in range(500):
        word = random_letter_word(rng, 1, 4)
        letters = letter_texts(word)
        mapping = {}
        for position in range(len(letters)):
            if rng.random() < 0.7:
                letter = letters[position]
                pool = [lt for lt in rng.sample(table, 6) if lt != letter]
                mapping.setdefault(letter, pool[: rng.randint(1, 3)])
        # An unmapped compound letter resolves through a mapped mei key,
        # which this oracle does not model; pin those with direct rows.
        for letter in letters:
            if letter not in mapping and classify(letter).kind is LetterKind.UYIRMEI:
                if split_mei_uyir(letter)[0].text in mapping:
                    pool = [lt for lt in rng.sample(table, 6) if lt != letter]
                    mapping[letter] = pool[: rng.randint(1, 3)]
        matrix = ConfusionMatrix(mapping)
        ed = rng.randint(1, min(2, len(letters)))
        want = {
            "".join(t)
            for t in oracles.substitution_lattice(
                letters, [mapping.get(lt, []) for lt in letters], ed
            )
        }
        # The whole lattice, the word itself and same-length noise.
        noise = {random_letter_word(rng, len(letters), len(letters)) for _ in range(20)}
        lexicon = Lexicon(want | noise | {word})
        got = keyboard.corrections(letters, lexicon, matrix, ed)
        assert got == want
        choices = [len(table) - (1 if lt in table_set else 0) for lt in letters]
        full = 0
        for k in range(1, ed + 1):
            for combo in itertools.combinations(range(len(letters)), k):
                product = 1
                for p in combo:
                    product *= choices[p]
                full += product
        assert len(got) < full
        strict += 1
    assert strict == 500
    detail(6, "500 random cases, keyboard walk equals the lattice; pruned < full lattice in every case")


# ------------------------------------------------------------------ C7


def test_c7_codepoint_screening():
    for cp in range(0x2001):
        assert is_tamil_codepoint(chr(cp)) == (2946 <= cp <= 3066), hex(cp)
    detail(7, "8193 code points against the 2946..3066 window")


# ------------------------------------------------------------------ C8


def test_c8_cache_contract(fixture_lexicon):
    k = 6
    doc = " ".join(["பளம்"] * k)
    engine = SpellChecker(fixture_lexicon)
    report = engine.check_text(doc)
    assert engine.stats["cache_misses"] == 1
    assert engine.stats["cache_hits"] == k - 1
    tuples = [t.suggestions for t in report.tokens]
    assert all(t is tuples[0] for t in tuples)
    rendered = {json.dumps(t.as_dict(), ensure_ascii=False) for t in report.tokens}
    assert len(rendered) == 1
    detail(8, f"k={k}: 1 computation, {k - 1} hits, identical lists")


# ------------------------------------------------------------------ C9


def _fixture_document(lexicon) -> str:
    valid = sorted(lexicon.words())[:40]
    raw_nonwords = [
        "பளம்", "சுவம்", "கறக", "மலழ", "தடடம்", "வலலம்", "நணடு", "கலளம்",
        "படடம்", "மணணல்", "செயயல்", "அறவு", "இனனல்", "உளளம்", "எழழு",
        "ஒளளி", "கடடல்", "சிறறகு", "தொழழில்", "நிலலா", "பறறவை", "மரரம்",
        "யாழழ்", "வீடடு", "ஆசசை", "ஈரரம்", "ஊரரன்", "ஏணணி", "ஐயயம்", "ஓடடம்",
    ]
    nonwords = [w for w in raw_nonwords if not lexicon.is_word(w)]
    assert len(nonwords) >= 25
    foreign = ["computer", "internet", "zebra", "phone"]
    tokens: list[str] = []
    i = 0
    while len(tokens) < 10000:
        tokens.append(valid[i % len(valid)])
        if i % 7 == 3:
            tokens.append(nonwords[i % len(nonwords)])
        if i % 23 == 5:
            tokens.append(foreign[i % len(foreign)])
        if i % 101 == 50:
            tokens.append("தென்றல்காற்று")
        i += 1
    return " ".join(tokens[:10000])


def test_c9_worker_determinism(fixture_lexicon):
    doc = _fixture_document(fixture_lexicon)
    assert len(doc.split(" ")) == 10000

    def fresh_engine() -> SpellChecker:
        return SpellChecker(fixture_lexicon, parallel_dict=bundled_parallel_dict())

    engine = fresh_engine()
    started = time.perf_counter()
    cold = engine.check_text(doc).to_json()
    elapsed = time.perf_counter() - started
    warm = engine.check_text(doc).to_json()
    other = fresh_engine().check_text(doc).to_json()
    assert cold == warm == other
    detail(9, f"10000 tokens byte-identical across two fresh engines and a warm re-check; {elapsed:.3f}s cold")


# ------------------------------------------------------------------ C10


def test_c10_foreign_substitution(fixture_lexicon, fixture_parallel):
    engine = SpellChecker(fixture_lexicon, parallel_dict=fixture_parallel)
    known = engine.check_text("computer").tokens[0]
    assert known.verdict is Verdict.NON_TAMIL
    assert [s.candidate for s in known.suggestions] == ["கணினி"]
    assert known.suggestions[0].strategy is Strategy.FOREIGN

    unknown = engine.check_text("xylophone").tokens[0]
    assert unknown.token == "xylophone"
    assert unknown.verdict is Verdict.NON_TAMIL
    assert unknown.suggestions == ()
    detail(10, "computer -> கணினி; unknown tokens untouched")
