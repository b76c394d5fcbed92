"""The lexicon walks against the brute-force oracles of ``tests/oracles.py``.

Each strategy takes its candidates from the lexicon by walking the trie.
The oracles (``oracle_edits_n``, ``substitution_lattice``,
``series_variants`` and ``split_pairs``) enumerate the same candidates
over letter tuples: keep what the lexicon knows, and the walk must give
exactly that set and those scores.  The keyboard walk only labels edit
candidates, so it is also checked through the checker's labels.
"""

from __future__ import annotations

import random
import time

import oracles
from conftest import random_letter_word
import tamilspell.checker
from tamilspell import Strategy, Suggestion, conjoined, keyboard, mayangoli
from tamilspell.checker import EngineConfig, SpellChecker, Verdict
from tamilspell.conjoined import SplitKind, SplitPair
from tamilspell.edits import letter_edit_distance, suggest
from tamilspell.keyboard import ConfusionMatrix
from tamilspell.letters import join_mei_uyir, letter_texts
from tamilspell.lexicon import Lexicon

TABLE = oracles.LETTERS
# Letter-tuple order and text order agree on TABLE, but not here: க்ஸ sorts
# before க்ஷ by letters (க் is a prefix of க்ஷ) and after it by text.
GRANTHA = ("க்", "க்ஷ", "ஸ", "ஷ", "கா", "க")


def _random_lexicon(rng: random.Random, letters, max_len: int) -> set[str]:
    return {
        "".join(rng.choice(letters) for _ in range(rng.randint(1, max_len)))
        for _ in range(rng.randint(5, 60))
    }


def test_edit_walk_equals_filtered_enumeration():
    # Two to five letters force repeated letters and gapped transpositions.
    rng = random.Random(2024)
    checked = 0
    for ed in (1, 2, 3):
        for _ in range(150 if ed < 3 else 60):
            letters = tuple(rng.sample(TABLE, rng.randint(2, 5)))
            words = _random_lexicon(rng, letters, 7)
            query = tuple(rng.choice(letters) for _ in range(rng.randint(1, 5 if ed < 3 else 4)))
            found = suggest(query, Lexicon(words), nedits=ed)
            edited = {"".join(c) for c in oracles.oracle_edits_n(query, tuple(letters), ed)}
            want = edited.intersection(words) - {"".join(query)}
            assert found == {c: letter_edit_distance(query, c) for c in want}
            checked += len(found)
    assert checked > 500, "the lexicons must actually hold neighbours"


def test_split_edit_walk_equals_brute_force():
    # Four to nine letters take the forward-backward split at ed 1 and 2,
    # and from six letters on at ed 3.  Distances to every lexicon word,
    # by brute force, are the referee.
    rng = random.Random(2004)
    checked = 0
    for _ in range(150):
        letters = rng.sample(TABLE, rng.randint(2, 5))
        words = _random_lexicon(rng, letters, 11)
        query = tuple(rng.choice(letters) for _ in range(rng.randint(4, 9)))
        distance = {w: letter_edit_distance(query, w) for w in words}
        lexicon = Lexicon(words)
        for ed in (1, 2, 3):
            got = lexicon.within_distance(query, ed)
            assert got == {w: d for w, d in distance.items() if 1 <= d <= ed}, (query, ed)
            checked += len(got)
    assert checked > 1000, "the lexicons must actually hold neighbours"


def test_bounded_search_equals_brute_force():
    # Every query length 1..2 * ed + 1, so single and split walks, and every
    # count up to beyond the words available.  The exclude set is the
    # ed - 1 ball and some of the distance-ed words, as the checker's
    # candidates from the other strategies would be.  The grantha pool
    # checks that the cut follows text order, not letter order.
    for pool, sizes in ((TABLE, (2, 4)), (GRANTHA, (6, 6))):
        rng = random.Random(2204)
        pruned = 0
        for _ in range(25):
            letters = rng.sample(pool, rng.randint(*sizes))
            words = {
                "".join(rng.choice(letters) for _ in range(rng.randint(1, 6)))
                for _ in range(rng.randint(40, 200))
            }
            lexicon = Lexicon(words)
            for ed in (1, 2, 3):
                for m in range(1, 2 * ed + 2):
                    query = tuple(rng.choice(letters) for _ in range(m))
                    distance = {w: letter_edit_distance(query, w) for w in words}
                    at_ed = sorted(w for w, d in distance.items() if d == ed)
                    exclude = {w for w, d in distance.items() if d < ed}
                    exclude.update(w for w in at_ed if rng.random() < 0.3)
                    want = [w for w in at_ed if w not in exclude]
                    for count in range(13):
                        got = lexicon.first_at_distance(query, ed, count, exclude)
                        assert got == want[:count], (query, ed, count)
                        pruned += count < len(want)
        assert pruned > 2000, "the cut must leave distance-ed words out"


def test_keyboard_walk_equals_filtered_patterns(monkeypatch):
    # The walk reaches the lattice's lexicon words.  The checker labels an
    # edit candidate KEYBOARD when the walk reaches it and the series
    # strategy does not, so the labelled candidates are those words minus
    # the series ones, each scored by its letter edit distance.
    monkeypatch.setattr(tamilspell.checker, "MAX_SUGGESTIONS", 10**6)
    rng = random.Random(99)
    checked = 0
    for _ in range(300):
        letters = rng.sample(TABLE, rng.randint(3, 6))
        matrix = ConfusionMatrix(
            {key: [c for c in rng.sample(letters, rng.randint(1, 3)) if c != key] for key in letters}
        )
        original = tuple(rng.choice(letters) for _ in range(rng.randint(1, 5)))
        word = "".join(original)
        ed = rng.randint(1, 3)
        alternates = [matrix.alternates_for(lt) for lt in original]
        lattice = oracles.substitution_lattice(original, alternates, min(ed, len(original)))
        patterns = sorted("".join(c) for c in lattice)
        words = set(rng.sample(patterns, min(len(patterns), 8))) | _random_lexicon(rng, letters, 5)
        words.discard(word)
        lexicon = Lexicon(words)
        reached = words.intersection(patterns)
        assert keyboard.corrections(original, lexicon, matrix, ed) == reached
        config = EngineConfig(edit_distance=ed)
        report = SpellChecker(lexicon, config=config, confusion_matrix=matrix).check_word(word)
        got = {s.candidate: s.score for s in report.suggestions if s.strategy is Strategy.KEYBOARD}
        series = mayangoli.suggest(original, lexicon)
        assert set(got) == reached - series
        for candidate, score in got.items():
            assert score == letter_edit_distance(word, candidate)
        checked += len(got)
    assert checked > 200


def test_rotation_beyond_the_substitution_budget_stays_edit():
    # Each letter of கபம turns into a matrix neighbour in பமக, so only
    # three substitutions reach it, but two edits do (delete க, append it).
    matrix = ConfusionMatrix({"க": ["ப"], "ப": ["ம"], "ம": ["க"]})
    lexicon = Lexicon(["பமக"])
    assert keyboard.corrections(letter_texts("கபம"), lexicon, matrix, 3) == {"பமக"}
    at_two = SpellChecker(lexicon, config=EngineConfig(edit_distance=2), confusion_matrix=matrix)
    assert at_two.check_word("கபம").suggestions == (Suggestion("பமக", Strategy.EDIT, 2),)
    at_three = SpellChecker(lexicon, config=EngineConfig(edit_distance=3), confusion_matrix=matrix)
    assert at_three.check_word("கபம").suggestions == (Suggestion("பமக", Strategy.KEYBOARD, 2),)


def test_mayangoli_walk_equals_filtered_alternates():
    rng = random.Random(7)
    series = [lt for lt in TABLE if oracles.series_variants((lt,))]
    checked = 0
    for _ in range(200):
        pool = rng.sample(series, 3) + rng.sample(TABLE, 2)
        original = tuple(rng.choice(pool) for _ in range(rng.randint(1, 6)))
        alternates = sorted("".join(v) for v in oracles.series_variants(original))
        words = set(rng.sample(alternates, min(len(alternates), 6))) | {
            random_letter_word(rng, 1, 6) for _ in range(20)
        }
        got = mayangoli.suggest(original, Lexicon(words))
        assert got == words.intersection(alternates)
        checked += len(got)
    assert checked > 200


def test_long_series_token_is_bounded(fixture_lexicon):
    # Forty confusable positions are 3**40 series variants; the walk only
    # follows prefixes the lexicon holds.
    started = time.perf_counter()
    report = SpellChecker(fixture_lexicon).check_word("ள" * 40)
    assert report.verdict is Verdict.NON_WORD
    assert time.perf_counter() - started < 2.0


def test_keyboard_walk_keeps_substituted_letters_apart():
    # The walk looks the substituted letters up as they are: க் put before
    # ஷி stays two letters, although the joined text re-tokenizes as the
    # one letter க்ஷி.
    lex = Lexicon(["பக்ஷி"])
    matrix = ConfusionMatrix({"ச்": ["க்"]})
    assert letter_texts("பச்ஷி") == ("ப", "ச்", "ஷி")
    assert keyboard.corrections(letter_texts("பச்ஷி"), lex, matrix, 1) == set()
    # Two edits reach it (ச் to க்ஷி, ஷி deleted), so the checker still
    # suggests it, as an edit.
    report = SpellChecker(lex, confusion_matrix=matrix).check_word("பச்ஷி")
    assert report.suggestions == (Suggestion("பக்ஷி", Strategy.EDIT, 2),)


def _filtered_splits(word: str, lexicon: Lexicon) -> list:
    # Exact membership: a half must be a word's letter split, so one that
    # NFC would compose into a word is not that word.
    splits = {letter_texts(w) for w in lexicon.words()}
    return [
        SplitPair("".join(left), "".join(right), SplitKind(kind))
        for left, right, kind in oracles.split_pairs(letter_texts(word))
        if left in splits and right in splits
    ]


def test_conjoined_walk_equals_filtered_splits():
    rng = random.Random(31)
    # Each pool has a mei and an uyir, so compounds fuse inside a letter.
    pools = [
        (["க்", "க", "அ", "இ", "ல்", "லி"], "ல்", "இ"),
        ([lt for lt in TABLE if rng.random() < 0.05] + ["அ", "உ", "ண்", "ண"], "ண்", "அ"),
    ]
    checked = {SplitKind.PLAIN: 0, SplitKind.OTTRU: 0}
    for pool, mei, uyir in pools:
        for _ in range(600):
            words = sorted(_random_lexicon(rng, pool, 4))
            shape = rng.randrange(3)
            if shape == 0:
                word = "".join(rng.choice(words) for _ in range(rng.randint(1, 4)))
            elif shape == 1:
                left, right = rng.choice(words) + mei, uyir + rng.choice(words)
                words += [left, right]
                word = left[: -len(mei)] + join_mei_uyir(mei, uyir).text + right[len(uyir) :]
            else:
                word = "".join(rng.choice(pool) for _ in range(rng.randint(0, 9)))
            lexicon = Lexicon(words)
            found = conjoined.recognize(letter_texts(word), lexicon)
            assert found == _filtered_splits(word, lexicon), word
            for pair in found:
                checked[pair.kind] += 1
    assert min(checked.values()) > 100, "the words must actually split both ways"


class _CountingLexicon(Lexicon):
    def __init__(self, words):
        super().__init__(words)
        self.probes = 0

    def contains_letters(self, letters):
        self.probes += 1
        return super().contains_letters(letters)


def test_conjoined_probes_are_bounded_by_the_longest_word(fixture_lexicon):
    # At most four membership probes per split point, and no split point
    # past the longest word, however long the token.
    rng = random.Random(3000)
    lexicon = _CountingLexicon(fixture_lexicon.words())
    token = tuple(rng.choice(TABLE) for _ in range(3000))
    conjoined.recognize(token, lexicon)
    assert 0 < lexicon.probes <= 4 * (lexicon.longest + 1)


def test_long_random_token_is_bounded(fixture_lexicon):
    # Looking both halves of every split up would be quadratic in the
    # token's length; conjoined recognition tries no split whose left half
    # is longer than the lexicon's longest word.
    rng = random.Random(3000)
    token = "".join(rng.choice(TABLE) for _ in range(3000))
    started = time.perf_counter()
    report = SpellChecker(fixture_lexicon).check_word(token)
    assert report.verdict is Verdict.NON_WORD
    assert time.perf_counter() - started < 2.0
