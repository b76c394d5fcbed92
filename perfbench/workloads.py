"""Seeded workload generators.

Every input is a pure function of (workload name, seed): the same pair
gives byte-identical word lists, documents and word streams.  Generators
only use ordered containers and ``random.Random`` seeded with a string,
so ``PYTHONHASHSEED`` does not leak into the output.

A workload gives each phase of a run its input:

* ``words``: the lexicon, in the order it is written to the word list;
* ``doc_tokens``/``doc_text``: the document for ``check_text`` and the CLI;
* ``stream``: timed ``check_word`` inputs, each a :class:`Typo` with its
  source (a valid token is its own source, of kind ``valid``);
* ``min_words``: how many leading stream entries are always checked,
  whatever the time budget;
* ``quality``: the recall set, fixed by the seed alone.  Its typos are
  scored where the stream checks them; the rest are checked untimed.
"""

from __future__ import annotations

import bisect
import itertools
import random
import statistics
import unicodedata
from dataclasses import dataclass, field

import oracle

# Confusable consonant series (ல/ழ/ள, ர/ற, ந/ன/ண, ங/ஞ).
SERIES = ("லழள", "ரற", "நனண", "ஙஞ")
_SERIES_OF = {c: s for s in SERIES for c in s}

# Tamil-99 key rows; each row sits half a key right of the one above it.
KEY_ROWS = ("ஆஈஊஐஏளறனடணசஞ", "அஇஉஃஎகபமதநய", "ஔஓஒவஙலரழ")

# Foreign tokens the document mixes in; some are in the bundled parallel
# dictionary and some are not.
FOREIGN = (
    "computer", "internet", "phone", "school", "water", "time",
    "hello", "data", "music", "email", "video", "online",
)

# Share of each typo kind in a stream, per block of ten.
KIND_BLOCK = (
    "edit1", "edit1", "edit2", "edit2", "mayangoli", "mayangoli",
    "keyboard", "keyboard", "compound", "compound+typo",
)
# Kinds whose source a checker can recover by its contract.
RECOVERABLE = frozenset(KIND_BLOCK) - {"compound+typo"}


def _key_neighbours() -> dict[str, tuple[str, ...]]:
    pos = {k: (r, i) for r, row in enumerate(KEY_ROWS) for i, k in enumerate(row)}
    out = {}
    for key, (r, i) in pos.items():
        near = [(r, i - 1), (r, i + 1), (r + 1, i - 1), (r + 1, i), (r - 1, i), (r - 1, i + 1)]
        out[key] = tuple(
            KEY_ROWS[rr][ii] for rr, ii in near if 0 <= rr < len(KEY_ROWS) and 0 <= ii < len(KEY_ROWS[rr])
        )
    return out


KEY_NEIGHBOURS = _key_neighbours()
ALPHABET = oracle.alphabet()


@dataclass(frozen=True)
class Typo:
    token: str
    kind: str
    source: str  # the intended word; "a b" for a compound


@dataclass
class Workload:
    name: str
    seed: int
    words: list[str]
    doc_tokens: list[str]
    doc_text: str
    stream: list[Typo]
    min_words: int
    quality: list[Typo] = field(default_factory=list)

    def word_set(self) -> set[str]:
        return set(self.words)


# --------------------------------------------------------------------- #
# Typos


def _edit(lts: tuple[str, ...], rng: random.Random, ops: int) -> tuple[str, ...]:
    lts = list(lts)
    for _ in range(ops):
        op = rng.choice(("delete", "insert", "replace", "transpose"))
        if op == "delete" and len(lts) > 1:
            del lts[rng.randrange(len(lts))]
        elif op == "transpose" and len(lts) > 1:
            i = rng.randrange(len(lts) - 1)
            lts[i], lts[i + 1] = lts[i + 1], lts[i]
        elif op == "insert":
            lts.insert(rng.randrange(len(lts) + 1), rng.choice(ALPHABET))
        else:
            lts[rng.randrange(len(lts))] = rng.choice(ALPHABET)
    return tuple(lts)


def _mayangoli(lts: tuple[str, ...], rng: random.Random) -> tuple[str, ...] | None:
    spots = [i for i, lt in enumerate(lts) if (p := oracle.split_letter(lt)) and p[0] in _SERIES_OF]
    if not spots:
        return None
    i = rng.choice(spots)
    cons, sign = oracle.split_letter(lts[i])
    other = rng.choice([c for c in _SERIES_OF[cons] if c != cons])
    return lts[:i] + (other + sign,) + lts[i + 1 :]


def _keyboard(lts: tuple[str, ...], rng: random.Random) -> tuple[str, ...] | None:
    """Replace one letter by a Tamil-99 neighbour key of the same class.

    A vowel becomes a neighbouring vowel; a consonant becomes a
    neighbouring consonant and keeps its vowel sign or pulli.
    """
    options = []
    for i, lt in enumerate(lts):
        if lt in oracle.UYIR:
            options += [(i, n) for n in KEY_NEIGHBOURS.get(lt, ()) if n in oracle.UYIR]
        elif lt[0] in oracle.CONSONANTS:
            options += [(i, n + lt[1:]) for n in KEY_NEIGHBOURS.get(lt[0], ()) if n in oracle.CONSONANTS]
    if not options:
        return None
    i, new = rng.choice(options)
    return lts[:i] + (new,) + lts[i + 1 :]


class TypoMaker:
    """Draws distinct non-words of each kind from a lexicon.

    Each kind walks its own seeded permutation of the lexicon, so sources
    spread evenly over the word list.
    """

    def __init__(self, words: list[str], rng: random.Random, exclude=()):
        self.words = words
        self.known = set(words)
        self.rng = rng
        self.seen: set[str] = set(exclude)
        self._orders: dict[str, itertools.cycle] = {}

    def _next_word(self, kind: str) -> str:
        if kind not in self._orders:
            order = list(self.words)
            self.rng.shuffle(order)
            self._orders[kind] = itertools.cycle(order)
        return next(self._orders[kind])

    def _accept(self, lts, source_lts) -> str | None:
        token = "".join(lts)
        if (
            not lts
            or lts == tuple(source_lts)
            or token in self.known
            or token in self.seen
            or oracle.letters(token) != tuple(lts)
            or unicodedata.normalize("NFC", token) != token
        ):
            return None
        self.seen.add(token)
        return token

    def make(self, kind: str) -> Typo:
        rng = self.rng
        for _ in range(10000):
            if kind.startswith("compound"):
                a, b = self._next_word(kind), rng.choice(self.words)
                if a == b:
                    continue
                lts = oracle.letters(a) + oracle.letters(b)
                source, base = f"{a} {b}", ()
                if kind == "compound+typo":
                    lts = _mayangoli(lts, rng) or _edit(lts, rng, 1)
            else:
                source = self._next_word(kind)
                base = oracle.letters(source)
                if kind == "edit1":
                    lts = _edit(base, rng, 1)
                elif kind == "edit2":
                    lts = _edit(base, rng, 2)
                elif kind == "mayangoli":
                    lts = _mayangoli(base, rng)
                else:
                    lts = _keyboard(base, rng)
                if lts is None:
                    continue
            token = self._accept(tuple(lts), base)
            if token is not None:
                return Typo(token, kind, source)
        raise RuntimeError(f"no {kind} typo found")

    def stream(self, count: int) -> list[Typo]:
        out = []
        while len(out) < count:
            block = list(KIND_BLOCK)
            self.rng.shuffle(block)
            out += [self.make(kind) for kind in block]
        return out[:count]


# --------------------------------------------------------------------- #
# Lexicons and documents


def bundled_words() -> list[str]:
    """The package's bundled word list, read as plain data."""
    from importlib import resources

    text = resources.files("tamilspell.data").joinpath("wordlist_ta.txt").read_text("utf-8")
    words = {}
    for line in text.splitlines():
        word = unicodedata.normalize("NFC", line.strip())
        if word and not word.startswith("#"):
            words[word] = None
    return list(words)


END = ""  # word boundary: the state before the first letter and after the last


def synthetic_words(base: list[str], total: int, rng: random.Random) -> list[str]:
    """``base`` plus words from a letter-bigram model fitted to ``base``.

    The model predicts each letter, or the end of the word, from the
    previous letter (or the start of the word).  Its bigram and unigram
    distributions are interpolated with the weight that deleted
    interpolation (Jelinek and Mercer) fits on ``base``: each bigram
    occurrence, with itself left out, votes for the distribution that
    predicts it better.  So letters, transitions and word lengths are all
    fitted, and nothing is drawn uniformly.  Draws repeat until ``total``
    distinct words exist, which shifts the lengths up from ``base``'s once
    the short strings the model likes are taken.
    """
    unigram: dict[str, int] = {}
    bigram: dict[str, dict[str, int]] = {}
    for word in base:
        seq = (END, *oracle.letters(word), END)
        for prev, lt in zip(seq, seq[1:]):
            unigram[lt] = unigram.get(lt, 0) + 1
            row = bigram.setdefault(prev, {})
            row[lt] = row.get(lt, 0) + 1

    n = sum(unigram.values())
    votes = [0, 0]  # unigram, bigram
    for row in bigram.values():
        h = sum(row.values())
        for lt, c in row.items():
            p_bigram = (c - 1) / (h - 1) if h > 1 else 0.0
            p_unigram = (unigram[lt] - 1) / (n - 1)
            votes[p_bigram > p_unigram] += c
    weight = votes[1] / sum(votes)

    def sampler(counts: dict[str, int]):
        keys = list(counts)
        cum = list(itertools.accumulate(counts[k] for k in keys))
        return keys, cum

    uni = sampler(unigram)
    rows = {prev: sampler(row) for prev, row in bigram.items()}

    def draw(table):
        keys, cum = table
        return keys[bisect.bisect_right(cum, rng.random() * cum[-1])]

    words = dict.fromkeys(base)
    while len(words) < total:
        lts = []
        lt = draw(rows[END] if rng.random() < weight else uni)
        while lt != END:
            lts.append(lt)
            lt = draw(rows[lt] if rng.random() < weight else uni)
        word = "".join(lts)
        if word and word not in words and oracle.letters(word) == tuple(lts):
            words[word] = None
    return list(words)


def zipf(items: list, rng: random.Random, s: float = 1.0):
    """A sampler over ``items`` with weight 1/rank^s.

    Shorter words rank first, as frequent words tend to be short.  The rank
    order does not depend on the seed, so which word heads the distribution
    (a sixth of all tokens) does not swing the document's cost from seed to
    seed.
    """
    order = sorted(items, key=lambda w: (len(oracle.letters(w)), w))
    cum = list(itertools.accumulate(1.0 / (r + 1) ** s for r in range(len(order))))
    return lambda: order[bisect.bisect_right(cum, rng.random() * cum[-1])]


def render(tokens: list[str], rng: random.Random) -> str:
    """Lay tokens out as sentences with punctuation and paragraph breaks."""
    parts, since_stop = [], 0
    for tok in tokens:
        parts.append(tok)
        since_stop += 1
        if since_stop >= 6 and rng.random() < 0.15:
            parts.append(". " if rng.random() < 0.8 else ".\n\n")
            since_stop = 0
        elif rng.random() < 0.06:
            parts.append(", ")
        else:
            parts.append(" ")
    return "".join(parts).rstrip() + ".\n"


def document(words, pool, rng, tokens: int, typo_share: float, foreign_share: float, compounds=()):
    """Zipf-distributed valid words with non-words and foreign tokens mixed in."""
    valid = zipf(words, rng)
    out = []
    for _ in range(tokens):
        r = rng.random()
        if r < typo_share:
            out.append(rng.choice(pool).token)
        elif r < typo_share + foreign_share:
            tok = rng.choice(FOREIGN)
            out.append(tok.capitalize() if rng.random() < 0.3 else tok)
        elif compounds and r < typo_share + foreign_share + 0.003:
            out.append(rng.choice(compounds).token)
        else:
            out.append(valid())
    return out


def build(name: str, seed: int) -> Workload:
    rng = random.Random(f"tamilspell-bench:{name}:{seed}")
    base = bundled_words()
    if name == "doc":
        # The document's 40 non-words open a quality set of QUALITY typos,
        # so that recall rests on more than 40 outcomes.
        maker = TypoMaker(base, rng)
        quality = maker.stream(QUALITY)
        pool = quality[:40]
        compounds = [maker.make("compound") for _ in range(5)]
        tokens = document(base, pool, rng, 20000, 0.08, 0.02, compounds)
        known = {t.token: t for t in pool + compounds}
        stream = [known.get(tok) or Typo(tok, "valid", tok) for tok in tokens if oracle.is_tamil(tok)]
        return Workload(name, seed, base, tokens, render(tokens, rng), stream, len(stream), quality)
    if name == "typos":
        stream = TypoMaker(base, rng).stream(600)
        tokens = _interleave(stream[:60], zipf(base, rng), 3)
        return Workload(name, seed, base, tokens, render(tokens, rng), stream, QUALITY, stream[:QUALITY])
    if name == "big-lexicon":
        words = synthetic_words(base, 200_000, rng)
        synthetic = words[len(base):]
        maker = TypoMaker(synthetic, rng, exclude=words)
        tokens = document(synthetic, [], rng, 5000, 0.0, 0.0)
        stream = maker.stream(BIG_QUALITY)
        return Workload(name, seed, words, tokens, render(tokens, rng), stream, BIG_QUALITY, stream)
    raise ValueError(f"unknown workload {name!r}")


def _interleave(typos: list[Typo], valid, between: int) -> list[str]:
    out = []
    for t in typos:
        out.append(t.token)
        out.extend(valid() for _ in range(between))
    return out


NAMES = ("doc", "typos", "big-lexicon")
# Typos whose recall every run measures.
QUALITY = 200
# Top-1 recall sits near 0.5 on big-lexicon's dense neighbourhoods, where
# 200 outcomes swing it by 10% between seeds.  Its whole stream is scored
# and timed.
BIG_QUALITY = 600


def describe(w: Workload, neighbourhoods: oracle.Neighbourhoods, sample: int) -> dict:
    """The properties a reader needs to see what a workload stresses."""
    tamil = [t for t in w.doc_tokens if oracle.is_tamil(t)]
    known = w.word_set()
    doc_non_words = [t for t in tamil if t not in known]
    checked = w.stream[: w.min_words]
    distinct = len({t.token for t in checked})
    typos = [t for t in dict.fromkeys(checked + w.quality) if t.kind != "valid"]
    kinds: dict[str, int] = {}
    for t in typos:
        kinds[t.kind] = kinds.get(t.kind, 0) + 1
    probe = list(dict.fromkeys(t.token for t in typos))[:sample]
    near = [len(neighbourhoods.within(t)) for t in probe]
    return {
        "lexicon_words": len(w.words),
        "doc_tokens": len(w.doc_tokens),
        "doc_distinct_non_words": len(set(doc_non_words)),
        "doc_non_word_share": round(len(doc_non_words) / len(w.doc_tokens), 4),
        "doc_cache_hit_ratio": round(1 - len(set(doc_non_words)) / max(len(doc_non_words), 1), 4),
        "doc_mean_letters_per_token": round(sum(len(oracle.letters(t)) for t in tamil) / len(tamil), 3),
        "stream_checked_at_least": len(checked),
        "stream_cache_hit_ratio": round(1 - distinct / len(checked), 4),
        "stream_mean_letters": round(sum(len(oracle.letters(t.token)) for t in checked) / len(checked), 3),
        "typo_kind_mix": dict(sorted(kinds.items())),
        "mean_words_within_2": round(statistics.fmean(near), 2),
        # Short typos in a dense lexicon have thousands of neighbours, so
        # the mean of a small sample swings; the median is the typical typo.
        "median_words_within_2": statistics.median(near),
        "neighbourhood_sample": len(probe),
    }
