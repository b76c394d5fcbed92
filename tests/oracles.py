"""Independent brute-force oracles the tests compare the package against.

Everything here is written the slow, obvious way on purpose: the letter
table listed consonant by consonant and sign by sign, list
comprehensions over letter tuples, breadth-first search for distances,
itertools enumeration for lattices, per-code-point loops for letters and
for word tokens, string prefixes for a letter's consonant, every lexicon
word scored for a ranking.  No package internals are reused beyond the
letter constants, ``DEFAULT_SERIES`` and the ``Letter`` record.
"""

from __future__ import annotations

import itertools
import unicodedata

from tamilspell.letters import (
    AYUDHAM,
    CONSONANTS,
    KSSA,
    PULLI,
    SIGN_TO_UYIR,
    UYIR_LETTERS,
    Letter,
    LetterKind,
)
from tamilspell.mayangoli import DEFAULT_SERIES

_SINGLE_CONSONANTS = frozenset(CONSONANTS) | {"ஜ", "ஷ", "ஸ", "ஹ", "ஶ"}


def letter_table(grantha: bool = False) -> tuple[str, ...]:
    """The 247 Tamil letters, or the 323 with the grantha ones, in script order.

    Uyir, then ஃ, then per consonant its mei, its bare form and one form
    per vowel sign; grantha adds ஜ ஷ ஸ ஹ the same way, then க்ஷ and ஶ
    without their mei.
    """
    marks = (PULLI, "", *SIGN_TO_UYIR)
    table = [*UYIR_LETTERS, AYUDHAM, *(c + m for c in CONSONANTS for m in marks)]
    if grantha:
        table += (c + m for c in ("ஜ", "ஷ", "ஸ", "ஹ") for m in marks)
        table += (c + m for c in (KSSA, "ஶ") for m in marks[1:])
    return tuple(table)


LETTERS = letter_table()
GRANTHA_LETTERS = letter_table(grantha=True)


def reference_tokenize(text: str) -> list[Letter]:
    """The tokenizer as a per-code-point loop: the reference for ``tokenize``.

    A consonant (க் + ஷ read as the one consonant க்ஷ) takes a following
    pulli (mei) or vowel sign (uyirmei), else stands bare (uyirmei); uyir
    and ஃ stand alone; a sign or pulli with no consonant is MALFORMED and
    anything else is OTHER.
    """
    tokens: list[Letter] = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch in _SINGLE_CONSONANTS:
            base, j = ch, i + 1
            if ch == "க" and text[i + 1 : i + 3] == PULLI + "ஷ":
                base, j = KSSA, i + 3
            nxt = text[j] if j < n else ""
            if nxt == PULLI:
                tokens.append(Letter(base + PULLI, LetterKind.MEI))
                i = j + 1
            elif nxt in SIGN_TO_UYIR:
                tokens.append(Letter(base + nxt, LetterKind.UYIRMEI))
                i = j + 1
            else:
                tokens.append(Letter(base, LetterKind.UYIRMEI))
                i = j
        elif ch in UYIR_LETTERS:
            tokens.append(Letter(ch, LetterKind.UYIR))
            i += 1
        elif ch == AYUDHAM:
            tokens.append(Letter(ch, LetterKind.AYUDHAM))
            i += 1
        elif ch in SIGN_TO_UYIR or ch == PULLI:
            tokens.append(Letter(ch, LetterKind.MALFORMED))
            i += 1
        else:
            tokens.append(Letter(ch, LetterKind.OTHER))
            i += 1
    return tokens


def reference_word_tokens(text: str) -> list[str]:
    """The document split as a per-code-point loop: the reference for the checker's.

    A word token is a maximal run of code points that are letters, marks
    or digits by their Unicode category, ``_``, ZWNJ or ZWJ.
    """
    tokens: list[str] = []
    current: list[str] = []
    for ch in text:
        if ch in "_\u200c\u200d" or unicodedata.category(ch)[0] in "LMN":
            current.append(ch)
        elif current:
            tokens.append("".join(current))
            current = []
    if current:
        tokens.append("".join(current))
    return tokens


def naive_single_edits(letters: tuple, alphabet: tuple) -> list[tuple]:
    """All single-edit results as letter tuples, raw (duplicates kept)."""
    splits = [(letters[:i], letters[i:]) for i in range(len(letters) + 1)]
    deletes = [a + b[1:] for a, b in splits if b]
    transposes = [a + (b[1], b[0]) + b[2:] for a, b in splits if len(b) > 1]
    replaces = [a + (c,) + b[1:] for a, b in splits if b for c in alphabet]
    inserts = [a + (c,) + b for a, b in splits for c in alphabet]
    return deletes + transposes + replaces + inserts


def oracle_edits_n(letters: tuple, alphabet: tuple, nedits: int) -> set[tuple]:
    """Leveled expansion: level k edits every word level k-1 added.

    The empty tuple is kept as a candidate but never expanded (a word is
    required to generate edits).
    """
    result: set[tuple] = set()
    frontier: set[tuple] = {letters}
    for _ in range(nedits):
        new: set[tuple] = set()
        for word in frontier:
            if not word:
                continue
            for cand in naive_single_edits(word, alphabet):
                if cand not in result:
                    new.add(cand)
        result |= new
        frontier = new
    return result


def bfs_edit_distance(a: tuple, b: tuple, cap: int = 6) -> int:
    """Minimum number of single edits turning ``a`` into ``b``.

    Ground truth for the unrestricted transposition distance: breadth
    first over whole-word states, ops drawn over the union alphabet.
    """
    if a == b:
        return 0
    alphabet = tuple(sorted(set(a) | set(b)))
    frontier = {a}
    visited = {a}
    for dist in range(1, cap + 1):
        nxt = set()
        for word in frontier:
            for cand in naive_single_edits(word, alphabet):
                if cand == b:
                    return dist
                if cand not in visited:
                    visited.add(cand)
                    nxt.add(cand)
        frontier = nxt
    raise AssertionError(f"distance of {a!r} -> {b!r} exceeds cap {cap}")


def substitution_lattice(letters: tuple, alternates: list, ed: int) -> set[tuple]:
    """Every word reachable by substituting 1..ed positions.

    ``alternates[p]`` lists the letters allowed at position p of the
    original word; the original word itself is excluded.
    """
    out: set[tuple] = set()
    for k in range(1, ed + 1):
        for combo in itertools.combinations(range(len(letters)), k):
            pools = [[a for a in alternates[p] if a != letters[p]] for p in combo]
            for choice in itertools.product(*pools):
                cand = list(letters)
                for p, c in zip(combo, choice):
                    cand[p] = c
                out.add(tuple(cand))
    out.discard(tuple(letters))
    return out


def capped_distance(word: tuple, query: tuple, limit: list[int]) -> int | None:
    """The cheapest alignment of ``word`` with ``query`` that keeps within ``limit``.

    The Lowrance-Wagner table of the unrestricted Damerau-Levenshtein
    distance, with row i for the first i letters of ``word`` and column j
    for the first j of ``query``.  A cell in column j that costs more than
    ``limit[j]`` is dropped: no alignment passes through it.  A
    transposition of ``word[k-1:i]`` with ``query[l-1:j]``, whose end
    letters swap places, moves from cell (k - 1, l - 1) to (i, j) at once
    and costs one plus the letters between its ends on both sides; every
    such k and l is tried, not only the nearest.  None when the last cell
    is dropped.
    """
    n, m = len(word), len(query)
    table = [[None] * (m + 1) for _ in range(n + 1)]
    for i in range(n + 1):
        for j in range(m + 1):
            options = [0] if i == j == 0 else []
            if i and table[i - 1][j] is not None:
                options.append(table[i - 1][j] + 1)
            if j and table[i][j - 1] is not None:
                options.append(table[i][j - 1] + 1)
            if i and j and table[i - 1][j - 1] is not None:
                options.append(table[i - 1][j - 1] + (word[i - 1] != query[j - 1]))
            for k in range(1, i):
                for l in range(1, j):
                    before = table[k - 1][l - 1]
                    if word[k - 1] == query[j - 1] and word[i - 1] == query[l - 1] and before is not None:
                        options.append(before + (i - k - 1) + 1 + (j - l - 1))
            cost = min(options, default=None)
            if cost is not None and cost <= limit[j]:
                table[i][j] = cost
    return table[n][m]


def _consonant_and_sign(letter: str) -> tuple[str, str] | None:
    """A consonant-vowel letter as its consonant and vowel sign ("" for அ)."""
    for consonant in (KSSA, *_SINGLE_CONSONANTS):
        sign = letter.removeprefix(consonant)
        if sign != letter and (sign == "" or sign in SIGN_TO_UYIR):
            return consonant, sign
    return None


def series_variants(letters: tuple) -> set[tuple]:
    """Every word that swaps the consonant of any of its series letters.

    A consonant-vowel letter whose consonant is in a series of
    ``DEFAULT_SERIES`` may take any consonant of that series, keeping its
    vowel sign; a bare mei keeps its place.  The input itself is excluded.
    """
    pools = []
    for letter in letters:
        pool = [letter]
        parts = _consonant_and_sign(letter)
        for group in DEFAULT_SERIES:
            consonants = [mei.removesuffix(PULLI) for mei in group]
            if parts and parts[0] in consonants:
                pool = [consonant + parts[1] for consonant in consonants]
        pools.append(pool)
    return set(itertools.product(*pools)) - {tuple(letters)}


def split_pairs(letters: tuple) -> list[tuple[tuple, tuple, str]]:
    """Every (left, right, kind) split of a word: the plain ones, then the ottru ones.

    A plain split cuts between two letters.  An ottru split cuts inside a
    consonant-vowel letter: its consonant with a pulli closes the left
    half, and its vowel as an uyir letter (அ for a bare consonant) opens
    the right.  Each kind runs left to right.
    """
    plain = [(letters[:i], letters[i:], "plain") for i in range(1, len(letters))]
    ottru = []
    for i, letter in enumerate(letters):
        parts = _consonant_and_sign(letter)
        if parts:
            mei, uyir = parts[0] + PULLI, SIGN_TO_UYIR.get(parts[1], "அ")
            ottru.append((letters[:i] + (mei,), (uyir,) + letters[i + 1 :], "ottru"))
    return plain + ottru


# The checker's merge priorities: a smaller number outranks a larger one.
CONJOINED, MAYANGOLI, KEYBOARD, EDIT = range(4)


def reference_ranking(word: str, words, matrix, ed: int) -> list[tuple[int, int, str]]:
    """Every candidate's rank key (distance, priority, text), smallest first.

    The candidates are the lexicon words within ``ed`` edits of ``word``
    (EDIT), the ``substitution_lattice`` words over ``matrix``'s
    alternates with at most ``ed`` substitutions (KEYBOARD), the
    ``series_variants`` words at any distance (MAYANGOLI), and the
    ``split_pairs`` whose halves are both words, as "left right" at
    distance 0 (CONJOINED).  A candidate several strategies propose keeps
    its highest-priority key.  Distances come from ``capped_distance``:
    ``bfs_edit_distance`` explores whole-word states, too many at ed 3-4.
    """
    letters = tuple(lt.text for lt in reference_tokenize(word))
    lexicon = {tuple(lt.text for lt in reference_tokenize(w)) for w in words}
    keys: dict[str, tuple[int, int, str]] = {}

    def distance(t: tuple, limit: int) -> int | None:
        return capped_distance(t, letters, [limit] * (len(letters) + 1))

    def propose(text: str, d: int, priority: int) -> None:
        keys[text] = min(keys.get(text, (d, priority, text)), (d, priority, text))

    for t in lexicon:
        d = distance(t, ed)
        if d:
            propose("".join(t), d, EDIT)
    alternates = [matrix.alternates_for(lt) for lt in letters]
    for t in lexicon.intersection(substitution_lattice(letters, alternates, ed)):
        propose("".join(t), distance(t, ed), KEYBOARD)
    for t in lexicon.intersection(series_variants(letters)):
        propose("".join(t), distance(t, len(letters)), MAYANGOLI)
    for left, right, _ in split_pairs(letters):
        if left in lexicon and right in lexicon:
            propose("".join(left) + " " + "".join(right), 0, CONJOINED)
    return sorted(keys.values())
