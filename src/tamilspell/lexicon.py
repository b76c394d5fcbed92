"""Immutable lexicon keyed by Tamil letters.

A :class:`Lexicon` is built once from all its words and never changes, so
concurrent readers need no locking.  It keeps two structures:

* a ``frozenset`` of the NFC words, which answers membership
  (:meth:`Lexicon.is_word`, ``in``, ``len``) with one hash lookup and no
  letter split, and lists the words (:meth:`Lexicon.words`, in no
  particular order);
* a trie over whole letters, so that prefix walks line up with the
  letter-level edit operations.

Correction candidates come out of the trie by walking it:
:meth:`Lexicon.within_distance` gives every word within an edit distance,
with that distance, and :meth:`Lexicon.substitutions` gives the words that
swap letters for per-position alternates (confusable series, keyboard
neighbours).  The trie's layout is private to this module.  It is flat, in
the spirit of Daciuk et al. 2000: each distinct letter is coded as one
character, and nodes are numbered breadth-first, so that the child along
edge ``e`` is node ``e + 1``.  One string holds every edge's letter code,
sorted within each node; per node, a list holds the offset of its first
edge (its edges run to the next node's offset) and a byte string marks
where words end.
"""

from __future__ import annotations

import sys
import unicodedata
from array import array
from collections.abc import Iterable, Iterator, Sequence
from functools import partial

from .errors import WordListError, _data_lines
from .letters import letter_texts

__all__ = ["Lexicon", "load_wordlist"]

_nfc = partial(unicodedata.normalize, "NFC")

# Letter codes are the characters below this one, which codes a query
# letter the lexicon lacks: it labels no edge.
_MAX_LETTERS = sys.maxunicode
_NO_LETTER = chr(_MAX_LETTERS)


class _Codes(dict):
    """Letter text -> one-character code, assigned on first sight."""

    def __missing__(self, letter: str) -> str:
        if len(self) >= _MAX_LETTERS:
            raise WordListError(f"more than {_MAX_LETTERS} distinct letters")
        code = self[letter] = chr(len(self))
        return code


def _build_trie(words: Iterable[str]) -> tuple[dict[str, str], list[int], str, bytes]:
    """The letter codes, edge offsets, edge labels and word ends of ``words``.

    ``words`` are NFC and non-empty.  Each becomes a key string of letter
    codes.  Sorted, the keys meet every depth's nodes in breadth-first
    order: a key adds one node per letter after its common prefix with the
    key before it, and a word ends at its last node.
    """
    codes = _Codes()
    code = codes.__getitem__
    keys = sorted(["".join(map(code, letter_texts(word))) for word in words])
    # labels[d]: the codes of the depth d + 1 nodes.  Per depth-d node,
    # starts[d] says where its children start in labels[d], and ends[d]
    # holds 1 when a word ends there.
    labels: list[list[str]] = [[]]
    starts = [array("I", [0])]
    ends = [bytearray(1)]
    prev = ""
    for key in keys:
        n = len(key)
        i = 0
        limit = min(n, len(prev))
        while i < limit and key[i] == prev[i]:
            i += 1
        while len(labels) <= n:
            labels.append([])
            starts.append(array("I"))
            ends.append(bytearray())
        for d in range(i, n):
            labels[d].append(key[d])
            starts[d + 1].append(len(labels[d + 1]))
            ends[d + 1].append(0)
        ends[n][-1] = 1
        prev = key
    del keys
    first: list[int] = []
    edges = 0  # edges into depths 1..d, so the first edge into depth d + 1
    for d, level in enumerate(starts):
        first.extend([edges + s for s in level])
        edges += len(labels[d])
    first.append(edges)
    return (
        codes,
        first,
        "".join(["".join(level) for level in labels]),
        b"".join(ends),
    )


class Lexicon:
    """A fixed set of words with letter-wise prefix queries and walks."""

    def __init__(self, words: Iterable[str] = ()):
        self._words = frozenset(filter(None, map(_nfc, words)))
        codes, self._first, self._labels, self._ends = _build_trie(self._words)
        self._code = codes.get
        self._letter_of = {c: letter for letter, c in codes.items()}

    def __len__(self) -> int:
        return len(self._words)

    def __contains__(self, word: object) -> bool:
        return isinstance(word, str) and self.is_word(word)

    def words(self) -> Iterator[str]:
        """Every loaded word, once each, in no particular order."""
        return iter(self._words)

    def is_word(self, word: str) -> bool:
        """True when ``word`` (a string) was loaded into the lexicon."""
        return _nfc(word) in self._words

    def contains_letters(self, letters: Sequence[str]) -> bool:
        """True when ``letters`` is exactly the letter split of a loaded word."""
        text = "".join(letters)
        return text in self._words and letter_texts(text) == tuple(letters)

    def prefix_exists(self, prefix) -> bool:
        """True when at least one loaded word starts with ``prefix``.

        Accepts a string or a letter sequence.  The empty prefix exists
        exactly when the lexicon is non-empty.
        """
        if isinstance(prefix, str):
            letters = letter_texts(_nfc(prefix))
        else:
            letters = letter_texts(prefix)
        if not letters:
            return bool(self._words)
        first, labels, code = self._first, self._labels, self._code
        node = 0
        for letter in letters:
            e = labels.find(code(letter, _NO_LETTER), first[node], first[node + 1])
            if e < 0:
                return False
            node = e + 1
        return True

    def within_distance(self, letters: Sequence[str], ed: int) -> list[tuple[str, int]]:
        """Every word at distance 1..``ed`` from ``letters``, with that distance.

        The distance is the unrestricted Damerau-Levenshtein distance on
        whole letters.  A depth-first walk carries one row of the distance
        table per trie node (Oflazer 1996), banded to |depth - column| <= ed
        and capped at ed + 1, and leaves a subtree once no entry is within
        ``ed``.  A row is "live" at the columns within ``ed``; only a child
        whose letter is the query letter after a live column can differ from
        its siblings, so all other children share one row per node (the
        observation behind Schulz & Mihov's Levenshtein automata).  Once a
        row's minimum is ``ed`` only those letters can stay in range, so only
        they are followed, and a node none of whose children can is not
        entered.
        """
        code = self._code
        query = tuple(letters)
        # The rows compare letter codes; the path holds letters, which spell
        # the words found and locate transpositions.
        q = tuple([code(letter, _NO_LETTER) for letter in query])
        m = len(q)
        cap = ed + 1
        where: dict[str, list[int]] = {}  # letter -> columns j with q[j - 1] == letter
        for j, letter in enumerate(q, 1):
            where.setdefault(letter, []).append(j)
        path = [""] * (m + ed + 1)  # path[k - 1]: the letter at depth k
        rows: list = [None] * (m + ed + 2)  # rows[k]: the row at depth k

        def transposed(y: str, depth: int, col: int, gap: int) -> int:
            # Lowrance-Wagner: swap the path's last y (at depth k) with the
            # query letter at ``col``, deleting and inserting what lies
            # between.  A y more than ``ed`` levels up costs more than ``ed``.
            for k in range(depth - 1, max(depth - ed, 1) - 1, -1):
                if path[k - 1] == y:
                    return rows[k - 1][col - 1] + depth - k + gap
            return cap

        # A state is (row, minimum of the row, letters after its live columns).
        def full_row(letter: str | None, depth: int, parent: list[int]) -> tuple:
            row = [cap] * (m + 1)
            nexts = set()
            low = cap
            if depth <= ed:
                row[0] = low = depth
                if m:
                    nexts.add(q[0])
            lo = depth - ed if depth > ed else 1
            left = row[lo - 1]
            matched = 0  # last column before j whose query letter is ``letter``
            for j in range(lo, (depth + ed if depth + ed < m else m) + 1):
                y = q[j - 1]
                v = parent[j - 1] if y == letter else parent[j - 1] + 1
                if parent[j] + 1 < v:
                    v = parent[j] + 1
                if left + 1 < v:
                    v = left + 1
                if matched and j - matched <= ed:
                    t = transposed(query[j - 1], depth, matched, j - matched - 1)
                    if t < v:
                        v = t
                if y == letter:
                    matched = j
                if v <= ed:
                    if v < low:
                        low = v
                    if j < m:
                        nexts.add(q[j])
                    row[j] = left = v
                else:
                    left = cap
            return row, low, nexts

        def sparse_row(letter: str, depth: int, parent: list[int]) -> tuple:
            # The parent's minimum is ed, so an entry can stay within ed only
            # where ``letter`` matches the query, or one column on, where a
            # transposition closes; either entry is then exactly ed.
            row = [cap] * (m + 1)
            nexts = set()
            for j in where[letter]:
                if parent[j - 1] <= ed:
                    row[j] = ed
                    if j < m:
                        nexts.add(q[j])
                if j < m and transposed(query[j], depth, j, 0) <= ed:
                    row[j + 1] = ed
                    if j + 1 < m:
                        nexts.add(q[j + 1])
            return row, ed if nexts or row[m] == ed else cap, nexts

        first, labels, ends, letter_of = self._first, self._labels, self._ends, self._letter_of
        found: list[tuple[str, int]] = []

        def descend(e: int, x: str, depth: int, kid: tuple) -> None:
            # The child along edge ``e``, whose row ``kid`` is within ed:
            # report it if it is a word in range, and queue it if one of its
            # children can stay in range.
            r, r_low, r_nexts = kid
            c = e + 1
            if 0 < r[m] <= ed and ends[c]:
                found.append(("".join(path[: depth - 1]) + letter_of[x], r[m]))
            lo = first[c]
            hi = first[c + 1]
            if lo < hi and (r_low < ed or not r_nexts.isdisjoint(labels[lo:hi])):
                stack.append((lo, hi, depth, x, kid))

        root = [min(j, cap) for j in range(m + 1)]
        stack = [(first[0], first[1], 0, "", (root, 0, {q[j] for j in range(min(m, cap))}))]
        while stack:
            lo, hi, depth, letter, (row, low, nexts) = stack.pop()
            rows[depth] = row
            if depth:
                path[depth - 1] = letter_of[letter]
            depth += 1
            if low < ed:
                shared = full_row(None, depth, row)
                s_row, s_low, s_nexts = shared
                s_dist = s_row[m] if s_row[m] <= ed else 0
                if s_low < ed or s_nexts or s_dist:
                    # Every child: the query's letters get their own row,
                    # the others share one.
                    for e, x in enumerate(labels[lo:hi], lo):
                        if x in nexts:
                            kid = full_row(x, depth, row)
                            if kid[1] <= ed:
                                descend(e, x, depth, kid)
                            continue
                        c = e + 1
                        if s_dist and ends[c]:
                            found.append(("".join(path[: depth - 1]) + letter_of[x], s_dist))
                        lo2 = first[c]
                        hi2 = first[c + 1]
                        if lo2 < hi2 and (s_low < ed or not s_nexts.isdisjoint(labels[lo2:hi2])):
                            stack.append((lo2, hi2, depth, x, shared))
                    continue
            for x in nexts:
                e = labels.find(x, lo, hi)
                if e >= 0:
                    kid = full_row(x, depth, row) if low < ed else sparse_row(x, depth, row)
                    if kid[1] <= ed:
                        descend(e, x, depth, kid)
        return found

    def substitutions(
        self, letters: Sequence[str], alternates: Sequence[Sequence[str]], budget: int
    ) -> list[tuple[str, int]]:
        """Words that replace 1..``budget`` positions of ``letters``, with the count.

        ``alternates[p]`` lists the letters allowed in place of
        ``letters[p]``, the letter itself excluded.  Only paths that spell a
        lexicon prefix are followed, so the work is bounded by the lexicon,
        not by the product of the alternates.
        """
        n = len(letters)
        first, labels, ends, code = self._first, self._labels, self._ends, self._code
        path = [""] * n
        found: list[tuple[str, int]] = []
        stack = [(0, 0, "", 0)]
        while stack:
            node, p, letter, changes = stack.pop()
            if p:
                path[p - 1] = letter
            if p == n:
                if ends[node] and changes:
                    found.append(("".join(path), changes))
                continue
            lo = first[node]
            hi = first[node + 1]
            e = labels.find(code(letters[p], _NO_LETTER), lo, hi)
            if e >= 0:
                stack.append((e + 1, p + 1, letters[p], changes))
            if changes < budget:
                for alt in alternates[p]:
                    e = labels.find(code(alt, _NO_LETTER), lo, hi)
                    if e >= 0:
                        stack.append((e + 1, p + 1, alt, changes + 1))
        return found


def load_wordlist(*sources) -> Lexicon:
    """Build one :class:`Lexicon` from one or more UTF-8 word lists.

    One word per line; blank lines and lines starting with ``#`` are
    skipped, and a word listed more than once, in one source or several,
    is loaded once.  Each source may be a path or an open text/binary
    stream.  Undecodable bytes raise :class:`WordListError` with the
    source's name and the offending line number.
    """
    return Lexicon(
        line.strip() for source in sources for _, _, line in _data_lines(source, WordListError)
    )
