"""Trie-backed lexicon keyed by Tamil letters.

Nodes branch on whole letters rather than code points, so membership and
prefix walks line up with the letter-level edit operations.  Correction
candidates come out of the trie by walking it, so the node layout stays
private to this module: :meth:`Lexicon.within_distance` gives every word
within an edit distance, with that distance, and
:meth:`Lexicon.substitutions` gives the words that swap letters for
per-position alternates (confusable series, keyboard neighbours).  The
structure is immutable after loading; concurrent readers need no locking.
"""

from __future__ import annotations

import unicodedata
from collections.abc import Iterable, Sequence
from pathlib import Path

from .errors import WordListError
from .letters import letter_texts

__all__ = ["Lexicon", "load_wordlist"]


class _Node:
    __slots__ = ("children", "is_word")

    def __init__(self):
        self.children: dict[str, _Node] = {}
        self.is_word = False


class Lexicon:
    """A set of words with letter-wise prefix queries."""

    def __init__(self, words: Iterable[str] = ()):
        self._root = _Node()
        self._count = 0
        for word in words:
            self.add_word(word)

    def __len__(self) -> int:
        return self._count

    def __contains__(self, word: object) -> bool:
        return isinstance(word, str) and self.is_word(word)

    def add_word(self, word: str) -> bool:
        """Insert one word; returns False when it was already present."""
        letters = letter_texts(unicodedata.normalize("NFC", word))
        if not letters:
            return False
        node = self._root
        for letter in letters:
            node = node.children.setdefault(letter, _Node())
        if node.is_word:
            return False
        node.is_word = True
        self._count += 1
        return True

    def _walk(self, letters: Sequence[str]) -> _Node | None:
        node = self._root
        for letter in letters:
            node = node.children.get(letter)
            if node is None:
                return None
        return node

    def contains_letters(self, letters: Sequence[str]) -> bool:
        """Membership check for an already-tokenized letter sequence."""
        if not letters:
            return False
        node = self._walk(letters)
        return node is not None and node.is_word

    def words(self) -> Iterable[str]:
        """Yield every loaded word (trie order, not sorted)."""
        stack: list[tuple[str, _Node]] = [("", self._root)]
        while stack:
            prefix, node = stack.pop()
            if node.is_word:
                yield prefix
            for letter, child in node.children.items():
                stack.append((prefix + letter, child))

    def is_word(self, word: str) -> bool:
        """True when ``word`` (a string) was loaded into the lexicon."""
        return self.contains_letters(letter_texts(unicodedata.normalize("NFC", word)))

    def prefix_exists(self, prefix) -> bool:
        """True when at least one loaded word starts with ``prefix``.

        Accepts a string or a letter sequence.  The empty prefix exists
        exactly when the lexicon is non-empty.
        """
        if isinstance(prefix, str):
            letters = letter_texts(unicodedata.normalize("NFC", prefix))
        else:
            letters = letter_texts(prefix)
        if not letters:
            return self._count > 0
        return self._walk(letters) is not None

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
        q = tuple(letters)
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
            lo = max(1, depth - ed)
            left = row[lo - 1]
            matched = 0  # last column before j whose query letter is ``letter``
            for j in range(lo, min(m, depth + ed) + 1):
                y = q[j - 1]
                v = parent[j - 1] if y == letter else parent[j - 1] + 1
                if parent[j] + 1 < v:
                    v = parent[j] + 1
                if left + 1 < v:
                    v = left + 1
                if matched and j - matched <= ed:
                    t = transposed(y, depth, matched, j - matched - 1)
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
                if j < m and transposed(q[j], depth, j, 0) <= ed:
                    row[j + 1] = ed
                    if j + 1 < m:
                        nexts.add(q[j + 1])
            return row, ed if nexts or row[m] == ed else cap, nexts

        found: list[tuple[str, int]] = []
        root = [min(j, cap) for j in range(m + 1)]
        stack = [(self._root, 0, "", (root, 0, {q[j] for j in range(min(m, cap))}))]
        while stack:
            node, depth, letter, (row, low, nexts) = stack.pop()
            rows[depth] = row
            if depth:
                path[depth - 1] = letter
            children = node.children
            depth += 1
            for x in nexts:
                child = children.get(x)
                if child is None:
                    continue
                kid = full_row(x, depth, row) if low < ed else sparse_row(x, depth, row)
                r, r_low, r_nexts = kid
                if r_low > ed:
                    continue
                if child.is_word and 0 < r[m] <= ed:
                    found.append(("".join(path[: depth - 1]) + x, r[m]))
                grandkids = child.children
                if r_low < ed:
                    if grandkids:
                        stack.append((child, depth, x, kid))
                    continue
                for y in r_nexts:
                    if y in grandkids:
                        stack.append((child, depth, x, kid))
                        break
            if low == ed:
                continue
            kid = full_row(None, depth, row)
            r, r_low, r_nexts = kid
            if r_low > ed:
                continue
            word_dist = r[m] if r[m] <= ed else 0
            for x, child in children.items():
                if x in nexts:
                    continue
                if word_dist and child.is_word:
                    found.append(("".join(path[: depth - 1]) + x, word_dist))
                grandkids = child.children
                if r_low < ed:
                    if grandkids:
                        stack.append((child, depth, x, kid))
                    continue
                for y in r_nexts:
                    if y in grandkids:
                        stack.append((child, depth, x, kid))
                        break
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
        path = [""] * n
        found: list[tuple[str, int]] = []
        stack = [(self._root, 0, "", 0)]
        while stack:
            node, p, letter, changes = stack.pop()
            if p:
                path[p - 1] = letter
            if p == n:
                if node.is_word and changes:
                    found.append(("".join(path), changes))
                continue
            children = node.children
            child = children.get(letters[p])
            if child is not None:
                stack.append((child, p + 1, letters[p], changes))
            if changes < budget:
                for alt in alternates[p]:
                    child = children.get(alt)
                    if child is not None:
                        stack.append((child, p + 1, alt, changes + 1))
        return found


def load_wordlist(source, into: Lexicon | None = None) -> Lexicon:
    """Build a :class:`Lexicon` from a UTF-8 word list.

    One word per line; blank lines and lines starting with ``#`` are
    skipped, duplicates are ignored.  ``source`` may be a path or an open
    text/binary stream.  Undecodable bytes raise :class:`WordListError`
    with the offending line number.  Passing ``into`` merges the words
    into an existing lexicon instead of building a fresh one.
    """
    if isinstance(source, (str, Path)):
        with open(source, "rb") as fh:
            return _load_lines(fh, name=str(source), into=into)
    return _load_lines(source, name=getattr(source, "name", "<stream>"), into=into)


def _load_lines(stream, name: str, into: Lexicon | None) -> Lexicon:
    lexicon = into if into is not None else Lexicon()
    for lineno, raw in enumerate(stream, start=1):
        if isinstance(raw, bytes):
            try:
                line = raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise WordListError(f"{name}:{lineno}: undecodable bytes: {exc}") from exc
        else:
            line = raw
        word = line.strip()
        if not word or word.startswith("#"):
            continue
        lexicon.add_word(word)
    return lexicon
