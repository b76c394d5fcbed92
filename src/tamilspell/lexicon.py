"""Immutable lexicon keyed by Tamil letters.

A :class:`Lexicon` is built once from all its words and never changes.
It keeps three structures:

* a ``frozenset`` of the NFC words, which answers membership
  (:meth:`Lexicon.is_word`, ``in``, ``len``) with one hash lookup and no
  letter split, and lists the words (:meth:`Lexicon.words`, in no
  particular order);
* a trie over whole letters, so that prefix walks line up with the
  letter-level edit operations;
* a trie over the words' letters in reverse order, which
  :meth:`Lexicon.within_distance` walks for its backward half.  The
  constructor keeps only the code keys it is built from (about 8 bytes a
  word); the first walk that needs it builds it, so a lexicon that is only
  probed never pays for it.  Two threads may build it at once: the builds
  are equal and either one is kept, so the race is harmless and no lock is
  taken.

Correction candidates come out of the tries by walking them:
:meth:`Lexicon.within_distance` gives every word within an edit distance,
with that distance, and :meth:`Lexicon.substitutions` gives the words that
swap letters for per-position alternates (confusable series, keyboard
neighbours).  The tries' layout is private to this module.  It is flat, in
the spirit of Daciuk et al. 2000: each distinct letter is coded as one
character, and nodes are numbered breadth-first, so that the child along
edge ``e`` is node ``e + 1``.  One string holds every edge's letter code,
sorted within each node; per node, an ``array('I')`` holds the offset of
its first edge (its edges run to the next node's offset) and a byte
string marks where words end.
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

# Letter codes are the characters between these two.  The first separates
# the code keys kept for the reversed trie; the last codes a query letter
# the lexicon lacks: it labels no edge.
_SEP = "\0"
_MAX_LETTERS = sys.maxunicode - 1
_NO_LETTER = chr(sys.maxunicode)


class _Codes(dict):
    """Letter text -> one-character code, assigned on first sight."""

    def __missing__(self, letter: str) -> str:
        if len(self) >= _MAX_LETTERS:
            raise WordListError(f"more than {_MAX_LETTERS} distinct letters")
        code = self[letter] = chr(len(self) + 1)
        return code


def _build_trie(keys: list[str]) -> tuple[array, str, bytes]:
    """The edge offsets, edge labels and word ends of the code ``keys``.

    Each key is a non-empty string of letter codes, one per letter.
    Sorted, the keys meet every depth's nodes in breadth-first order: a key
    adds one node per letter after its common prefix with the key before
    it, and a word ends at its last node.  ``keys`` is sorted in place.
    """
    keys.sort()
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
    first = array("I")
    edges = 0  # edges into depths 1..d, so the first edge into depth d + 1
    for d, level in enumerate(starts):
        first.extend([edges + s for s in level])
        edges += len(labels[d])
    first.append(edges)
    return first, "".join(["".join(level) for level in labels]), b"".join(ends)


class Lexicon:
    """A fixed set of words with letter-wise prefix queries and walks."""

    def __init__(self, words: Iterable[str] = ()):
        self._words = frozenset(filter(None, map(_nfc, words)))
        codes = _Codes()
        code = codes.__getitem__
        keys = ["".join(map(code, letter_texts(w))) for w in self._words]
        self._forward = _build_trie(keys)
        # The reversed trie, or until a walk needs it, the code keys it is
        # built from: reversed as one string, they are the reversed keys.
        self._backward: tuple[array, str, bytes] | str = _SEP.join(keys)
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
        (first, labels, _), code = self._forward, self._code
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
        whole letters.  A query of m >= 2 * ``ed`` letters is searched by the
        forward-backward method (Mihov & Schulz 2004), as the union of two
        walks (:meth:`_walk`) that each cap the cost over part of the query:

        * the forward walk, in the trie, on the query, allows at most
          ``ed // 2`` over columns 0..b, where b = m // 2 and column j means
          the first j query letters are consumed;
        * the backward walk, in the reversed trie, on the reversed query,
          allows at most ``ceil(ed / 2) - 1`` over its columns below m - b,
          which are the query's columns after b.

        Every other column allows ``ed``.  Together they miss no word: take
        an alignment of cost at most ``ed``, and its cost at the last cell it
        visits in columns 0..b.  If that is at most ``ed // 2``, the forward
        walk lets it through.  Otherwise what it spends after that cell is at
        most ``ed - ed // 2 - 1``, and the backward walk, which counts from
        the other end, lets it through.  The split column b counts on the
        forward side only; capping it on both sides would lose words.  Each
        walk reports a word with the cost of its cheapest alignment within
        its caps, and the union keeps the smaller of the two, which is the
        distance.

        Neither walk fans out near its root the way one walk with the whole
        budget does.  A query shorter than 2 * ``ed`` has too little room for
        the caps to prune, so it takes one forward walk with every column
        at ``ed``.
        """
        query = tuple(letters)
        m = len(query)
        if ed < 1:
            return []
        if m < 2 * ed:
            return self._walk(self._forward, query, ed, [ed] * (m + 1), "".join)
        b = m // 2
        limit = [ed // 2] * (b + 1) + [ed] * (m - b)
        found = dict(self._walk(self._forward, query, ed, limit, "".join))
        backward = self._backward
        if isinstance(backward, str):
            keys = list(filter(None, backward[::-1].split(_SEP)))
            backward = self._backward = _build_trie(keys)
        limit = [(ed + 1) // 2 - 1] * (m - b) + [ed] * (b + 1)
        back = self._walk(backward, query[::-1], ed, limit, lambda path: "".join(reversed(path)))
        for word, distance in back:
            if distance < found.get(word, ed + 1):
                found[word] = distance
        return list(found.items())

    def _walk(
        self, trie, query: tuple[str, ...], ed: int, limit: list[int], spell
    ) -> list[tuple[str, int]]:
        """The words of ``trie`` that align with ``query`` within ``limit``.

        ``limit[j]`` caps an alignment's cost at every cell it visits in
        column j (the first j query letters consumed).  The limits never fall
        as j grows, and none exceeds ``ed``.  A word is found, with the
        cheapest cost of an alignment that keeps within the limits, when one
        exists.

        A depth-first walk carries one row of the distance table per trie
        node (Oflazer 1996), banded to |depth - column| <= ed: each cell
        holds the cheapest cost within the limits, or ed + 1 where there is
        none.  A Damerau transposition (Lowrance-Wagner: two letters swap
        places, and what lies between them is deleted or inserted) jumps over
        the rows between its two letters, and those rows must still be
        entered.  So each row also carries the transpositions open through
        it, as (column, the letter that closes it, its cost if that letter
        comes next); the cost grows by one per row passed.  A node is
        entered only while its row holds a cell or an open transposition
        within the limits.

        Only a child whose letter matches the query after a cell, opens a
        transposition or closes one can differ from its siblings, so all
        other children share one row per node (the observation behind
        Schulz & Mihov's Levenshtein automata).  A row is "wide" when a
        child of any letter keeps within the limits; otherwise only those
        letters are followed, and a node none of whose children has one is
        not entered.  ``spell`` joins a path's letters into the word.
        """
        first, labels, ends = trie
        letter_of = self._letter_of
        code = self._code
        # The rows compare letter codes; the path holds letters, which spell
        # the words found.
        q = tuple([code(letter, _NO_LETTER) for letter in query])
        m = len(q)
        cap = ed + 1
        # room[j]: a cell at column j below it keeps a child of any letter
        # within the limits, by a substitution (or at column m a deletion).
        room = limit[1:] + limit[-1:]
        # later[j]: (bound, q[j + d]) where a cell at column j, if at most
        # bound, lets a child of letter q[j + d] open a transposition (see
        # opens) although insertions from column j would pass a lower limit
        # before column j + d, so no cell of the row names that letter.
        later = []
        if limit[0] < ed:
            later = [
                [
                    (limit[j + d + 1] - d, q[j + d])
                    for d in range(1, ed + 1)
                    if j + d < m
                    and limit[j + d + 1] - d > min(limit[j + t] - t for t in range(1, d + 1))
                ]
                for j in range(m)
            ]

        where: dict[str, list[int]] = {}  # letter -> columns j with q[j - 1] == letter
        for j, letter in enumerate(q, 1):
            where.setdefault(letter, []).append(j)
        # opens[j]: for each transposition that a child whose letter
        # matches column j can open, (s, d, q[s]): it starts from the
        # parent's cell at column s, and q[s], which lies d - 1 query
        # letters before, is the letter that closes it.
        opens = [
            [(j - d - 1, d, q[j - d - 1]) for d in range(1, min(ed, j - 1) + 1)]
            for j in range(m + 1)
        ]
        path = [""] * (m + ed + 1)  # path[k - 1]: the letter at depth k

        # A state is (row, open transpositions, the letters that can keep a
        # child within the limits, wide); a node with nothing within the
        # limits has none.
        def step(
            letter: str | None, depth: int, parent: list[int], opened: list, parent_wide: bool
        ) -> tuple | None:
            # The child's state.  A match or a closing transposition seeds a
            # cell; when the parent is wide, every cell of the band also
            # tries a deletion, a substitution and an insertion.
            row = [cap] * (m + 1)
            nexts = set()
            wide = False
            pend = []
            seeds = []
            for j, closer, cost in opened:
                if closer == letter and cost < row[j]:
                    row[j] = cost
                    seeds.append(j)
                if cost < limit[j]:
                    pend.append((j, closer, cost + 1))
                    nexts.add(closer)
                    if cost + 1 < limit[j]:
                        wide = True
            for j in where.get(letter, ()):
                if parent[j - 1] < row[j]:
                    row[j] = parent[j - 1]
                    seeds.append(j)
                for s, d, closer in opens[j]:
                    cost = parent[s] + d
                    if cost <= limit[j]:
                        pend.append((j, closer, cost))
                        nexts.add(closer)
                        if cost < limit[j]:
                            wide = True
            if parent_wide:
                if depth <= limit[0]:
                    row[0] = depth
                    if depth < room[0]:
                        wide = True
                    if m:
                        nexts.add(q[0])
                lo = depth - ed if depth > ed else 1
                left = row[lo - 1]
                for j in range(lo, (depth + ed if depth + ed < m else m) + 1):
                    v = parent[j - 1] + 1
                    if row[j] < v:
                        v = row[j]
                    if parent[j] + 1 < v:
                        v = parent[j] + 1
                    if left + 1 < v:
                        v = left + 1
                    if v <= limit[j]:
                        row[j] = left = v
                        if v < room[j]:
                            wide = True
                        if j < m:
                            nexts.add(q[j])
                            if later:
                                for bound, x in later[j]:
                                    if v <= bound:
                                        nexts.add(x)
                    else:
                        left = cap
            else:
                # Each seed costs its column's limit, as the parent is not
                # wide, so an insertion after it stays within the limits
                # only where the limit steps up.
                for j in sorted(seeds):
                    v = row[j]
                    while True:
                        if v < room[j]:
                            wide = True
                        if j < m:
                            nexts.add(q[j])
                            if later:
                                for bound, x in later[j]:
                                    if v <= bound:
                                        nexts.add(x)
                        j += 1
                        v += 1
                        if j > m or v > limit[j] or row[j] <= v:
                            break
                        row[j] = v
            return (row, pend, nexts, wide) if nexts or row[m] < cap else None

        found: list[tuple[str, int]] = []

        def descend(e: int, x: str, depth: int, kid: tuple) -> None:
            # The child along edge ``e``, whose state is ``kid``: report it
            # if it is a word in range, and queue it if one of its children
            # can stay within the limits.
            r, _, r_nexts, r_wide = kid
            c = e + 1
            if 0 < r[m] <= ed and ends[c]:
                path[depth - 1] = letter_of[x]
                found.append((spell(path[:depth]), r[m]))
            lo = first[c]
            hi = first[c + 1]
            if lo < hi and (r_wide or not r_nexts.isdisjoint(labels[lo:hi])):
                stack.append((lo, hi, depth, x, kid))

        stack = [(first[0], first[1], 0, "", step(None, 0, [cap] * (m + 1), [], True))]
        while stack:
            lo, hi, depth, letter, (row, opened, nexts, wide) = stack.pop()
            if depth:
                path[depth - 1] = letter_of[letter]
            depth += 1
            if wide:
                shared = step(None, depth, row, opened, True)
                s_row, _, s_nexts, s_wide = shared
                s_dist = s_row[m] if s_row[m] <= ed else 0
                if s_wide or s_nexts or s_dist:
                    # Every child: the letters in nexts get their own row,
                    # the others share one.
                    for e, x in enumerate(labels[lo:hi], lo):
                        if x in nexts:
                            kid = step(x, depth, row, opened, True)
                            if kid is not None:
                                descend(e, x, depth, kid)
                            continue
                        c = e + 1
                        if s_dist and ends[c]:
                            path[depth - 1] = letter_of[x]
                            found.append((spell(path[:depth]), s_dist))
                        lo2 = first[c]
                        hi2 = first[c + 1]
                        if lo2 < hi2 and (s_wide or not s_nexts.isdisjoint(labels[lo2:hi2])):
                            stack.append((lo2, hi2, depth, x, shared))
                    continue
            for x in nexts:
                e = labels.find(x, lo, hi)
                if e >= 0:
                    kid = step(x, depth, row, opened, wide)
                    if kid is not None:
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
        (first, labels, ends), code = self._forward, self._code
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
