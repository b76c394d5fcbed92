"""Immutable lexicon keyed by Tamil letters.

A :class:`Lexicon` is built once from all its words and never changes.
It keeps three structures:

* a ``frozenset`` of the NFC words, which answers membership
  (:meth:`Lexicon.holds`, :meth:`Lexicon.is_word`, ``in``, ``len``) with
  one hash lookup and no letter split, and lists the words
  (:meth:`Lexicon.words`, in no particular order);
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
:meth:`Lexicon.within_distance` maps every word within an edit distance to
that distance, :meth:`Lexicon.first_at_distance` gives only the few
text-smallest words at one distance, and :meth:`Lexicon.substitutions` gives
the words that swap letters for per-position alternates (confusable series,
keyboard neighbours).  The walks and :meth:`Lexicon.contains_letters` take a
word's ``letter_texts`` and raise ``TypeError`` for its text or ``Letter``
objects.  The tries' layout is private to this module.  It is flat, in the
spirit of Daciuk et al. 2000: each distinct letter is coded as one
character, in load order, and nodes are numbered breadth-first, so that the
child along edge ``e`` is node ``e + 1``.  One string holds every edge's
letter code, sorted within each node; per node, an ``array('I')`` holds the
offset of its first edge (its edges run to the next node's offset) and a
byte string marks where words end.
"""

from __future__ import annotations

import sys
import unicodedata
from array import array
from bisect import bisect_right, insort
from collections.abc import Container, Iterable, Iterator, Sequence
from functools import partial

from .errors import WordListError, _check_letters, _listed_words
from .letters import _known_nfc, letter_texts

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


def _build_trie(keys: list[str], longest: int) -> tuple[array, str, bytes]:
    """The edge offsets, edge labels and word ends of the code ``keys``.

    Each key is a non-empty string of letter codes, one per letter, and
    none is longer than ``longest``.
    Sorted, the keys meet every depth's nodes in breadth-first order: a key
    adds one node per letter after its common prefix with the key before
    it, and a word ends at its last node.  ``keys`` is sorted in place.
    """
    keys.sort()
    # labels[d]: the codes of the depth d + 1 nodes.  Per depth-d node,
    # starts[d] says where its children start in labels[d], and ends[d]
    # holds 1 when a word ends there.  No node is deeper than ``longest``.
    labels: list[list[str]] = [[] for _ in range(longest + 1)]
    starts = [array("I", [0])] + [array("I") for _ in range(longest)]
    ends = [bytearray(1)] + [bytearray() for _ in range(longest)]
    prev = ""
    for key in keys:
        n = len(key)
        i = 0
        limit = min(n, len(prev))
        while i < limit and key[i] == prev[i]:
            i += 1
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


class _Smallest(dict):
    """The ``count`` text-smallest words reported to it that ``exclude`` lacks.

    A walk reports into it as into its dict of word -> cost.  A kept word
    maps to 0, so it is not reported twice.  ``order`` lists the kept words
    in text order, and ``last`` is the largest of them once ``count`` are
    kept, None before: no word after it can be kept any more.
    """

    def __init__(self, count: int, exclude: Container[str]):
        super().__init__()
        self.count = count
        self.exclude = exclude
        self.order: list[str] = []
        self.last: str | None = None

    def __setitem__(self, word: str, cost: int) -> None:
        if word in self.exclude or (self.last is not None and word > self.last):
            return
        insort(self.order, word)
        super().__setitem__(word, 0)
        if len(self.order) > self.count:
            del self[self.order.pop()]
        if len(self.order) == self.count:
            self.last = self.order[-1]


class Lexicon:
    """A fixed set of words with letter-wise membership and walks.

    :meth:`within_distance` lists every word within an edit distance, and
    :meth:`first_at_distance` only the few text-smallest words at one
    distance.  The second walk can stop early: every word below a trie
    node starts with the node's prefix text, so it sorts after it, and a
    node whose prefix sorts after the last word kept holds none that could
    be kept.  That compares text, not letter codes, so it holds whatever
    order the codes were given in.  The walks and :meth:`contains_letters`
    take a word's ``letter_texts`` and raise ``TypeError`` otherwise.

    The words are held in NFC.  They are deduplicated as given and joined
    once, and only a word list whose join NFC could change is normalized,
    word by word, and deduplicated again (``letters._known_nfc`` says when
    NFC leaves a text as it is).  The first spelling of each word sets its
    place either way, so the letter codes and both tries are the same as
    when every word is normalized.  Empty words are dropped.

    ``longest`` is the letter count of the longest word, 0 when empty.
    """

    def __init__(self, words: Iterable[str] = ()):
        if isinstance(words, str):
            raise TypeError("words must be a collection of words, not one text")
        loaded = dict.fromkeys(words)
        if not _known_nfc("\n".join(loaded)):
            loaded = dict.fromkeys(map(_nfc, loaded))
        loaded.pop("", None)
        self._words = frozenset(loaded)  # a large dict answers `in` slower
        codes = _Codes()
        code = codes.__getitem__
        keys = ["".join(map(code, letter_texts(w))) for w in loaded]
        del loaded  # freed before the trie build, where memory peaks
        # Each code key has one code per letter.
        self.longest = max(map(len, keys), default=0)
        self._forward = _build_trie(keys, self.longest)
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

    def holds(self, word: str) -> bool:
        """True when ``word`` is a loaded word exactly as given, by one set probe.

        Every word is NFC-normalized as it is loaded, so a hit means
        ``word`` is NFC already; a miss says nothing about another
        spelling of it (see :meth:`is_word`).
        """
        return word in self._words

    def is_word(self, word: str) -> bool:
        """True when ``word`` (a string) was loaded: a loaded word is NFC and
        takes one lookup, and only input the lexicon lacks is normalized."""
        return word in self._words or _nfc(word) in self._words

    def contains_letters(self, letters: Sequence[str]) -> bool:
        """True when ``letters`` is exactly the letter split of a loaded word."""
        _check_letters(letters)
        text = "".join(letters)
        return text in self._words and letter_texts(text) == tuple(letters)

    def within_distance(self, letters: Sequence[str], ed: int) -> dict[str, int]:
        """Every word at distance 1..``ed`` from ``letters``, mapped to that distance.

        The distance is the unrestricted Damerau-Levenshtein distance on
        whole letters.  A query of m > ``ed`` letters is searched by the
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
        its caps; both write into one dict, which keeps the smaller of the
        two, the distance.  The argument holds for every m >= 1.

        Neither walk fans out near its root the way one walk with the whole
        budget does.  Where splitting starts is a speed choice, measured per
        query length on a 263-word and a 200,000-word lexicon: at m <= ``ed``
        the two capped walks cost 1.5 to 1.8 times one walk, and from
        m = ``ed`` + 1 they cost about as much or less (a third, at ``ed`` 3
        and m = 5).  So a query of at most ``ed`` letters takes one forward
        walk with every column at ``ed``.
        """
        _check_letters(letters)
        found: dict[str, int] = {}
        self._search(tuple(letters), ed, found)
        return found

    def first_at_distance(
        self, letters: Sequence[str], ed: int, count: int, exclude: Container[str]
    ) -> list[str]:
        """The ``count`` text-smallest words at distance ``ed`` that ``exclude`` lacks, sorted.

        ``exclude`` must hold every word within ``ed - 1`` of ``letters``;
        then a word the walks report within ``ed`` is at distance exactly
        ``ed`` unless ``exclude`` holds it.  The search is the one of
        :meth:`within_distance`, with its backward half, when there is one,
        run first and in full.  Once ``count`` words are kept, the forward
        walk skips every node whose prefix text sorts at or after the last
        kept word: every word below the node starts with that prefix, so it
        sorts after it, and its nearer words are already in ``exclude``.
        That holds for any order of the letter codes, since it compares the
        text itself.
        """
        _check_letters(letters)
        query = tuple(letters)
        if count < 1 or ed > max(len(query), self.longest):
            return []
        kept = _Smallest(count, exclude)
        self._search(query, ed, kept)
        return kept.order

    def _search(self, query: tuple[str, ...], ed: int, found: dict) -> None:
        """Put the words within ``ed`` of ``query`` in ``found``, as :meth:`within_distance` does.

        No word is farther from the query than max(m, ``longest``) letters,
        so a larger ``ed`` is lowered to that: the walks' work and memory
        then depend on the query and the lexicon alone.  When ``found`` is
        a :class:`_Smallest`, it bounds the forward walk (see :meth:`_walk`).
        """
        m = len(query)
        ed = min(ed, max(m, self.longest))
        if ed < 1:
            return
        if m <= ed:
            self._walk(self._forward, query, [ed] * (m + 1), found)
            return
        b = m // 2
        backward = self._backward
        if isinstance(backward, str):
            keys = list(filter(None, backward[::-1].split(_SEP)))
            backward = self._backward = _build_trie(keys, self.longest)
        limit = [(ed + 1) // 2 - 1] * (m - b) + [ed] * (b + 1)
        self._walk(backward, query[::-1], limit, found)
        limit = [ed // 2] * (b + 1) + [ed] * (m - b)
        self._walk(self._forward, query, limit, found)

    def _walk(self, trie, query: tuple[str, ...], limit: list[int], found: dict[str, int]) -> None:
        """Put the words of ``trie`` that align with ``query`` within ``limit`` in ``found``.

        ``limit[j]`` caps an alignment's cost at every cell it visits in
        column j (the first j query letters consumed).  The limits never fall
        as j grows, so the last, ``ed = limit[-1]``, is the most any cell
        may cost.  A word is found, with the cheapest cost of an alignment
        that keeps within the limits, when one exists; a word already in
        ``found`` keeps the smaller cost.

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
        not entered.

        Every step runs one rule over the band: a cell takes the cheapest of
        its diagonal (free for a match), a deletion, an insertion and a
        transposition closing there.  Below a parent that is not wide, whose
        cells at column j cost at least ``limit[j + 1]``, only matches, closing
        transpositions and their insertions keep within the limits.  A cell
        (j, v) opens a transposition for a child of letter ``q[j + d]`` at cost
        v + d, held to ``limit[j + d + 1]``, so the step names that letter.
        Where the insertions from (j, v) reach column j + d, the cell there
        names it too; only where a capped walk's lower limit cuts them short is
        the letter new, and without it that walk misses words.

        A node's state (its row, open transpositions, the letters worth
        following and whether it is wide) is a pure function of its parent's
        state and its own letter, and a shared state is carried by many
        nodes.  So each state carries its transitions: the child state along
        each letter, and the one its non-matching children share, is
        computed once and looked up for every other node that carries the
        state.  The walk thus builds the query's Levenshtein automaton
        lazily, only where the trie goes, and drops it when the walk ends.

        Below a wide node whose shared state is not wide, most children
        lead nowhere: only those with a child along a letter the shared
        state follows do.  So the walk does not visit those children one by
        one.  Nodes are numbered breadth-first, so the children of a node
        with edges lo..hi - 1 are the nodes lo + 1..hi, and their own edges
        are the one run ``first[lo + 1]`` to ``first[hi + 1]`` of the edge
        labels.  The walk scans that band for each letter the shared state
        follows and enters the grandchildren it finds directly, with their
        state from the shared state's transitions.  Below any wide node, the
        shared children that end words are found by scanning their word
        ends.

        Each node queued carries its text, so a word found is that text.
        The walk is backward exactly when ``trie`` is the reversed trie: a
        child's letter then goes before its parent's text, and a word reads
        in its own order.  A forward walk into a :class:`_Smallest` skips,
        once it is full, a node whose text sorts at or after its ``last``
        word: every word below the node starts with that text, so none
        could be kept.
        """
        first, labels, ends = trie
        letter_of = self._letter_of
        forward = trie is self._forward
        prune = forward and isinstance(found, _Smallest)
        # The rows compare letter codes; the nodes' texts join letters.
        q = tuple([self._code(letter, _NO_LETTER) for letter in query] + [_NO_LETTER])
        m = len(query)
        ed = limit[-1]
        cap = ed + 1
        # room[j]: a cell at column j below it keeps a child of any letter
        # within the limits, by a substitution (or at column m a deletion).
        room = limit[1:] + limit[-1:]

        # A state is (row, pend, nexts, wide, kids): the row, the open
        # transpositions as (column, closing letter, cost if it comes next),
        # the letters worth following, whether any letter is, and the child
        # state along each letter, or along None for the children sharing
        # one, once computed.  Every cell, the root's included, comes from
        # the band's rule.  A step along a followed letter, or into a wide
        # node's shared children, always keeps a cell or an open transposition
        # within the limits, so every step has a state.
        def step(letter: str | None, depth: int, parent: list[int], opened: list) -> tuple:
            # The child's state.  A closing transposition seeds a cell; then
            # each cell of the band takes its diagonal (free for a match), a
            # deletion or an insertion.  Column 0 reads the row's trailing
            # cap, and q's trailing _NO_LETTER, as its column -1.
            row = [cap] * (m + 2)
            nexts = set()
            wide = False
            pend = []
            for j, closer, cost in opened:
                if closer == letter and cost < row[j]:
                    row[j] = cost
                if cost < limit[j]:
                    pend.append((j, closer, cost + 1))
                    nexts.add(closer)
                    if cost + 1 < limit[j]:
                        wide = True
            lo = depth - ed if depth > ed else 0
            left = row[lo - 1]
            for j in range(lo, (depth + ed if depth + ed < m else m) + 1):
                v = parent[j - 1]
                if q[j - 1] == letter:
                    # A parent cell within the limits lies in the parent's
                    # band, and a transposition opened from outside the band
                    # would cost more than ed, so only the band's columns can
                    # match or open one.  A child matching column j opens,
                    # from the parent's cell at column s = j - d - 1, a
                    # transposition that q[s] closes d rows on.
                    for d in range(1, (ed if ed < j else j - 1) + 1):
                        s = j - d - 1
                        cost = parent[s] + d
                        if cost <= limit[j]:
                            pend.append((j, q[s], cost))
                            nexts.add(q[s])
                            if cost < limit[j]:
                                wide = True
                else:
                    v += 1
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
                        # The opener letters: a child of letter q[j + d]
                        # opens a transposition from this cell at cost
                        # v + d (see the docstring).
                        for d in range(1, (ed - v if ed - v < m - 1 - j else m - 1 - j) + 1):
                            if v + d <= limit[j + d + 1]:
                                nexts.add(q[j + d])
                else:
                    left = cap
            return (row, pend, nexts, wide, {})

        def descend(e: int, x: str, depth: int, kid: tuple, text: str) -> None:
            # The node along edge ``e``, whose state is ``kid`` and whose
            # parent's text is ``text``: report it if it is a word in range,
            # and queue it if one of its children can stay within the limits.
            r, _, r_nexts, r_wide, _ = kid
            c = e + 1
            text = text + letter_of[x] if forward else letter_of[x] + text
            if 0 < r[m] <= ed and ends[c] and r[m] < found.get(text, cap):
                found[text] = r[m]
            lo = first[c]
            hi = first[c + 1]
            if lo < hi and (r_wide or not r_nexts.isdisjoint(labels[lo:hi])):
                stack.append((lo, hi, depth, text, kid))

        # The root's parent row ends in -1, so the root's column 0 costs 0.
        stack = [(first[0], first[1], 0, "", step(None, 0, [cap] * (m + 1) + [-1], []))]
        while stack:
            lo, hi, depth, text, (row, opened, nexts, wide, kids) = stack.pop()
            if prune and found.last is not None and text >= found.last:
                continue
            depth += 1
            # The children are the nodes lo + 1..hi.  Those whose letter is
            # in nexts get their own state (the loop at the end); below a
            # wide node, the others share one.
            if wide:
                shared = kids.get(None)
                if shared is None:
                    shared = kids[None] = step(None, depth, row, opened)
                s_row, s_opened, s_nexts, s_wide, s_kids = shared
                s_dist = s_row[m] if s_row[m] <= ed else 0
                if s_dist:
                    # The children sharing the state that end words.
                    c = ends.find(1, lo + 1, hi + 1)
                    while c >= 0:
                        x = labels[c - 1]
                        if x not in nexts:
                            word = text + letter_of[x] if forward else letter_of[x] + text
                            if s_dist < found.get(word, cap):
                                found[word] = s_dist
                        c = ends.find(1, c + 1, hi + 1)
                if s_wide:
                    # Every child sharing the state is entered.
                    for c, x in enumerate(labels[lo:hi], lo + 1):
                        if x not in nexts and first[c] < first[c + 1]:
                            child = text + letter_of[x] if forward else letter_of[x] + text
                            stack.append((first[c], first[c + 1], depth, child, shared))
                else:
                    # Most children sharing the state lead nowhere, so they
                    # are stepped over (see the docstring): their live
                    # children are found by scanning the band of their
                    # edges for each letter s_nexts follows.  A hit i hangs
                    # below the child c whose edges hold it, and no other
                    # edge of c has its letter.
                    band_lo = first[lo + 1]
                    band_hi = first[hi + 1]
                    if band_lo < band_hi:
                        for y in s_nexts:
                            i = labels.find(y, band_lo, band_hi)
                            if i < 0:
                                continue
                            kid = s_kids.get(y)
                            while i >= 0:
                                c = bisect_right(first, i, lo + 1, hi + 1) - 1
                                x = labels[c - 1]
                                if x not in nexts:
                                    if kid is None:
                                        kid = s_kids[y] = step(y, depth + 1, s_row, s_opened)
                                    child = text + letter_of[x] if forward else letter_of[x] + text
                                    descend(i, y, depth + 1, kid, child)
                                i = labels.find(y, first[c + 1], band_hi)
            for x in nexts:
                e = labels.find(x, lo, hi)
                if e >= 0:
                    kid = kids.get(x)
                    if kid is None:
                        kid = kids[x] = step(x, depth, row, opened)
                    descend(e, x, depth, kid, text)

    def substitutions(
        self, letters: Sequence[str], alternates: Sequence[Sequence[str]], budget: int
    ) -> set[str]:
        """Words that replace 1..``budget`` positions of ``letters``.

        ``alternates[p]`` lists the letters allowed in place of
        ``letters[p]``, the letter itself excluded.  Only paths that spell a
        lexicon prefix are followed, so the work is bounded by the lexicon,
        not by the product of the alternates.
        """
        _check_letters(letters)
        n = len(letters)
        (first, labels, ends), code = self._forward, self._code
        found: set[str] = set()
        stack = [(0, 0, "", 0)]
        while stack:
            node, p, text, changes = stack.pop()
            if p == n:
                if ends[node] and changes:
                    found.add(text)
                continue
            lo = first[node]
            hi = first[node + 1]
            e = labels.find(code(letters[p], _NO_LETTER), lo, hi)
            if e >= 0:
                stack.append((e + 1, p + 1, text + letters[p], changes))
            if changes < budget:
                for alt in alternates[p]:
                    e = labels.find(code(alt, _NO_LETTER), lo, hi)
                    if e >= 0:
                        stack.append((e + 1, p + 1, text + alt, changes + 1))
        return found


def load_wordlist(*sources) -> Lexicon:
    """Build one :class:`Lexicon` from one or more UTF-8 word lists.

    One word per line; blank lines and lines starting with ``#`` are
    skipped, and a word listed more than once, in one source or several,
    is loaded once.  Each source may be a path or an open text/binary
    stream, and is read and decoded at once.  Undecodable bytes raise
    :class:`WordListError` with the source's name and the offending line
    number.
    """
    # The lexicon gets the list as an iterator, the list's only holder,
    # which lets it go once consumed: so it is freed before the trie build.
    return Lexicon(iter(_listed_words(sources, WordListError)))
