"""The checking driver: validate tokens, merge strategy suggestions.

Every token takes one route, whether it comes from ``check_word`` or
``check_text``: a token with no Tamil code point goes to the parallel
dictionary, a stop word is skipped, a token the lexicon knows is valid,
and anything else goes through every correction strategy and the results
are merged.  The checker is the input boundary: it NFC-normalizes its
input once, and the lexicon answers a token it holds with one lookup,
normalizing only a token it lacks.  A non-word is split into letters
once; every strategy takes that letter tuple.  ``check_text`` normalizes
a document only when that could change it: a text of ASCII, Tamil-block,
joiner and common punctuation code points alone is already NFC unless it
holds one of four composing pairs (``_nfc_document`` says why).

Conjoined-split recognition outranks confusable-series substitution,
which outranks keyboard-adjacency patterns, which outrank generic edit
candidates.  The strategies return bare words (the edit strategy maps
each to its distance), and the checker alone ranks them: each candidate
gets one rank key, (letter-level edit distance to the input, strategy
priority, candidate), where a recognized conjoined pair scores 0.  The
edit strategy returns every lexicon word within ``edit_distance``.
Every keyboard candidate and every series candidate within that distance
is among them, so each candidate is scored once, by the edit walk, and
labelled with the highest-priority strategy that proposed it.  Only a
series candidate beyond ``edit_distance`` (the series budget is
unlimited) is scored on its own.  The ``MAX_SUGGESTIONS`` smallest keys
are kept, and a :class:`Suggestion` is built for those alone.

The kept list is the head of that ranking, and on a lexicon of at least
``DENSE_LEXICON`` words it is found without listing the whole edit ball.
The lexicon is first walked within ``edit_distance`` - 1, and those words
are ranked with the other strategies' candidates.  An edit word that walk
leaves out, and that no other strategy proposed, scores
``edit_distance`` under the EDIT label, so its key ranks after every other
key within that distance, and such keys differ in their text alone.  Of
them the cut can keep only as many as it has slots left, the
text-smallest: ``Lexicon.first_at_distance`` finds those, skipping every
trie node whose prefix text sorts after the last word it keeps, since
every word below a node starts with its prefix.  When no slot is left,
that search is skipped.  A token too long for any candidate (see
``SpellChecker.__init__``) gets no suggestions and no strategy runs.

Reports are named tuples, so building one costs little.  Each engine
keeps one LRU memo of ``CACHE_SIZE`` non-words that maps a non-word to
its finished report, so a document that repeats a misspelling computes
it once, ``check_word`` and ``check_text`` hand out the same report
object for it, and a long-lived engine stays bounded.  Within one call,
``check_text`` routes each distinct token of the document once and builds
one report for it, which all its occurrences share; every non-word
occurrence still asks the memo, so its counters count occurrences.
``CheckReport.to_json`` renders each distinct report object once per
call, found by its identity, and takes the text of a suggestion list
from one module-wide LRU memo of ``CACHE_SIZE`` entries keyed by the
list and the layout, so a memoized non-word's list is rendered once per
layout, not once per pass.  Nothing else is kept across calls.  Checking
runs serially.  An engine may be shared across threads; concurrent
misses on one word may then compute it twice, with equal results.
"""

from __future__ import annotations

import functools
import heapq
import re
import unicodedata
from collections.abc import Iterable, Mapping
from dataclasses import dataclass
from enum import Enum
from json.encoder import encode_basestring
from typing import NamedTuple

from . import conjoined, edits, keyboard, mayangoli
from .edits import letter_edit_distance
from .errors import TamilSpellError, _data_lines
from .letters import has_tamil, letter_texts

__all__ = [
    "CACHE_SIZE",
    "CheckReport",
    "DENSE_LEXICON",
    "EngineConfig",
    "MAX_SUGGESTIONS",
    "SpellChecker",
    "Strategy",
    "Suggestion",
    "TokenReport",
    "Verdict",
    "load_parallel_dict",
    "load_stop_words",
]

# Distinct non-words an engine keeps reports for, and suggestion lists
# whose JSON text is kept.
CACHE_SIZE = 4096

# Suggestions kept per non-word.  It must stay at least 1: a recognized
# conjoined pair ranks first, and keeping it is what makes the token read
# clean.
MAX_SUGGESTIONS = 10

# Lexicon words from which a non-word is first searched within ed - 1, and
# then only for the distance-ed edit words the cut can still take, the
# text-smallest (see ``_compute_suggestions``).  In a lexicon this dense a
# short non-word has hundreds of words at distance ed, and that search
# skips every trie node whose prefix text sorts after the last word kept:
# every word below the node starts with the prefix, so sorts after it too.
DENSE_LEXICON = 10_000


class Verdict(Enum):
    VALID = "valid"
    NON_WORD = "nonword"
    NON_TAMIL = "nontamil"
    SKIPPED = "skipped"

    # Members compare by identity, so they may hash by it; Enum's own hash
    # is Python code, and every report hash and JSON lookup pays for it.
    __hash__ = object.__hash__


class Strategy(Enum):
    """Which generator produced a suggestion; order is the merge priority."""

    CONJOINED = "conjoined"
    MAYANGOLI = "mayangoli"
    KEYBOARD = "keyboard"
    EDIT = "edit"
    FOREIGN = "foreign"

    __hash__ = object.__hash__

    @property
    def priority(self) -> int:
        return _BY_PRIORITY.index(self)


# The merge priority, written once: each strategy at the index of its priority.
_BY_PRIORITY = tuple(Strategy)


class Suggestion(NamedTuple):
    """One candidate correction: the word, its origin, and a distance score."""

    candidate: str
    strategy: Strategy
    score: int

    def as_dict(self) -> dict:
        return {
            "candidate": self.candidate,
            "strategy": self.strategy.value,
            "score": self.score,
        }


class TokenReport(NamedTuple):
    """Outcome for one token, in document order."""

    token: str
    verdict: Verdict
    suggestions: tuple[Suggestion, ...] = ()

    @property
    def is_clean(self) -> bool:
        """Not a misspelling; a recognized conjoined pair counts as clean."""
        if self.verdict is not Verdict.NON_WORD:
            return True
        return any(s.strategy is Strategy.CONJOINED for s in self.suggestions)

    def as_dict(self) -> dict:
        return {
            "token": self.token,
            "verdict": self.verdict.value,
            "suggestions": [s.as_dict() for s in self.suggestions],
        }


# The JSON text of every verdict and strategy name.
_QUOTED = {member: encode_basestring(member.value) for member in (*Verdict, *Strategy)}


def _layout(indent: str | None) -> tuple[str, tuple[str, ...]]:
    """The item separator, and the line break before an item at each depth 0-4."""
    if indent is None:
        return ", ", ("",) * 5
    return ",", tuple("\n" + indent * k for k in range(5))


@functools.lru_cache(maxsize=CACHE_SIZE)
def _suggestions_json(suggestions: tuple[Suggestion, ...], indent: str | None) -> str:
    """The JSON text of a non-empty suggestion list as a report's value, in a layout."""
    sep, nl = _layout(indent)
    quote = encode_basestring
    candidate_head = "{" + nl[4] + '"candidate": '
    strategy_head = sep + nl[4] + '"strategy": '
    score_head = sep + nl[4] + '"score": '
    tail = nl[3] + "}"
    return "[" + nl[3] + (sep + nl[3]).join([
        candidate_head + quote(s.candidate) + strategy_head + _QUOTED[s.strategy]
        + score_head + str(s.score) + tail
        for s in suggestions
    ]) + nl[2] + "]"


@dataclass(frozen=True)
class CheckReport:
    """Every token of a checked document, in order."""

    tokens: tuple[TokenReport, ...]

    @property
    def clean(self) -> bool:
        return all(t.is_clean for t in self.tokens)

    def non_words(self) -> list[TokenReport]:
        return [t for t in self.tokens if t.verdict is Verdict.NON_WORD]

    def as_dicts(self) -> list[dict]:
        return [t.as_dict() for t in self.tokens]

    def to_json(self, indent: int | str | None = None) -> str:
        """The text of ``json.dumps(self.as_dicts(), ensure_ascii=False, indent=indent)``.

        Written directly, without building the dicts.  Strings are escaped,
        so every newline in the text is layout.  Each distinct report object
        is rendered once and its text looked up by the object's identity;
        a suggestion list's text comes from the render memo.  The result is
        one ``join``.
        """
        if not self.tokens:
            return "[]"
        if indent is not None and not isinstance(indent, str):
            indent = " " * indent
        sep, nl = _layout(indent)
        quote, render = encode_basestring, _suggestions_json
        token_head = "{" + nl[2] + '"token": '
        verdict_head = sep + nl[2] + '"verdict": '
        suggestions_head = sep + nl[2] + '"suggestions": '
        token_tail = nl[1] + "}"
        # Keyed by identity: the reports stay alive for the call, so no id
        # is reused.
        texts = {
            report_id: token_head + quote(t.token) + verdict_head + _QUOTED[t.verdict]
            + suggestions_head + (render(t.suggestions, indent) if t.suggestions else "[]")
            + token_tail
            for report_id, t in dict(zip(map(id, self.tokens), self.tokens)).items()
        }
        # One join builds the text; the brackets ride on the first and last part.
        parts = list(map(texts.__getitem__, map(id, self.tokens)))
        parts[0] = "[" + nl[1] + parts[0]
        parts[-1] += nl[0] + "]"
        return (sep + nl[1]).join(parts)


@dataclass(frozen=True)
class EngineConfig:
    """Tunables for a :class:`SpellChecker`."""

    edit_distance: int = 2

    def __post_init__(self):
        if not isinstance(self.edit_distance, int):
            raise TypeError(f"edit_distance must be an int, not {type(self.edit_distance).__name__}")
        if self.edit_distance < 1:
            raise ValueError("edit_distance must be >= 1")


class SpellChecker:
    """Two-step checker over a lexicon, with pluggable strategy inputs.

    ``confusion_matrix=None`` loads the bundled keyboard-adjacency matrix;
    with an empty :class:`~tamilspell.keyboard.ConfusionMatrix` no
    candidate is labelled KEYBOARD, and the words the keyboard strategy
    would have reached are labelled EDIT.
    """

    def __init__(
        self,
        lexicon,
        *,
        config: EngineConfig | None = None,
        confusion_matrix: keyboard.ConfusionMatrix | None = None,
        parallel_dict: Mapping[str, str] | None = None,
        stop_words: Iterable[str] = (),
    ):
        from .bundled import bundled_confusion_matrix

        self.lexicon = lexicon
        self.config = config or EngineConfig()
        self.confusion_matrix = (
            confusion_matrix if confusion_matrix is not None else bundled_confusion_matrix()
        )
        nfc = functools.partial(unicodedata.normalize, "NFC")
        self.parallel_dict = {nfc(k).casefold(): nfc(v) for k, v in (parallel_dict or {}).items()}
        self.stop_words = frozenset(map(nfc, stop_words))
        self._reports = functools.lru_cache(maxsize=CACHE_SIZE)(self._non_word)
        # A word within ed of an m-letter token has at least m - ed letters,
        # a keyboard or series candidate has m and a conjoined pair's halves
        # are words, so no candidate matches a token of more than
        # max(L + ed, 2 * L) letters, L the longest word's.  A letter spans
        # at most four code points (க்ஷா), so a token longer than four times
        # that many is answered without a letter split and kept out of the
        # memo, which holds no longer token.
        longest = lexicon.longest
        self._longest_matchable = 4 * max(longest + self.config.edit_distance, 2 * longest)

    # ------------------------------------------------------------------ #

    def check_word(self, word: str) -> TokenReport:
        """Check one token, with the verdict ``check_text`` would give it."""
        token = unicodedata.normalize("NFC", word)
        return self._route(token) or self._reports(token)

    def check_text(self, text: str) -> CheckReport:
        """Check a document; the report lists every token in order.

        The text is NFC-normalized only when normalizing could change it
        (see ``_nfc_document``).  Each distinct token is routed once and
        gets one report, which all its occurrences share; every non-word
        occurrence still asks the memo, so its counters count occurrences,
        as ``check_word``'s do.
        """
        text, mixed = _nfc_document(text)
        tokens = _word_tokens(text, mixed)
        routes = {tok: self._route(tok) for tok in dict.fromkeys(tokens)}
        non_words = {tok for tok, report in routes.items() if report is None}
        for tok in filter(non_words.__contains__, tokens):
            # The first answer is the report.  A word evicted mid-pass is
            # computed again, with an equal result.
            found = self._reports(tok)
            if routes[tok] is None:
                routes[tok] = found
        return CheckReport(tuple(map(routes.__getitem__, tokens)))

    @property
    def stats(self) -> dict:
        """Memo counters.

        A computation that raises counts as a miss but stores nothing, so
        ``cache_misses - cache_size`` is the evictions plus the failed
        computations.
        """
        info = self._reports.cache_info()
        return {
            "cache_hits": info.hits,
            "cache_misses": info.misses,
            "cache_size": info.currsize,
        }

    # ------------------------------------------------------------------ #

    def _route(self, token: str) -> TokenReport | None:
        """The report of a token no strategy needs to see, else None.

        A token without a Tamil code point is looked up, case-folded, in the
        parallel dictionary, a stop word is skipped and a known word is
        valid.  A token too long for any strategy to match is a non-word
        without suggestions, and is not memoized.
        """
        if not has_tamil(token):
            sub = self.parallel_dict.get(token.casefold())
            subs = () if sub is None else (Suggestion(sub, Strategy.FOREIGN, 0),)
            return TokenReport(token, Verdict.NON_TAMIL, subs)
        if token in self.stop_words:
            return TokenReport(token, Verdict.SKIPPED, ())
        if self.lexicon.is_word(token):
            return TokenReport(token, Verdict.VALID, ())
        if len(token) > self._longest_matchable:
            return TokenReport(token, Verdict.NON_WORD, ())
        return None

    def _non_word(self, word: str) -> TokenReport:
        return TokenReport(word, Verdict.NON_WORD, self._compute_suggestions(word))

    def _compute_suggestions(self, word: str) -> tuple[Suggestion, ...]:
        lexicon, ed = self.lexicon, self.config.edit_distance
        letters = letter_texts(word)
        series = mayangoli.suggest(letters, lexicon)
        nearby = keyboard.corrections(letters, lexicon, self.confusion_matrix, ed)
        pairs = conjoined.recognize(letters, lexicon)
        dense = len(lexicon) >= DENSE_LEXICON
        if dense:
            within = lexicon.within_distance(letters, ed - 1)
        else:
            within = edits.suggest(letters, lexicon, nedits=ed)
        ranks = _ranks(letters, within, ed, nearby, series, pairs)
        if dense:
            # The edit words at distance ed left to rank have keys
            # (ed, EDIT, word), after every other key within ed, so the cut
            # takes the text-smallest of them into the slots it has left.
            bar = (ed, Strategy.EDIT.priority)
            need = MAX_SUGGESTIONS - sum(key < bar for key in ranks.values())
            if need > 0:
                for candidate in lexicon.first_at_distance(letters, ed, need, ranks):
                    ranks[candidate] = (*bar, candidate)
        return _head(ranks)


def _ranks(letters, within, ed, nearby, series, pairs) -> dict[str, tuple[int, int, str]]:
    """Each candidate's rank key, under its highest-priority label.

    ``within`` maps edit candidates to their distances: every word within
    ``ed``, or on a dense lexicon every word within ``ed - 1``.  A keyboard
    candidate it lacks scores ``ed``: the keyboard strategy substitutes at
    most ``ed`` letters, so the candidate is within ``ed``, and it is not
    within ``ed - 1`` since ``within`` holds that whole ball.
    """
    # Candidate -> rank key.  Each strategy overwrites the ones of lower
    # priority.
    edit = Strategy.EDIT.priority
    ranks = {candidate: (distance, edit, candidate) for candidate, distance in within.items()}
    for candidate in nearby:
        ranks[candidate] = (within.get(candidate, ed), Strategy.KEYBOARD.priority, candidate)
    for candidate in series:
        distance = within.get(candidate) or letter_edit_distance(letters, candidate)
        ranks[candidate] = (distance, Strategy.MAYANGOLI.priority, candidate)
    for pair in pairs:
        # Scores 0, below any other strategy's score for the same text.
        candidate = f"{pair.left} {pair.right}"
        ranks[candidate] = (0, Strategy.CONJOINED.priority, candidate)
    return ranks


def _head(ranks: dict[str, tuple[int, int, str]]) -> tuple[Suggestion, ...]:
    """The ``MAX_SUGGESTIONS`` smallest rank keys, as suggestions.

    On a dense lexicon ``ranks`` holds, of the keys that score ``ed`` with
    the EDIT label, only the text-smallest ones the cut can take.  Those
    keys differ by text alone and rank after every other key within
    ``ed``, so the ones left out could only have come after the cut.
    """
    kept = heapq.nsmallest(MAX_SUGGESTIONS, ranks.values())
    return tuple([Suggestion(c, _BY_PRIORITY[p], score) for score, p, c in kept])


# ---------------------------------------------------------------------- #


def _is_word_char(ch: str) -> bool:
    return ch in "_\u200c\u200d" or unicodedata.category(ch)[0] in "LMN"


# The base code points are ASCII, the Tamil block, ZWNJ/ZWJ, and the
# no-break space and General Punctuation's dashes, quotes, daggers, bullets
# and leaders (U+2010-U+2027), which typeset Tamil text uses; any other code
# point is "other".
_BASE_CODE_POINTS = (
    *range(0x80), 0xA0, *range(0x0B80, 0x0C00), 0x200C, 0x200D, *range(0x2010, 0x2028)
)
_OTHER_CHARS = re.compile("[^%s]" % re.escape("".join(map(chr, _BASE_CODE_POINTS))))

# The only base pairs NFC changes: each composes to one Tamil code point.
_COMPOSING_PAIRS = ("\u0bc6\u0bbe", "\u0bc7\u0bbe", "\u0bc6\u0bd7", "\u0b92\u0bd7")

# Word characters are letters, marks, digits, _ and the joiners.  A run is
# text free of the base code points that are not word characters, which
# are classified once here (unassigned Tamil-block points are not word
# characters).  A run may hold other code points that are not word
# characters either; ``_word_tokens`` cuts those out.
_WORD_RUNS = re.compile("[^%s]+" % re.escape("".join(
    ch for ch in map(chr, _BASE_CODE_POINTS) if not _is_word_char(ch)
)))


def _nfc_document(text: str) -> tuple[str, bool]:
    """``unicodedata.normalize("NFC", text)``, and whether text holds an other code point.

    A text of base code points alone is normalized only when it holds one
    of ``_COMPOSING_PAIRS``, since nothing else in it can change (a test
    checks every pair against ``unicodedata``): among the base code points
    only pulli has a non-zero combining class, so nothing reorders; every
    base code point is its own NFC form; no two compose but those pairs;
    and the second code point of each pair has class 0, so it composes
    only with the code point just before it.  Composing such a pair gives
    a Tamil code point, so the result is still of base code points alone.
    """
    mixed = _OTHER_CHARS.search(text) is not None
    if mixed or any(pair in text for pair in _COMPOSING_PAIRS):
        text = unicodedata.normalize("NFC", text)
    return text, mixed


def _word_tokens(text: str, mixed: bool) -> list[str]:
    """Split text into word tokens: runs of letters, marks, digits, _ or joiners.

    Splitting on Unicode categories (not on ``\\w``) keeps Tamil combining
    marks glued to their consonants.  ZWNJ and ZWJ stay inside the word
    they sit in, so ``check_text`` sees the token ``check_word`` would be
    given.  ``mixed`` is ``_nfc_document``'s answer: False promises that
    text holds no other code point.
    """
    if not mixed:
        return _WORD_RUNS.findall(text)
    # Every other code point that is no word character ends a run.
    tokens, start = [], 0
    for other in _OTHER_CHARS.finditer(text):
        if not _is_word_char(other.group()):
            tokens += _WORD_RUNS.findall(text, start, other.start())
            start = other.end()
    tokens += _WORD_RUNS.findall(text, start)
    return tokens


def load_parallel_dict(source) -> dict[str, str]:
    """Read ``foreign<TAB>tamil`` lines into a mapping, both fields NFC and keys case-folded."""
    mapping: dict[str, str] = {}
    for name, lineno, line in _data_lines(source, TamilSpellError):
        if "\t" not in line:
            raise TamilSpellError(f"{name}:{lineno}: expected 'foreign<TAB>tamil'")
        foreign, tamil = line.split("\t", 1)
        foreign = unicodedata.normalize("NFC", foreign.strip()).casefold()
        tamil = unicodedata.normalize("NFC", tamil.strip())
        if not foreign or not tamil:
            raise TamilSpellError(f"{name}:{lineno}: empty field")
        mapping[foreign] = tamil
    return mapping


def load_stop_words(source) -> frozenset[str]:
    """Read a stop list: one word per line, ``#`` comments allowed."""
    return frozenset(
        unicodedata.normalize("NFC", line.strip())
        for _, _, line in _data_lines(source, TamilSpellError)
    )
