"""Spans and counters around tamilspell's public functions, added from outside.

:meth:`Tracer.install` wraps every public function of each layer module
and the entry-point methods in :data:`METHODS`.  A wrapper replaces the
function under every name a ``tamilspell`` module holds it by, so
``tamilspell.checker.letter_edit_distance`` is traced as well as
``tamilspell.edits.letter_edit_distance``.  A name that does not exist is
skipped; a layer module that cannot be imported is listed in ``absent``.

Calls made inside a *quiet* span (a strategy, distance scoring, a
lexicon load or a lexicon probe) are counted against that span but not
timed, which keeps the overhead of ten thousand lexicon probes per word
down; their time is the quiet span's self time.  A probe made inside
another probe (``is_word`` delegating to ``contains_letters``) is not
counted again, so the probe counts are lookups, whatever the delegation.
Every other call opens a span: name, start and end in nanoseconds, parent
span index and operation id.  Spans stay in memory until
:meth:`Tracer.dump` writes them out.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
import sys
from collections import Counter, defaultdict
from time import perf_counter_ns

LAYERS = ("letters", "lexicon", "conjoined", "mayangoli", "keyboard", "edits", "checker", "cli")

# Entry-point methods, traced on their classes: (layer, class, methods).
METHODS = (
    ("lexicon", "Lexicon", ("is_word", "contains_letters", "prefix_exists")),
    ("checker", "SpellChecker", ("check_word", "check_text")),
    ("checker", "CheckReport", ("to_json",)),
)

STRATEGIES = ("conjoined.recognize", "mayangoli.suggest", "keyboard.corrections", "edits.suggest")
PROBES = frozenset({"lexicon.is_word", "lexicon.contains_letters", "lexicon.prefix_exists"})
QUIET = frozenset(STRATEGIES) | PROBES | {"edits.letter_edit_distance", "lexicon.load_wordlist"}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent index, op id]
        # name -> {quiet owner or None: n}; found counts probes answering
        # True and strategy results.
        self._calls: dict[str, defaultdict] = {}
        self._found: dict[str, defaultdict] = {}
        self.edit_candidates: dict[int, list[str]] = {}  # op id -> edits.suggest output
        self.absent: list[str] = []
        self.op = 0
        self._stack: list[int] = []
        # [quiet span being run or None, inside a probe]
        self._owner: list = [None, False]
        self._wrappers: dict = {}
        self._patches: list[tuple] = []

    # ------------------------------------------------------------------ #

    def _wrap(self, name: str, fn):
        quiet = name in QUIET
        probe = name in PROBES
        strategy = name in STRATEGIES
        spans, stack, owner_cell = self.spans, self._stack, self._owner
        # Per-wrapper tallies keyed by quiet owner (None at top level): the
        # quiet path runs ten thousand times a word, so it does no more
        # than a dict increment.
        calls = self._calls.setdefault(name, defaultdict(int))
        found = self._found.setdefault(name, defaultdict(int))

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            owner = owner_cell[0]
            if owner is not None:
                if not probe:
                    result = fn(*args, **kwargs)
                elif owner_cell[1]:
                    return fn(*args, **kwargs)
                else:
                    owner_cell[1] = True
                    try:
                        result = fn(*args, **kwargs)
                    finally:
                        owner_cell[1] = False
                calls[owner] += 1
                if probe and result:
                    found[owner] += 1
                return result
            index = len(spans)
            span = [name, 0, 0, stack[-1] if stack else -1, self.op]
            spans.append(span)
            stack.append(index)
            if quiet:
                owner_cell[0] = name
            owner_cell[1] = probe
            span[1] = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter_ns()
                stack.pop()
                owner_cell[0] = None
                owner_cell[1] = False
            calls[None] += 1
            if probe and result:
                found[None] += 1
            elif strategy:
                found[None] += len(result)
                if name == "edits.suggest":
                    self.edit_candidates.setdefault(self.op, []).extend(
                        getattr(s, "candidate", s) for s in result
                    )
            return result

        return wrapper

    def install(self) -> None:
        """Wrap the layer functions; a second call is a no-op."""
        if self._patches:
            return
        if not self._wrappers:
            self._collect()
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "tamilspell" or mod_name.startswith("tamilspell.")):
                continue
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in self._wrappers:
                    self._patch(mod, attr, value, self._wrappers[value])
        for layer, cls_name, methods in METHODS:
            cls = getattr(sys.modules.get(f"tamilspell.{layer}"), cls_name, None)
            for method in methods:
                orig = vars(cls).get(method) if cls is not None else None
                if inspect.isfunction(orig):
                    self._patch(cls, method, orig, self._wrap(f"{layer}.{method}", orig))

    def _collect(self) -> None:
        for layer in LAYERS:
            try:
                mod = importlib.import_module(f"tamilspell.{layer}")
            except ImportError:
                self.absent.append(layer)
                continue
            names = getattr(mod, "__all__", None) or [n for n in vars(mod) if not n.startswith("_")]
            for attr in names:
                fn = getattr(mod, attr, None)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    self._wrappers[fn] = self._wrap(f"{layer}.{attr}", fn)

    def _patch(self, owner, attr, orig, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, orig))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    # ------------------------------------------------------------------ #

    @staticmethod
    def _flat(tallies) -> Counter:
        return Counter({(name, owner): n for name, by in tallies.items() for owner, n in by.items()})

    def mark(self) -> tuple[int, Counter, Counter]:
        return len(self.spans), self._flat(self._calls), self._flat(self._found)

    def since(self, mark) -> "Phase":
        start, calls, found = mark
        return Phase(self.spans, start, self._flat(self._calls) - calls, self._flat(self._found) - found)

    def dump(self, path) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start_ns", "end_ns", "parent", "op"], "spans": self.spans}, fh)


class Phase:
    """The spans and counts recorded between a mark and now."""

    def __init__(self, spans, start, counts, hits):
        self.spans = spans[start:]
        self.counts = counts
        self.hits = hits
        child = Counter()
        for span in self.spans:
            if span[3] >= start:
                child[span[3]] += span[2] - span[1]
        self.self_ns: Counter = Counter()
        self.total_ns: Counter = Counter()
        self.timed: Counter = Counter()
        for i, (name, t0, t1, _parent, _op) in enumerate(self.spans, start):
            self.self_ns[name] += t1 - t0 - child[i]
            self.total_ns[name] += t1 - t0
            self.timed[name] += 1

    def calls(self, name, owner=...) -> int:
        """Calls of ``name``; all of them, or only those made under ``owner``."""
        return sum(n for (nm, ow), n in self.counts.items() if nm == name and owner in (..., ow))

    def probe_counts(self, owner=...) -> tuple[int, int]:
        calls = sum(n for (nm, ow), n in self.counts.items() if nm in PROBES and owner in (..., ow))
        found = sum(n for (nm, ow), n in self.hits.items() if nm in PROBES and owner in (..., ow))
        return calls, found

    def layer_self_ns(self) -> Counter:
        out = Counter()
        for name, ns in self.self_ns.items():
            out[name.split(".")[0]] += ns
        return out
