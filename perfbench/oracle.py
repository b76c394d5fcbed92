"""The benchmark's own model of Tamil letters and its output checks.

Nothing here imports the package under test: letters are split with a
regular expression, distances come from a local Damerau-Levenshtein
implementation, and a report is judged only against the word list the
benchmark generated.  A check returns a list of problems; an empty list
means the output is correct.
"""

from __future__ import annotations

import re

PULLI = "்"
UYIR = "அஆஇஈஉஊஎஏஐஒஓஔ"
AYUDHAM = "ஃ"
CONSONANTS = "கஙசஞடணதநபமயரலவழளறன"
# Vowel sign per uyir, in UYIR order; அ is implicit.
VOWEL_SIGNS = ("", "ா", "ி", "ீ", "ு", "ூ", "ெ", "ே", "ை", "ொ", "ோ", "ௌ")

# One letter: a consonant (or the க்ஷ conjunct) with an optional pulli or
# vowel sign, or any other single code point.
_LETTER = re.compile("(?:க்ஷ|[க-ஹ])[ா-்]?|.", re.S)

# Merge priority of each strategy, as the checker documents it.
PRIORITY = {"conjoined": 0, "mayangoli": 1, "keyboard": 2, "edit": 3, "foreign": 4}
MAX_SUGGESTIONS = 10


def is_tamil(token: str) -> bool:
    return any("஀" <= ch <= "௿" for ch in token)


def letters(word: str) -> tuple[str, ...]:
    return tuple(_LETTER.findall(word))


def alphabet() -> tuple[str, ...]:
    """The 247-letter table: 12 uyir, ayudham, then each consonant's 13 forms."""
    table = list(UYIR) + [AYUDHAM]
    for cons in CONSONANTS:
        table.append(cons + PULLI)
        table.extend(cons + sign for sign in VOWEL_SIGNS)
    return tuple(table)


def split_letter(letter: str) -> tuple[str, str] | None:
    """(consonant, vowel sign) of an uyirmei letter, else None."""
    if letter[0] in CONSONANTS and not letter.endswith(PULLI):
        return letter[0], letter[1:]
    return None


def distance(a, b) -> int:
    """Unrestricted Damerau-Levenshtein distance over letter sequences."""
    a = letters(a) if isinstance(a, str) else a
    b = letters(b) if isinstance(b, str) else b
    la, lb = len(a), len(b)
    if not la or not lb:
        return la + lb
    inf = la + lb
    d = [[inf] * (lb + 2)] + [[inf] + [0] * (lb + 1) for _ in range(la + 1)]
    for i in range(la + 1):
        d[i + 1][1] = i
    for j in range(lb + 1):
        d[1][j + 1] = j
    last: dict[str, int] = {}
    for i in range(1, la + 1):
        match_col = 0
        for j in range(1, lb + 1):
            k, l = last.get(b[j - 1], 0), match_col
            cost = 1
            if a[i - 1] == b[j - 1]:
                cost, match_col = 0, j
            d[i + 1][j + 1] = min(
                d[i][j] + cost,
                d[i + 1][j] + 1,
                d[i][j + 1] + 1,
                d[k][l] + (i - k - 1) + 1 + (j - l - 1),
            )
        last[a[i - 1]] = i
    return d[la + 1][lb + 1]


class Neighbourhoods:
    """Brute-force 'lexicon words within distance 2' over a word list.

    Words are bucketed by letter count and screened by letter sets (each
    edit adds at most one letter the other word lacks) before the exact
    distance is computed, so a 200k-word list costs a fraction of a second
    per query.
    """

    def __init__(self, words):
        self._by_len: dict[int, list[tuple[str, tuple[str, ...], frozenset]]] = {}
        for word in words:
            lts = letters(word)
            self._by_len.setdefault(len(lts), []).append((word, lts, frozenset(lts)))

    def within(self, word: str) -> set[str]:
        lts = letters(word)
        mine = frozenset(lts)
        r = 2
        found = set()
        for n in range(len(lts) - r, len(lts) + r + 1):
            for other, olts, oset in self._by_len.get(n, ()):
                if len(oset - mine) <= r and len(mine - oset) <= r and other != word:
                    if distance(lts, olts) <= r:
                        found.add(other)
        return found


def check_suggestions(token: str, suggestions, words) -> list[str]:
    """Problems with a non-word's suggestions, given as dicts.

    ``suggestions`` are dicts with candidate/strategy/score; ``words`` is
    the generated word set.
    """
    problems = []
    if len(suggestions) > MAX_SUGGESTIONS:
        problems.append(f"{token}: {len(suggestions)} suggestions")
    cands = [s["candidate"] for s in suggestions]
    if len(set(cands)) != len(cands):
        problems.append(f"{token}: duplicate candidates")
    if token in cands:
        problems.append(f"{token}: suggests itself")
    keys = []
    for s in suggestions:
        cand, strategy, score = s["candidate"], s["strategy"], s["score"]
        if strategy not in PRIORITY or strategy == "foreign":
            problems.append(f"{token}: unexpected strategy {strategy}")
            continue
        if strategy == "conjoined":
            halves = cand.split(" ")
            if len(halves) != 2 or not all(h in words for h in halves) or score != 0:
                problems.append(f"{token}: bad conjoined pair {cand!r}:{score}")
        else:
            if cand not in words:
                problems.append(f"{token}: {strategy} candidate {cand} not a word")
            if score != distance(token, cand):
                problems.append(f"{token}: {cand} scored {score}, distance {distance(token, cand)}")
        keys.append((score, PRIORITY[strategy], cand))
    if keys != sorted(keys):
        problems.append(f"{token}: suggestions out of order")
    return problems


def check_token(entry: dict, words, parallel: dict[str, str]) -> list[str]:
    """Problems with one report entry (token, verdict, suggestions)."""
    token, verdict, sugg = entry["token"], entry["verdict"], entry["suggestions"]
    if not is_tamil(token):
        want = parallel.get(token.casefold())
        expected = [{"candidate": want, "strategy": "foreign", "score": 0}] if want else []
        if verdict != "nontamil" or sugg != expected:
            return [f"{token}: foreign token gave {verdict} {sugg}"]
        return []
    if token in words:
        return [] if verdict == "valid" and not sugg else [f"{token}: word reported {verdict}"]
    if verdict != "nonword":
        return [f"{token}: non-word reported {verdict}"]
    return check_suggestions(token, sugg, words)


def check_report(entries, expected_tokens, words, parallel) -> list[str]:
    """Problems with a whole document report; each distinct entry is judged once."""
    if [e["token"] for e in entries] != list(expected_tokens):
        return ["report tokens differ from the generated tokens"]
    problems = []
    seen: dict[str, dict] = {}
    for entry in entries:
        prev = seen.get(entry["token"])
        if prev is None:
            seen[entry["token"]] = entry
            problems.extend(check_token(entry, words, parallel))
        elif prev != entry:
            problems.append(f"{entry['token']}: occurrences disagree")
    return problems


def is_clean(entries) -> bool:
    """The CLI's exit rule: no non-word unless it is a recognized pair."""
    return all(
        e["verdict"] != "nonword" or any(s["strategy"] == "conjoined" for s in e["suggestions"])
        for e in entries
    )
