from __future__ import annotations

import random
import re

import pytest

from tamilspell.bundled import bundled_confusion_matrix, bundled_lexicon, bundled_parallel_dict
from oracles import LETTERS
from tamilspell.lexicon import Lexicon

_ACCEPTANCE_TEST = re.compile(r"test_acceptance\.py::test_c(\d+)_")


def pytest_runtest_logreport(report):
    match = _ACCEPTANCE_TEST.search(report.nodeid)
    if not match:
        return
    import acceptance_report

    criterion = int(match.group(1))
    if report.when == "call":
        if report.passed:
            status = "PASS"
        elif report.skipped:
            status = "SKIP"
        else:
            status = "FAIL"
        acceptance_report.record_status(criterion, status)
    elif report.failed:
        acceptance_report.record_status(criterion, "FAIL")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    import acceptance_report

    if not acceptance_report.results:
        return
    terminalreporter.section("acceptance criteria")
    for criterion in sorted(acceptance_report.results):
        entry = acceptance_report.results[criterion]
        status = entry.get("status", "FAIL")
        line = f"[ACCEPTANCE] C{criterion} {status} - {acceptance_report.LABELS[criterion]}"
        detail = entry.get("detail")
        if detail:
            line += f" ({detail})"
        terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def fixture_lexicon() -> Lexicon:
    return bundled_lexicon()


@pytest.fixture(scope="session")
def fixture_matrix():
    return bundled_confusion_matrix()


@pytest.fixture(scope="session")
def fixture_parallel() -> dict[str, str]:
    return bundled_parallel_dict()


@pytest.fixture
def walk_calls(monkeypatch) -> tuple[list, list]:
    """Every ``within_distance`` budget and every ``first_at_distance`` count, in call order."""
    budgets: list = []
    searches: list = []
    walk, search = Lexicon.within_distance, Lexicon.first_at_distance
    monkeypatch.setattr(
        Lexicon, "within_distance", lambda *args: budgets.append(args[2]) or walk(*args)
    )
    monkeypatch.setattr(
        Lexicon, "first_at_distance", lambda *args: searches.append(args[3]) or search(*args)
    )
    return budgets, searches


@pytest.fixture
def make_lexicon():
    def _make(*words: str) -> Lexicon:
        return Lexicon(words)

    return _make


def random_letter_word(rng: random.Random, min_len: int = 1, max_len: int = 6) -> str:
    """A random word over the standard letter table.

    Standard-table letters never merge across a concatenation (the only
    merging pair, க் + ஷ…, needs a grantha letter), so the word's
    tokenization is exactly the letters drawn.
    """
    table = LETTERS
    n = rng.randint(min_len, max_len)
    return "".join(rng.choice(table) for _ in range(n))
