"""Shared registry the acceptance tests and the summary hook write into."""

from __future__ import annotations

LABELS = {
    1: "confusable-series suggestion membership",
    2: "conjoined compound recognition",
    3: "recognized ottru splits against the split oracle, and reconstruction",
    4: "letter table totals and uyirmei round-trip",
    5: "single-edit oracle counts, and edit walk equal to the leveled oracle",
    6: "keyboard walk equal to the brute-force lattice, pruned below full",
    7: "tamil code point screening over U+0000..U+2000",
    8: "suggestion cache single computation and hit count",
    9: "byte-identical reports across fresh and warm engines",
    10: "foreign token substitution and passthrough",
}

results: dict[int, dict] = {}


def record_status(criterion: int, status: str) -> None:
    results.setdefault(criterion, {})["status"] = status


def record_detail(criterion: int, detail: str) -> None:
    results.setdefault(criterion, {})["detail"] = detail
