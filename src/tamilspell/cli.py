"""Command-line front end: interactive word checking and file batch mode.

``tamilspell -i`` starts a read-check loop; ``tamilspell FILE...`` checks
documents and prints findings (or a full JSON report with ``--json``).
Exit status: 0 when everything is clean, 1 when misspellings were found,
2 on usage or data-file errors.  A non-word that is a recognized
conjoined pair counts as clean.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from json.encoder import encode_basestring

from . import __version__
from .bundled import bundled_lexicon, bundled_parallel_dict
from .checker import EngineConfig, SpellChecker, Verdict, load_parallel_dict, load_stop_words
from .errors import TamilSpellError, _data_text
from .keyboard import load_confusion_matrix
from .lexicon import load_wordlist

__all__ = ["build_engine", "main", "repl"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tamilspell",
        description="Tamil spelling checker: interactive word lookup or file checking.",
    )
    parser.add_argument("files", nargs="*", metavar="FILE", help="documents to check")
    parser.add_argument("-i", "--interactive", action="store_true", help="interactive word checking")
    parser.add_argument(
        "--dict",
        dest="dictionaries",
        action="append",
        metavar="PATH",
        help="word list file (repeatable; replaces the bundled list)",
    )
    parser.add_argument("--cm", metavar="PATH", help="keyboard confusion matrix file")
    parser.add_argument("--parallel", metavar="PATH", help="foreign-to-Tamil parallel dictionary")
    parser.add_argument("--stopwords", metavar="PATH", help="stop word list (Tamil tokens to skip)")
    ed_help = "edit distance budget (default %(default)s)"
    parser.add_argument("--ed", type=int, default=EngineConfig.edit_distance, metavar="N", help=ed_help)
    parser.add_argument("--json", action="store_true", help="emit a full JSON report for batch mode")
    parser.add_argument("--stats", action="store_true", help="print engine statistics to stderr")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    return parser


def build_engine(args: argparse.Namespace) -> SpellChecker:
    """Construct the engine an argument namespace describes."""
    if args.dictionaries:
        lexicon = load_wordlist(*args.dictionaries)
        if not len(lexicon):
            raise TamilSpellError("the loaded word lists are empty")
    else:
        lexicon = bundled_lexicon()
    matrix = load_confusion_matrix(args.cm) if args.cm else None
    parallel = load_parallel_dict(args.parallel) if args.parallel else bundled_parallel_dict()
    stop_words = load_stop_words(args.stopwords) if args.stopwords else ()
    return SpellChecker(
        lexicon,
        config=EngineConfig(edit_distance=args.ed),
        confusion_matrix=matrix,
        parallel_dict=parallel,
        stop_words=stop_words,
    )


def repl(engine: SpellChecker, in_stream=None, out_stream=None) -> None:
    """Interactive loop: words are read a line at a time, suggestions are numbered.

    A line is split into word tokens as a document is, so each token gets
    the verdict batch mode gives it, and the tokens are answered in turn; a
    line with no word token is skipped.  A token whose verdict is not a
    non-word and that has no suggestion (valid, a stop word, a non-Tamil
    token with no parallel-dictionary entry) is reported correct.  Entering
    an index (decimal digits) after a suggestion list echoes the last
    token's candidate; ``:q`` or end-of-file leaves the loop.
    """
    stdin = in_stream if in_stream is not None else sys.stdin
    stdout = out_stream if out_stream is not None else sys.stdout
    last: list[str] = []

    def say(line: str) -> None:
        print(line, file=stdout)

    while True:
        stdout.write(">> ")
        stdout.flush()
        line = stdin.readline()
        if not line:
            stdout.write("\n")
            break
        entry = line.strip()
        if entry == ":q":
            break
        if entry.isdecimal() and last:
            try:
                say(last[int(entry)])
            except (IndexError, ValueError):  # ValueError: more digits than int() takes
                say(f"எண் {entry} பட்டியலில் இல்லை")
            continue
        for report in engine.check_text(entry).tokens:
            word = report.token
            last = [s.candidate for s in report.suggestions]
            if report.verdict is not Verdict.NON_WORD and not last:
                say(f'சொல் "{word}" சரி')
                continue
            say(f'சொல் "{word}" மாற்றங்கள்')
            if last:
                say(", ".join(f"({i}) {cand}" for i, cand in enumerate(last)))
            else:
                say("(மாற்றங்கள் இல்லை)")


def _check_files(engine: SpellChecker, files: list[str], as_json: bool, out_stream) -> int:
    results = []
    clean = True
    for path in files:
        report = engine.check_text(_data_text(path, TamilSpellError)[1])
        if not report.clean:
            clean = False
        results.append((path, report))
    if as_json:
        # json.dumps(payload, ensure_ascii=False, indent=2) for the payload
        # [{"file": path, "tokens": report.as_dicts()}, ...], written directly;
        # each report is rendered two levels deep.  The pieces are written one
        # by one, so the reports are not copied again.
        head = "[\n  "
        for path, report in results:
            out_stream.write(head + '{\n    "file": ' + encode_basestring(path) + ',\n    "tokens": ')
            out_stream.write(report.to_json(2, _depth=2))
            out_stream.write("\n  }")
            head = ",\n  "
        out_stream.write("\n]\n")
    else:
        for path, report in results:
            for token in report.non_words():
                rendered = "; ".join(
                    f"{s.candidate} ({s.strategy.value}:{s.score})" for s in token.suggestions
                )
                print(f"{path}\t{token.token}\t{rendered}", file=out_stream)
    return 0 if clean else 1


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.ed < 1:
        parser.error(f"argument --ed: must be at least 1, got {args.ed}")
    if not args.interactive and not args.files:
        parser.print_usage(sys.stderr)
        print("tamilspell: error: give FILEs to check or -i for interactive mode", file=sys.stderr)
        return 2
    started = time.perf_counter()
    try:
        engine = build_engine(args)
        if args.interactive:
            repl(engine)
            status = 0
        else:
            status = _check_files(engine, args.files, args.json, sys.stdout)
    except (TamilSpellError, OSError) as exc:
        print(f"tamilspell: error: {exc}", file=sys.stderr)
        return 2
    if args.stats:
        elapsed = time.perf_counter() - started
        stats = engine.stats
        stats["elapsed_seconds"] = round(elapsed, 3)
        print(json.dumps(stats, ensure_ascii=False), file=sys.stderr)
    return status


if __name__ == "__main__":
    sys.exit(main())
