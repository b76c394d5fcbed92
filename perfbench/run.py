"""tamilspell benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload doc --seed 1 --seconds 10 --trace 0

Run from the repository root; the package is imported from ``src``.
Each run is one process at ``workers=1`` and drives the package only
through its public entry points: ``SpellChecker`` with the default
``EngineConfig()``, ``check_word``, ``check_text``, ``CheckReport.to_json``,
``load_wordlist``, the ``bundled_*`` loaders and ``python -m tamilspell``.

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` measures the
per-layer metrics with :mod:`tracer` and the tracing overhead.  Every
output is checked by :mod:`oracle`; an exception or a failed check counts
as a failed operation.  Metric definitions are in ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import gc
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
sys.path.insert(0, str(SRC))

import oracle  # noqa: E402
import workloads  # noqa: E402
from speed import Speedometer, Timer  # noqa: E402
from tracer import STRATEGIES, Tracer  # noqa: E402

# Fresh-process set-ups per run; the median is reported.
SETUP_REPS = {"doc": 5, "typos": 5, "big-lexicon": 3}
# Share of --seconds given to document passes before the word stream.
DOC_SHARE = {"doc": 0.6, "typos": 0.5, "big-lexicon": 0.45}
MIN_DOC_REPS = 3
# CLI children per run, one at a time; the median is reported.  The short
# documents need several to be steady; big-lexicon's child runs for seconds.
CLI_REPS = {"doc": 3, "typos": 5, "big-lexicon": 1}
WARM_SECONDS = 0.2
# Words checked untraced and then traced in a --trace 1 run.
TRACE_WORDS = {"doc": 4000, "typos": 120, "big-lexicon": 40}
# Traced words whose edit recall is computed by brute force.
RECALL_WORDS = {"doc": None, "typos": 120, "big-lexicon": 20}
NEIGHBOURHOOD_SAMPLE = {"doc": 45, "typos": 40, "big-lexicon": 8}

END_TO_END_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "tokens_per_s_cold": "tokens/s",
    "tokens_per_s_warm": "tokens/s",
    "cli_wall_s": "s",
    "words_per_s": "words/s",
    "word_latency_p50_ms": "ms",
    "word_latency_p95_ms": "ms",
    "top1_recall": "fraction",
    "top10_recall": "fraction",
}

LAYER_UNITS = {
    "letters.tokenize.calls": "count",
    "letters.tokenize.us": "us",
    "lexicon.probes": "count",
    "lexicon.hit_ratio": "fraction",
    "lexicon.probe_us": "us",
    "lexicon.load_s": "s",
    "lexicon.bytes_per_word": "B",
    "conjoined.ms_per_word": "ms",
    "conjoined.hits": "count",
    "mayangoli.ms_per_word": "ms",
    "mayangoli.hits": "count",
    "keyboard.ms_per_word": "ms",
    "keyboard.hits": "count",
    "edits.ms_per_word": "ms",
    "edits.hits": "count",
    "edits.probes_per_word": "count",
    "edits.useful_ratio": "fraction",
    "edits.recall": "fraction",
    "edits.distance.calls": "count",
    "edits.distance.us": "us",
    "checker.self_ms_per_word": "ms",
    "checker.cache.hit_ratio": "fraction",
    "checker.cache.entries": "count",
    "checker.json_ms": "ms",
    "cli.build_engine_s": "s",
    "cli.main_s": "s",
    "trace.untraced_word_ms": "ms",
    "trace.word_ms": "ms",
    "trace.overhead_ms_per_word": "ms",
    "trace.self_sum_ms_per_word": "ms",
}


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def scale(timer: Timer) -> float:
    """Normalised over raw time of a timer's intervals, for span times inside them."""
    return sum(timer.values) / sum(timer.raw)


def reference_by_phase(meter: Speedometer, timers: dict[str, Timer]) -> dict:
    """Mean reference time inside each phase's intervals, and in the gaps between all of them."""
    out = {name: meter.reference_us(t.spans)[0] for name, t in timers.items()}
    out["idle"] = meter.reference_us([span for t in timers.values() for span in t.spans])[1]
    return out


class Run:
    def __init__(self, workload: str, seed: int, seconds: int, meter: Speedometer):
        import tamilspell
        from tamilspell.bundled import bundled_lexicon, bundled_parallel_dict

        self.tamilspell = tamilspell
        self.bundled_lexicon = bundled_lexicon
        self.bundled_parallel_dict = bundled_parallel_dict
        self.meter = meter
        self.w = workloads.build(workload, seed)
        self.words = self.w.word_set()
        self.parallel = {k.casefold(): v for k, v in bundled_parallel_dict().items()}
        self.seconds = seconds
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.samples: dict[str, int] = {}
        self.reference_json: str | None = None
        self.verdicts: dict[str, dict] = {}
        self.recall: dict[str, tuple[bool, bool]] = {}  # typo -> (top-1 hit, top-10 hit)
        self.recall_set = {t.token for t in self.w.quality if t.kind in workloads.RECOVERABLE}
        OUT.mkdir(exist_ok=True)
        stem = OUT / f"{workload}-{seed}-{os.getpid()}"
        self.doc_path = stem.with_suffix(".doc.txt")
        self.doc_path.write_text(self.w.doc_text, encoding="utf-8")
        self.lex_path = None
        if workload == "big-lexicon":
            self.lex_path = stem.with_suffix(".words.txt")
            self.lex_path.write_text("\n".join(self.w.words) + "\n", encoding="utf-8")

    def close(self) -> None:
        for path in (self.doc_path, self.lex_path):
            if path is not None:
                path.unlink(missing_ok=True)

    # ------------------------------------------------------------------ #
    # Operations and their checks

    def op(self, problems) -> None:
        """Count one operation; it fails when it has any problem."""
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems[:3])

    def load_lexicon(self):
        if self.lex_path is None:
            return self.bundled_lexicon()
        return self.tamilspell.load_wordlist(self.lex_path)

    def engine(self, lexicon):
        ts = self.tamilspell
        return ts.SpellChecker(lexicon, config=ts.EngineConfig(), parallel_dict=self.bundled_parallel_dict())

    def setup_child(self, timer: Timer) -> dict:
        """One fresh-process set-up, timed to its first answer."""
        cmd = [sys.executable, str(HERE / "setup_child.py"), str(SRC), self.w.words[0]]
        if self.lex_path is not None:
            cmd.append(str(self.lex_path))
        start = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, encoding="utf-8") as proc:
            line = proc.stdout.readline()
            timer.spans.append((start, time.perf_counter()))
            proc.stdout.read()
            status = proc.wait(timeout=120)
        try:
            info = json.loads(line)
        except ValueError:
            info = {}
        ok = status == 0 and info.get("verdict") == "valid"
        self.op([] if ok else [f"setup child exited {status}: {line!r}"])
        return info

    def doc_pass(self, engine) -> str:
        return engine.check_text(self.w.doc_text).to_json()

    def check_doc_json(self, text: str) -> None:
        if self.reference_json is None:
            self.reference_json = text
            entries = json.loads(text)
            self.op(oracle.check_report(entries, self.w.doc_tokens, self.words, self.parallel))
        else:
            self.op([] if text == self.reference_json else ["document JSON differs between passes"])

    def expected_status(self) -> int:
        return 0 if oracle.is_clean(json.loads(self.reference_json or "[]")) else 1

    def run_cli(self, timer: Timer) -> None:
        cmd = [sys.executable, "-m", "tamilspell", "--json", str(self.doc_path)]
        if self.lex_path is not None:
            cmd += ["--dict", str(self.lex_path)]
        env = dict(os.environ, PYTHONPATH=str(SRC))
        proc = timer.time(subprocess.run, cmd, cwd=ROOT, env=env, capture_output=True, timeout=150)
        problems = []
        if proc.returncode != self.expected_status():
            problems.append(f"CLI exited {proc.returncode}: {proc.stderr[-300:]!r}")
        try:
            payload = json.loads(proc.stdout)
            if [p["tokens"] for p in payload] != [json.loads(self.reference_json or "[]")]:
                problems.append("CLI JSON differs from the in-process report")
        except (ValueError, KeyError, TypeError):
            problems.append("CLI output is not the expected JSON")
        self.op(problems)

    def check_words(self, engine, typos, timer: Timer, deadline=None, minimum=0) -> None:
        """Closed loop of check_word, each call timed by ``timer``.

        Stops at ``deadline`` once ``minimum`` words are done.  The first
        answer for each recoverable typo of the workload's recall set is
        scored into ``self.recall``.
        """
        for i, typo in enumerate(typos):
            if i >= minimum and deadline is not None and time.perf_counter() >= deadline:
                break
            try:
                entry = timer.time(engine.check_word, typo.token).as_dict()
            except Exception as exc:  # a crash is a failed operation, not a benchmark error
                self.op([f"{typo.token}: {exc!r}"])
                continue
            self.op(self.check_word_entry(entry))
            if typo.token in self.recall_set and typo.token not in self.recall:
                cands = [s["candidate"] for s in entry["suggestions"]]
                self.recall[typo.token] = (bool(cands) and cands[0] == typo.source, typo.source in cands)

    def check_word_entry(self, entry: dict) -> list[str]:
        prev = self.verdicts.get(entry["token"])
        if prev is not None:
            return [] if prev == entry else [f"{entry['token']}: answer changed between calls"]
        self.verdicts[entry["token"]] = entry
        return oracle.check_token(entry, self.words, self.parallel)

    # ------------------------------------------------------------------ #

    def end_to_end(self) -> tuple[dict[str, float], dict]:
        w, meter = self.w, self.meter
        setups = Timer(meter)
        for _ in range(SETUP_REPS[w.name]):
            self.setup_child(setups)
        lexicon = self.load_lexicon()
        began = time.perf_counter()

        # Each repetition: a fresh engine, one cold pass, then warm passes
        # for at least WARM_SECONDS so that short documents time steadily.
        cold, warm = Timer(meter), Timer(meter)
        while len(cold.spans) < MIN_DOC_REPS or time.perf_counter() - began < DOC_SHARE[w.name] * self.seconds:
            engine = self.engine(lexicon)
            gc.collect()
            self.check_doc_json(cold.time(self.doc_pass, engine))
            warm_began = time.perf_counter()
            while time.perf_counter() - warm_began < WARM_SECONDS:
                self.check_doc_json(warm.time(self.doc_pass, engine))

        cli = Timer(meter)
        for _ in range(CLI_REPS[w.name]):
            self.run_cli(cli)

        engine = self.engine(lexicon)
        words = Timer(meter)
        gc.collect()
        self.check_words(engine, w.stream, words, began + self.seconds, w.min_words)
        rest = [t for t in w.quality if t.token in self.recall_set and t.token not in self.recall]
        self.check_words(engine, rest, Timer(meter))
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        scored = len(self.recall)

        tokens = len(w.doc_tokens)
        timers = {"setup_s": setups, "cold": cold, "warm": warm, "cli": cli, "words": words}

        def summary(values) -> dict[str, float]:
            return {
                "setup_s": statistics.median(values["setup_s"]),
                "tokens_per_s_cold": tokens / statistics.median(values["cold"]),
                "tokens_per_s_warm": tokens / statistics.median(values["warm"]),
                "cli_wall_s": statistics.median(values["cli"]),
                "words_per_s": len(values["words"]) / sum(values["words"]),
                "word_latency_p50_ms": percentile(values["words"], 0.50) * 1e3,
                "word_latency_p95_ms": percentile(values["words"], 0.95) * 1e3,
            }

        metrics = summary({name: t.values for name, t in timers.items()})
        metrics.update(
            peak_rss_mb=peak_mb,
            top1_recall=sum(top1 for top1, _ in self.recall.values()) / scored,
            top10_recall=sum(top10 for _, top10 in self.recall.values()) / scored,
        )
        counts = {name: len(t.spans) for name, t in timers.items()}
        self.samples = {
            "setup_s": counts["setup_s"], "peak_rss_mb": 1,
            "tokens_per_s_cold": counts["cold"], "tokens_per_s_warm": counts["warm"],
            "cli_wall_s": counts["cli"], "words_per_s": counts["words"],
            "word_latency_p50_ms": counts["words"], "word_latency_p95_ms": counts["words"],
            "top1_recall": scored, "top10_recall": scored,
        }
        extra = {
            "raw_times": summary({name: t.raw for name, t in timers.items()}),
            "reference_us": reference_by_phase(meter, timers),
        }
        return {name: metrics[name] for name in END_TO_END_UNITS}, extra

    def per_layer(self) -> tuple[dict[str, float], dict]:
        w, meter = self.w, self.meter
        info = self.setup_child(Timer(meter))
        rss_delta_kb = info.get("rss_after_kb", 0) - info.get("rss_before_kb", 0)

        tracer = Tracer()
        tracer.install()
        mark = tracer.mark()
        load_timer = Timer(meter)
        lexicon = load_timer.time(self.load_lexicon)
        load = tracer.since(mark)
        tracer.uninstall()

        # Each word goes to an untraced and then a traced engine, so both
        # sides of the overhead see the same host speed.
        typos = w.stream[: TRACE_WORDS[w.name] or len(w.stream)]
        plain_engine, engine = self.engine(lexicon), self.engine(lexicon)
        plain, traced = Timer(meter), Timer(meter)
        gc.collect()
        mark = tracer.mark()
        for typo in typos:
            self.check_words(plain_engine, [typo], plain)
            tracer.install()
            tracer.op += 1
            self.check_words(engine, [typo], traced)
            tracer.uninstall()
        words = tracer.since(mark)

        tracer.install()
        engine = self.engine(lexicon)
        gc.collect()
        tracer.op += 1
        self.check_doc_json(self.doc_pass(engine))
        tracer.op += 1
        mark = tracer.mark()
        warm_timer = Timer(meter)
        self.check_doc_json(warm_timer.time(self.doc_pass, engine))
        warm = tracer.since(mark)
        stats = getattr(engine, "stats", {})
        cache_calls = stats.get("cache_hits", 0) + stats.get("cache_misses", 0)

        # The CLI loads the bundled data itself, as its own process would.
        bundled = sys.modules.get("tamilspell.bundled")
        for name in ("bundled_lexicon", "bundled_confusion_matrix", "bundled_parallel_dict"):
            getattr(getattr(bundled, name, None), "cache_clear", lambda: None)()
        tracer.op += 1
        mark = tracer.mark()
        argv = ["--json", str(self.doc_path)] + (["--dict", str(self.lex_path)] if self.lex_path else [])
        cli_timer = Timer(meter)
        with contextlib.redirect_stdout(io.StringIO()):
            status = cli_timer.time(self.tamilspell.cli.main, argv)
        cli = tracer.since(mark)
        tracer.uninstall()
        tokenize_us = self.tokenize_us(Timer(meter))
        self.op([] if status == self.expected_status() else [f"cli.main returned {status}"])
        tracer.dump(OUT / f"trace-{w.name}-{w.seed}.json.gz")

        # Span nanoseconds to normalised units, each phase at its own speed.
        n = len(traced.spans)
        word_ms = 1e6 * n / scale(traced)
        warm_f, cli_f, load_f = scale(warm_timer), scale(cli_timer), scale(load_timer)
        untraced_ms = statistics.fmean(plain.values) * 1e3
        traced_ms = statistics.fmean(traced.values) * 1e3
        layer_ns = words.layer_self_ns()
        edit_probes, _ = words.probe_counts("edits.suggest")
        probes, probe_hits = words.probe_counts()
        edit_hits = words.hits["edits.suggest", None]
        distance_calls = words.calls("edits.letter_edit_distance", None)
        metrics = {
            "letters.tokenize.calls": warm.calls("letters.tokenize"),
            "letters.tokenize.us": tokenize_us,
            "lexicon.probes": probes,
            "lexicon.hit_ratio": probe_hits / max(probes, 1),
            "lexicon.probe_us": warm.total_ns["lexicon.is_word"] * warm_f
            / max(warm.timed["lexicon.is_word"], 1) / 1e3,
            "lexicon.load_s": load.total_ns["lexicon.load_wordlist"] * load_f / 1e9,
            "lexicon.bytes_per_word": rss_delta_kb * 1024 / len(w.words),
            "edits.recall": self.edit_recall(tracer, words, typos[: RECALL_WORDS[w.name] or len(typos)]),
            "edits.probes_per_word": edit_probes / n,
            "edits.useful_ratio": edit_hits / max(edit_probes, 1),
            "edits.distance.calls": distance_calls,
            "edits.distance.us": words.self_ns["edits.letter_edit_distance"] * scale(traced)
            / max(distance_calls, 1) / 1e3,
            "checker.self_ms_per_word": words.self_ns["checker.check_word"] / word_ms,
            "checker.cache.hit_ratio": stats.get("cache_hits", 0) / max(cache_calls, 1),
            "checker.cache.entries": len(engine.cache) if hasattr(engine, "cache") else stats.get("cache_misses", 0),
            "checker.json_ms": warm.total_ns["checker.to_json"] * warm_f / 1e6,
            "cli.build_engine_s": cli.total_ns["cli.build_engine"] * cli_f / 1e9,
            "cli.main_s": cli.total_ns["cli.main"] * cli_f / 1e9,
            "trace.untraced_word_ms": untraced_ms,
            "trace.word_ms": traced_ms,
            "trace.overhead_ms_per_word": traced_ms - untraced_ms,
            "trace.self_sum_ms_per_word": sum(layer_ns.values()) / word_ms,
        }
        for name in STRATEGIES:
            layer = name.split(".")[0]
            metrics[f"{layer}.ms_per_word"] = words.self_ns[name] / word_ms
            metrics[f"{layer}.hits"] = words.hits[name, None]
        self.samples = {"words": n, "untraced_words": len(plain.spans), "spans": len(tracer.spans)}
        extra = {
            "absent_layers": tracer.absent,
            "layer_self_ms_per_word": {k: round(v / word_ms, 4) for k, v in sorted(layer_ns.items())},
            "raw_word_ms": {"untraced": statistics.fmean(plain.raw) * 1e3, "traced": statistics.fmean(traced.raw) * 1e3},
            "reference_us": reference_by_phase(
                meter, {"load": load_timer, "untraced": plain, "traced": traced, "warm": warm_timer, "cli": cli_timer}
            ),
        }
        return {name: metrics[name] for name in LAYER_UNITS}, extra

    def tokenize_us(self, timer: Timer) -> float:
        """Mean ``letters.tokenize`` time on the document's Tamil tokens, untraced.

        The checker tokenizes inside lexicon probes, which the tracer does
        not time, so the letter layer is timed directly; 0 if it is gone.
        """
        tokenize = getattr(sys.modules.get("tamilspell.letters"), "tokenize", None)
        tamil = [t for t in self.w.doc_tokens if oracle.is_tamil(t)]
        if tokenize is None or not tamil:
            return 0.0
        reps = max(1, 20000 // len(tamil))
        for _ in range(reps):
            timer.time(collections.deque, map(tokenize, tamil), 0)
        return sum(timer.values) / (reps * len(tamil)) * 1e6

    def edit_recall(self, tracer, words_phase, typos) -> float:
        """Edit hits / lexicon words within distance 2, over ``typos``."""
        first_op = words_phase.spans[0][4] if words_phase.spans else 0
        neighbourhoods = oracle.Neighbourhoods(self.w.words)
        found = total = 0
        for op, typo in enumerate(typos, first_op):
            if op in tracer.edit_candidates:
                near = neighbourhoods.within(typo.token)
                found += len(near & set(tracer.edit_candidates[op]))
                total += len(near)
        return found / max(total, 1)

    def metadata(self) -> dict:
        return {
            "workload": self.w.name,
            "seed": self.w.seed,
            "generator_key": f"tamilspell-bench:{self.w.name}:{self.w.seed}",
            "commit": git_commit(),
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "kernel_backend": (
                self.tamilspell.kernel_backend() if hasattr(self.tamilspell, "kernel_backend") else None
            ),
            "src_lines": sum(
                len(p.read_text(encoding="utf-8").splitlines()) for p in (SRC / "tamilspell").rglob("*.py")
            ),
        }


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git; None outside a repository."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            name = ref[5:]
            path = ROOT / ".git" / name
            if path.exists():
                return path.read_text().strip()
            for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
                if line.endswith(" " + name):
                    return line.split()[0]
            return None
        return ref
    except OSError:
        return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    hash_seed = str(args.seed % 2**32)
    if os.environ.get("PYTHONHASHSEED") != hash_seed and argv is None:
        # String hashing changes dict layouts, which moves microsecond
        # latencies by about 10% between processes.  Derive it from --seed,
        # for this process and its children, so that a run is reproducible
        # and a set of seeds samples the layouts a change could land on.
        os.execve(sys.executable, [sys.executable, *sys.argv], dict(os.environ, PYTHONHASHSEED=hash_seed))
    try:
        import tamilspell
        import tamilspell.cli  # noqa: F401
    except ImportError as exc:
        print(f"perfbench: cannot import tamilspell from {SRC}: {exc}", file=sys.stderr)
        return 2
    if not Path(tamilspell.__file__).resolve().is_relative_to(SRC):
        print(f"perfbench: tamilspell was imported from {tamilspell.__file__}, not {SRC}", file=sys.stderr)
        return 2

    # One core for this process and its children, so that the speedometer
    # samples the core the timed work runs on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    with Speedometer() as meter:
        run = Run(args.workload, args.seed, args.seconds, meter)
        try:
            if args.trace:
                metrics, extra = run.per_layer()
                units = LAYER_UNITS
            else:
                metrics, extra = run.end_to_end()
                units = END_TO_END_UNITS
        finally:
            run.close()
    sample = NEIGHBOURHOOD_SAMPLE[args.workload]
    descriptors = workloads.describe(run.w, oracle.Neighbourhoods(run.w.words), sample)

    for name, value in metrics.items():
        print(f"{name:32s} {value:>16.6g} {units[name]:10s} samples={run.samples.get(name, '-')}")
    record = {
        "meta": run.metadata(),
        "workload": descriptors,
        "samples": run.samples,
        "problems": run.problems[:20],
        "speed_factor": meter.factor(),
        **extra,
    }
    print(json.dumps({"run": record}, ensure_ascii=False))
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
