"""ajparse benchmark: seeded workloads run through ``ajparse.cli.main``.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload treebank-long --seed 1 --seconds 25 --trace 0

``--trace 0`` sets up the workload several times, runs one warm-up pass of
its CLI commands with ``tracemalloc`` on, then repeats timed passes for about
``--seconds`` seconds and reports the end-to-end metrics: the median set-up,
means over the timed passes, and the sum of the warm-up commands' heap
peaks.
``--trace 1`` runs one untraced and one traced pass of
every workload's commands, whatever ``--seconds`` says, and reports the
per-layer metrics.  Either way the last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``;
a fuller report goes to ``perfbench/out/``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import tracemalloc
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Callable

import inputs
from tracer import Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

WORKLOADS = ("treebank-long", "parse-many-labels", "exhaustive")
SETUP_REPEATS = 3  # before the warm-up pass
SETUPS_PER_PASS = 2  # after each timed pass
IMPORT_REPEATS = 3  # per set-up
MIN_PASSES = 2  # timed, after one untimed warm-up pass
# Seconds the reference loop takes on an idle core of a 2-vCPU Xeon VM.
REF_NOMINAL_S = 0.025
CASES = ("1-1", "1-2", "1-3", "2-1", "2-2", "2-3")

_RESULT = re.compile(r"^RESULT ok=(\d+) fail=(\d+)$", re.M)


def load_package():
    """Import ajparse from this checkout's ``src/`` and nowhere else."""
    # Keep bytecode under perfbench/out/, whatever PYTHONDONTWRITEBYTECODE
    # says, so that set-up times the same import in every environment.
    sys.pycache_prefix = str(OUT / "pycache")
    sys.dont_write_bytecode = False
    sys.path.insert(0, str(SRC))
    try:
        import ajparse
        import ajparse.cli
        import ajparse.synth
    except ImportError as err:
        raise SystemExit(f"perfbench: cannot import ajparse from {SRC}: {err}")
    where = Path(ajparse.__file__).resolve().parent
    if where != (SRC / "ajparse").resolve():
        raise SystemExit(f"perfbench: ajparse resolved to {where}, not {SRC / 'ajparse'}")
    return ajparse


def environment(ajparse) -> dict:
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=30,
            ).stdout.strip() or commit
        except OSError:
            pass
    sources = sorted(SRC.rglob("*.py"))
    blob = b"".join(p.relative_to(SRC).as_posix().encode() + b"\0" + p.read_bytes()
                    for p in sources)
    return {
        "ajparse_file": ajparse.__file__,
        "git_commit": commit,
        "src_digest": inputs.digest(blob),
        "src_lines": sum(p.read_bytes().count(b"\n") for p in sources),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
    }


class Reference:
    """Samples ``reference.py``'s loop in a helper process.

    The machine this runs on is shared: the same pass can take 40 % longer
    from one minute to the next, and within a second the core flips between
    a fast and a slow speed.  The benchmark samples the loop between
    commands and multiplies each timing by REF_NOMINAL_S over the mean of
    the two samples on either side of it, which cancels most of that drift.
    The loop does not use ajparse, so a change to the package moves only
    the timings.
    """

    def __init__(self):
        self.samples = []
        self._proc = subprocess.Popen(
            [sys.executable, "-I", str(BENCH / "reference.py")], cwd=ROOT,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def sample(self) -> None:
        self._proc.stdin.write("\n")
        self._proc.stdin.flush()
        self.samples.append(float(self._proc.stdout.readline()))

    def scale(self) -> float:
        """The factor for timings made since the first sample."""
        return REF_NOMINAL_S / statistics.fmean(self.samples)

    def scaled(self, seconds: float) -> float:
        """``seconds``, timed between the last two samples, at the reference
        speed of those two samples."""
        return 2 * REF_NOMINAL_S * seconds / (self.samples[-2] + self.samples[-1])

    def close(self) -> None:
        self._proc.stdin.close()
        try:
            self._proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()


def import_seconds() -> float:
    """Mean time to import ``ajparse.cli`` and the package modules it pulls
    in, over ``IMPORT_REPEATS`` imports.

    The package's modules are taken out of ``sys.modules``, imported again
    and then put back, so the benchmark keeps running the modules it loaded
    first.  The standard-library modules they use stay loaded.  Ten means of
    ten imports each, taken in one run, spread by 3 % this way and by 11 %
    when each import ran in a fresh interpreter.
    """
    def ours():
        return [name for name in sys.modules if name.split(".")[0] == "ajparse"]

    kept = {name: sys.modules.pop(name) for name in ours()}
    total = 0.0
    try:
        for _ in range(IMPORT_REPEATS):
            start = perf_counter()
            importlib.import_module("ajparse.cli")
            total += perf_counter() - start
            for name in ours():
                del sys.modules[name]
    finally:
        for name in ours():
            del sys.modules[name]
        sys.modules.update(kept)
    return total / IMPORT_REPEATS


# -- workloads -----------------------------------------------------------


@dataclass
class Step:
    key: str
    argv: list
    items: int  # sentences or checks the command must report as ok
    check: Callable[[str], list] = lambda stdout: []
    outputs: tuple = ()  # files whose bytes must repeat on every pass


@dataclass
class Pipeline:
    steps: list
    facts: dict
    digests: dict = field(default_factory=dict)


def _write(path: Path, lines) -> str:
    data = "".join(line + "\n" for line in lines).encode()
    path.write_bytes(data)
    return inputs.digest(data)


def _score_line(stdout: str, key: str) -> float:
    m = re.search(rf"^{key} ([0-9.]+)$", stdout, re.M)
    return float(m.group(1)) if m else float("nan")


def _check_self_score(stdout: str) -> list:
    if _score_line(stdout, "F1") == 100.0 and _score_line(stdout, "EM") == 1.0:
        return []
    return ["self-score is not F1 100.00 / EM 1.00"]


def _check_lines(path: Path, expected: list, measure, what: str) -> Callable:
    def check(stdout: str) -> list:
        lines = path.read_text(encoding="utf-8").splitlines()
        if len(lines) != len(expected):
            return [f"{path.name}: {len(lines)} lines, expected {len(expected)}"]
        return [f"{path.name} line {i}: {what}"
                for i, (line, want) in enumerate(zip(lines, expected))
                if measure(line) != want]
    return check


def setup_treebank_long(ajparse, seed: int, work: Path) -> Pipeline:
    trees = inputs.treebank_long(ajparse.synth, seed)
    gold, isr = work / "long.mrg", work / "long.isr"
    digest = _write(gold, map(inputs.to_bracket, trees))
    n = len(trees)
    isr_lengths = [len(inputs.leaves(t)) + 2 * inputs.internal_count(t) for t in trees]
    return Pipeline(
        steps=[
            Step("verify", ["verify", str(gold)], n),
            Step("translate_isr", ["translate-isr", str(gold), str(isr)], n,
                 _check_lines(isr, isr_lengths, lambda l: len(l.split()),
                              "ISR length is not n + 2m"), (isr,)),
            Step("score", ["score", str(gold), str(gold)], n, _check_self_score),
        ],
        facts={"sentences": n, "tokens": sum(len(inputs.leaves(t)) for t in trees),
               "max_tokens": max(len(inputs.leaves(t)) for t in trees)},
        digests={"long.mrg": digest},
    )


def setup_many_labels(ajparse, seed: int, work: Path) -> Pipeline:
    train, test, test10 = inputs.many_labels(ajparse.synth, seed)
    p = {k: work / k for k in ("train.mrg", "test.mrg", "test.txt", "test10.mrg",
                               "test10.txt", "model", "out1.mrg", "out10.mrg")}
    digests = {"train.mrg": _write(p["train.mrg"], map(inputs.to_bracket, train))}
    for gold, text, trees in (("test.mrg", "test.txt", test),
                              ("test10.mrg", "test10.txt", test10)):
        digests[gold] = _write(p[gold], map(inputs.to_bracket, trees))
        digests[text] = _write(p[text], (
            " ".join(f"{w}_{pos}" for pos, w in inputs.leaves(t)) for t in trees))

    epochs = str(inputs.TRAIN_EPOCHS)
    return Pipeline(
        steps=[
            Step("train", ["train", str(p["train.mrg"]), "--model", str(p["model"]),
                           "--epochs", epochs, "--seed", str(inputs.TRAIN_SEED)], len(train),
                 outputs=(p["model"],)),
            Step("parse_beam1", ["parse", str(p["test.txt"]), str(p["out1.mrg"]),
                                 "--model", str(p["model"]), "--beam", "1"], len(test),
                 _check_lines(p["out1.mrg"], [inputs.leaves(t) for t in test],
                              inputs.bracket_leaves,
                              "parse lost the input tokens"), (p["out1.mrg"],)),
            Step("parse_beam10", ["parse", str(p["test10.txt"]), str(p["out10.mrg"]),
                                  "--model", str(p["model"]), "--beam", "10"], len(test10),
                 _check_lines(p["out10.mrg"], [inputs.leaves(t) for t in test10],
                              inputs.bracket_leaves,
                              "parse lost the input tokens"), (p["out10.mrg"],)),
            Step("score_beam1", ["score", str(p["test.mrg"]), str(p["out1.mrg"])], len(test)),
            Step("score_beam10", ["score", str(p["test10.mrg"]), str(p["out10.mrg"])],
                 len(test10)),
            Step("verify", ["verify", str(p["train.mrg"])], len(train)),
        ],
        facts={"train_sentences": len(train), "epochs": inputs.TRAIN_EPOCHS,
               "train_tokens": sum(len(inputs.leaves(t)) for t in train),
               "test_tokens": sum(len(inputs.leaves(t)) for t in test),
               "test10_tokens": sum(len(inputs.leaves(t)) for t in test10),
               "test10_trees": test10, "labels": inputs.labels(train)},
        digests=digests,
    )


def _check_exhaustive(stdout: str) -> list:
    m = re.search(r"^trees checked: (\d+)$", stdout, re.M)
    want = inputs.unary_free_tree_count(inputs.EXHAUSTIVE_N_MAX, inputs.EXHAUSTIVE_VOCAB)
    if not m or int(m.group(1)) != want:
        return [f"trees checked is {m and m.group(1)}, closed form gives {want}"]
    return []


def setup_exhaustive(ajparse, seed: int, work: Path) -> Pipeline:
    # The bounds are the whole input; the seed has nothing to draw.
    argv = ["enumerate-check", "--n-max", str(inputs.EXHAUSTIVE_N_MAX),
            "--vocab-size", str(inputs.EXHAUSTIVE_VOCAB)]
    return Pipeline(
        steps=[Step("enumerate_check", argv, 0, _check_exhaustive)],
        facts={"n_max": inputs.EXHAUSTIVE_N_MAX, "vocab_size": inputs.EXHAUSTIVE_VOCAB},
        digests={"argv": inputs.digest(" ".join(argv).encode())},
    )


SETUP = {
    "treebank-long": setup_treebank_long,
    "parse-many-labels": setup_many_labels,
    "exhaustive": setup_exhaustive,
}


# -- running -------------------------------------------------------------


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)

    def miss(self, message: str, count: int = 1) -> None:
        self.failed += count
        if len(self.problems) < 20:
            self.problems.append(message)


def run_step(ajparse, step: Step, tally: Tally, tracer=None, heap=None):
    """Run one CLI command; returns (seconds, stdout, output digests).

    With a ``heap`` dict, the command runs under ``tracemalloc`` and
    ``heap[step.key]`` gets the peak bytes it allocated and still held at
    one time."""
    out, err = io.StringIO(), io.StringIO()
    rc = None
    if heap is not None:
        tracemalloc.start()
    start = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if tracer is None:
                rc = ajparse.cli.main(step.argv)
            else:
                tracer.begin_command(step.key)
                with tracer.span(f"cli.{step.key}"):
                    rc = ajparse.cli.main(step.argv)
    except Exception:  # a crash is a failed command, not a failed benchmark
        err.write(traceback.format_exc())
    seconds = perf_counter() - start
    if heap is not None:
        heap[step.key] = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    stdout = out.getvalue()
    found = _RESULT.findall(stdout)
    ok, fail = map(int, found[-1]) if found else (0, 0)
    items = step.items or ok + fail
    tally.attempted += items
    if rc != 0 or not found or fail or ok != items:
        tally.miss(f"{step.key}: rc={rc} ok={ok} fail={fail} expected ok={items}; "
                   + err.getvalue().strip()[-300:], max(fail, 1))
    else:
        for problem in step.check(stdout):
            tally.miss(f"{step.key}: {problem}")
    digests = {p.name: inputs.digest(p.read_bytes()) if p.exists() else "missing"
               for p in step.outputs}
    return seconds, stdout, digests


def run_pass(ajparse, ref: Reference, pipe: Pipeline, tally: Tally, tracer=None, heap=None):
    """One pass of the pipeline's commands, with a reference sample after
    each; returns (raw seconds, scaled seconds, stdout, output digests), the
    first three by step."""
    gc.collect()
    times, scaled, stdouts, digests = {}, {}, {}, {}
    for step in pipe.steps:
        times[step.key], stdouts[step.key], produced = run_step(
            ajparse, step, tally, tracer, heap)
        ref.sample()
        scaled[step.key] = ref.scaled(times[step.key])
        digests.update(produced)
    return times, scaled, stdouts, digests


def set_up(ajparse, ref: Reference, workload: str, seed: int, work: Path, tally: Tally,
           first: Pipeline | None = None):
    """Set the workload up once; returns the seconds it took (generation
    and file writes, then import), raw and scaled, and the pipeline.

    The reference is sampled after each of the two parts, so that each is
    scaled by the samples on either side of it.  A repeat must generate the
    same inputs as ``first``.
    """
    start = perf_counter()
    pipe = SETUP[workload](ajparse, seed, work)
    generated = perf_counter() - start
    ref.sample()
    scaled = ref.scaled(generated)
    imported = import_seconds()
    ref.sample()
    scaled += ref.scaled(imported)
    tally.attempted += 1
    if first is not None and pipe.digests != first.digests:
        tally.miss("the same seed generated different inputs")
    return generated + imported, scaled, pipe


def workload_metrics(workload: str, pipe: Pipeline, med: dict, stdouts: dict) -> dict:
    """The per-command end-to-end figures of one workload, by name, from the
    mean scaled seconds of each command."""
    f = pipe.facts
    if workload == "treebank-long":
        return {
            "verify_tok_per_s": (f["tokens"] / med["verify"], "tok/s"),
            "translate_isr_tok_per_s": (f["tokens"] / med["translate_isr"], "tok/s"),
            "score_tok_per_s": (f["tokens"] / med["score"], "tok/s"),
        }
    if workload == "parse-many-labels":
        return {
            "verify_tok_per_s": (f["train_tokens"] / med["verify"], "tok/s"),
            "train_sent_per_s": (f["train_sentences"] * f["epochs"] / med["train"], "sent/s"),
            "parse_beam1_tok_per_s": (f["test_tokens"] / med["parse_beam1"], "tok/s"),
            "parse_beam10_tok_per_s": (f["test10_tokens"] / med["parse_beam10"], "tok/s"),
            "parse_beam1_f1": (_score_line(stdouts["score_beam1"], "F1"), "%"),
            "parse_beam10_f1": (_score_line(stdouts["score_beam10"], "F1"), "%"),
        }
    return {"enumerate_check_s": (med["enumerate_check"], "s")}


def measure(ajparse, ref: Reference, workload: str, seed: int, seconds: float, work: Path,
            tally: Tally):
    """Set up, run one warm-up pass under ``tracemalloc``, then time passes
    for about ``seconds`` more, setting up again after each.

    Pass timings are means over the timed passes: the machine's slowdowns
    come in bounded bursts, so a mean over passes and reference samples
    taken together is steadier than a median of either.  Set-up is short,
    so a burst can swallow a whole set-up; its figure is the median, and
    set-ups are spread over the whole run, since set-ups made one after
    another all see the machine of one second.

    The memory figure comes from the warm-up pass, because ``tracemalloc``
    slows a command by 2 to 6 times.  It counts only what each command
    allocates, so the interpreter, the imports and the set-up do not hide a
    change.
    """
    ref.sample()
    raw_setups, setups, pipe = [], [], None

    def set_up_again():
        raw, scaled, again = set_up(ajparse, ref, workload, seed, work, tally, pipe)
        raw_setups.append(raw)
        setups.append(scaled)
        return again

    for _ in range(SETUP_REPEATS):
        pipe = set_up_again()
    heap = {}
    warm_up, _, stdouts, first_digests = run_pass(ajparse, ref, pipe, tally, heap=heap)
    raw, timed = [], []
    start = perf_counter()
    while True:
        times, scaled, stdouts, digests = run_pass(ajparse, ref, pipe, tally)
        raw.append(times)
        timed.append(scaled)
        tally.attempted += 1
        if digests != first_digests:
            tally.miss("outputs differ between passes of the same run")
        for _ in range(SETUPS_PER_PASS):
            set_up_again()
        pass_mean = statistics.fmean(sum(t.values()) for t in raw)
        if len(timed) >= MIN_PASSES and perf_counter() - start + pass_mean > seconds:
            break
    pass_s = [sum(t.values()) for t in timed]
    mean = {k: statistics.fmean(t[k] for t in timed) for k in timed[0]}
    figures = {
        "setup_s": (statistics.median(setups), "s"),
        "pass_s": (statistics.fmean(pass_s), "s"),
        **workload_metrics(workload, pipe, mean, stdouts),
        "heap_peaks_mb": (sum(heap.values()) / 2**20, "MB"),
        "fail_share": (tally.failed / max(tally.attempted, 1), "share"),
    }
    detail = {
        "timed_passes": len(timed),
        "setup_s": setups,
        "reference_s": ref.samples,
        "pass_s": pass_s,
        "raw_warm_up_s": warm_up,
        "heap_peak_bytes": heap,
        "raw_step_s": {k: [t[k] for t in raw] for k in raw[0]},
        "raw_setup_s": raw_setups,
        "facts": {k: v for k, v in pipe.facts.items() if k != "test10_trees"},
        "input_digests": pipe.digests,
        "output_digests": first_digests,
        "exhaustive_counts": _exhaustive_counts(stdouts.get("enumerate_check", "")),
    }
    return figures, detail


def _exhaustive_counts(stdout: str) -> dict:
    return {k.replace(" ", "_"): int(v)
            for k, v in re.findall(r"^([a-z -]+ checked): (\d+)$", stdout, re.M)}


# -- traced run ----------------------------------------------------------


def _gold_action_space(ajparse, trees, labels) -> float:
    """Mean ``legal_actions`` size over the gold states of ``trees``."""
    from ajparse import oracle, transition, treebank

    sizes = []
    for t in trees:
        tree = treebank.parse_bracketed(inputs.to_bracket(t))
        state = transition.INITIAL_STATE
        for token, action in zip(treebank.tokens_of(tree), oracle.oracle_action_sequence(tree)):
            sizes.append(len(transition.legal_actions(state, labels)))
            state = transition.apply_action(state, token, action)
    return sum(sizes) / len(sizes)


def trace_all(ajparse, ref: Reference, seed: int, work: Path, tally: Tally, profile_top: int):
    tracers, overhead, spans, pipes, counts = {}, {}, [], {}, {}
    for workload in WORKLOADS:
        pipe = pipes[workload] = SETUP[workload](ajparse, seed, work / workload)
        ref.sample()
        plain, _, _, _ = run_pass(ajparse, ref, pipe, tally)
        if profile_top:
            _profile(ajparse, ref, pipe, workload, profile_top)
        tracer = tracers[workload] = Tracer()
        tracer.install()
        try:
            traced, _, stdouts, _ = run_pass(ajparse, ref, pipe, tally, tracer)
        finally:
            tracer.restore()
        overhead[workload] = sum(traced.values()) / sum(plain.values()) - 1
        if tracer.missing:
            tally.miss("could not trace " + ", ".join(tracer.missing))
        if workload == "exhaustive":
            counts = _exhaustive_counts(stdouts["enumerate_check"])
        for s in tracer.spans:
            spans.append((workload,) + s)

    def incl(name):
        return sum(t.inclusive(name) for t in tracers.values())

    def count(key):
        return sum(t.counts[key] for t in tracers.values())

    layer_self = {}
    for t in tracers.values():
        for layer, s in t.layer_self().items():
            layer_self[layer] = layer_self.get(layer, 0.0) + s
    beam1 = sorted(d for t in tracers.values()
                   for d in t.durations.get("predictor.decode_beam1", []))
    pml = pipes["parse-many-labels"].facts
    m = {}
    for layer in ("cli", "treebank", "tree", "transition", "oracle", "isr", "scoring",
                  "predictor", "exhaustive"):
        m[f"{layer}.self_s"] = (layer_self.get(layer, 0.0), "s")
    m.update({
        "treebank.parse_bracketed_s": (incl("treebank.parse_bracketed"), "s"),
        "treebank.normalize_s": (incl("treebank.normalize"), "s"),
        "treebank.write_bracketed_s": (incl("treebank.write_bracketed"), "s"),
        "tree.tree_equal_s": (incl("tree.tree_equal"), "s"),
        "transition.apply_sequence_s": (incl("transition.apply_sequence"), "s"),
        "transition.legal_actions_per_step": (
            _gold_action_space(ajparse, pml["test10_trees"], pml["labels"]), "actions/step"),
        "oracle.oracle_action_sequence_s": (incl("oracle.oracle_action_sequence"), "s"),
        "oracle.actions": (count("oracle.actions"), "count"),
    })
    for case in CASES:
        m[f"oracle.case.{case}"] = (sum(t.cases[case] for t in tracers.values()), "count")
    m.update({
        "isr.translate_sequence_s": (incl("isr.translate_sequence"), "s"),
        "isr.isr_apply_s": (incl("isr.isr_apply"), "s"),
        "isr.actions": (count("isr.actions"), "count"),
        "isr.gamma_s": (incl("isr.gamma"), "s"),
        "isr.phi_s": (incl("isr.phi"), "s"),
        "scoring.extract_brackets_s": (incl("scoring.extract_brackets"), "s"),
        "scoring.brackets": (count("scoring.brackets"), "count"),
        "predictor.featurize_s": (incl("predictor.featurize"), "s"),
        "predictor.featurize_calls": (
            sum(t.calls("predictor.featurize") for t in tracers.values()), "count"),
        "predictor.train_s": (incl("predictor.train"), "s"),
        "predictor.decode_beam1_ms_p50": (1000 * _quantile(beam1, 0.5), "ms"),
        "predictor.decode_beam1_ms_p90": (1000 * _quantile(beam1, 0.9), "ms"),
        "predictor.decode_beam10_s": (incl("predictor.decode_beam10"), "s"),
        "predictor.save_s": (incl("predictor.save"), "s"),
        "predictor.load_s": (incl("predictor.load"), "s"),
        "exhaustive.check_oracle_uniqueness_s": (
            incl("exhaustive.check_oracle_uniqueness"), "s"),
        "exhaustive.check_bijection_s": (incl("exhaustive.check_bijection"), "s"),
        "exhaustive.check_translation_s": (incl("exhaustive.check_translation"), "s"),
        "exhaustive.enumerate_legal_stacks_s": (
            incl("exhaustive.enumerate_legal_stacks"), "s"),
        "exhaustive.trees_checked": (counts.get("trees_checked", 0), "count"),
        "exhaustive.augmented_checked": (counts.get("augmented_trees_checked", 0), "count"),
        "exhaustive.stacks_checked": (counts.get("legal_stacks_checked", 0), "count"),
        "exhaustive.translations_checked": (
            counts.get("translated_steps_checked", 0), "count"),
    })
    for workload in WORKLOADS:
        m[f"trace.overhead.{workload}"] = (overhead[workload], "share")
    scale = ref.scale()
    m = {k: (v * scale if unit in ("s", "ms") else v, unit) for k, (v, unit) in m.items()}
    detail = {
        "scale": scale,
        "decode_beam1_samples": len(beam1),
        "spans": len(spans),
        "by_workload": {w: {name: {"calls": c, "inclusive_s": i, "self_s": s}
                            for name, (c, i, s) in sorted(t.totals.items())}
                        for w, t in tracers.items()},
    }
    return m, detail, spans


def _quantile(sorted_values, q: float) -> float:
    if not sorted_values:
        return 0.0
    return sorted_values[min(len(sorted_values) - 1, int(q * len(sorted_values)))]


def _profile(ajparse, ref: Reference, pipe: Pipeline, workload: str, top: int) -> None:
    import cProfile
    import pstats

    profiler = cProfile.Profile()
    profiler.enable()
    run_pass(ajparse, ref, pipe, Tally())
    profiler.disable()
    with open(OUT / f"cprofile-{workload}.txt", "w", encoding="utf-8") as fh:
        pstats.Stats(profiler, stream=fh).sort_stats("tottime").print_stats(top)


def _write_spans(path: Path, spans) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for workload, span_id, parent, name, start, end, trace in spans:
            fh.write(json.dumps({"workload": workload, "id": span_id, "parent": parent,
                                 "name": name, "start": round(start, 7),
                                 "end": round(end, 7), "trace": trace}) + "\n")


# -- entry point ---------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--cprofile", type=int, default=0, metavar="N",
                        help="with --trace 1, also write a cProfile top-N per workload")
    args = parser.parse_args(argv)

    ajparse = load_package()
    env = environment(ajparse)
    # Keep the timed work and the reference loop on one CPU, so that both
    # see the same contention.
    env["pinned_cpu"] = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {env["pinned_cpu"]})
    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{os.getpid()}"
    tally = Tally()
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    ref = Reference()
    try:
        for w in WORKLOADS:
            (work / w).mkdir(parents=True, exist_ok=True)
        if args.trace:
            figures, detail, spans = trace_all(ajparse, ref, args.seed, work, tally,
                                               args.cprofile)
            _write_spans(OUT / f"spans-{tag}.jsonl", spans)
        else:
            figures, detail = measure(ajparse, ref, args.workload, args.seed, args.seconds,
                                      work / args.workload, tally)
    finally:
        ref.close()
        shutil.rmtree(work, ignore_errors=True)

    report = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "environment": env, "figures": figures, "detail": detail,
              "problems": tally.problems}
    (OUT / f"{tag}.json").write_text(json.dumps(report, indent=1, default=str) + "\n")
    for key, value in env.items():
        print(f"# {key}: {value}")
    for name, (value, unit) in figures.items():
        print(f"{args.workload:18} {name:40} {value:14.6g} {unit}")
    for problem in tally.problems:
        print(f"# problem: {problem}")

    names = json.loads((ROOT / "BENCHMARK.json").read_text())[
        "per_layer" if args.trace else "end_to_end"]
    metrics = {}
    for entry in names:
        value, unit = figures[entry["name"]]
        metrics[entry["name"]] = {"value": value, "unit": unit}
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
