"""Spans around the calls into each ajparse module, recorded from outside
the package.

``Tracer.install`` replaces functions in the module namespaces where their
callers look them up (``ajparse.cli.tree_equal``, ``ajparse.exhaustive.gamma``
and so on) with timing wrappers, and ``restore`` puts the originals back.
The package itself is not edited.  Each wrapped call is a span with a name
``<layer>.<function>``, a start, an end, a parent and a trace id
``<command>/<sentence>``; self time is the span's duration minus the time of
the wrapped calls made inside it.  Calls made hundreds of thousands of times
(``gamma``, ``phi``, ``featurize``, ISR replay steps) are aggregated into
counts and times but not kept as spans, so that memory stays small.
``featurize`` calls count as ``predictor.featurize`` inside ``train`` and as
``predictor.featurize_decode`` elsewhere.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
from collections import Counter
from time import perf_counter

# (module, attribute, span name); the caller's namespace is the one patched.
SPANS = (
    ("ajparse.cli", "load_corpus", "treebank.load_corpus"),
    ("ajparse.treebank", "parse_bracketed", "treebank.parse_bracketed"),
    ("ajparse.treebank", "normalize", "treebank.normalize"),
    ("ajparse.cli", "write_bracketed", "treebank.write_bracketed"),
    ("ajparse.cli", "tree_equal", "tree.tree_equal"),
    ("ajparse.cli", "node_equal", "tree.node_equal"),
    ("ajparse.cli", "apply_sequence", "transition.apply_sequence"),
    ("ajparse.cli", "translate_sequence", "isr.translate_sequence"),
    ("ajparse.scoring", "score", "scoring.score"),
    ("ajparse.scoring", "extract_brackets", "scoring.extract_brackets"),
    ("ajparse.predictor", "train", "predictor.train"),
    ("ajparse.exhaustive", "run_all_checks", "exhaustive.run_all_checks"),
    ("ajparse.exhaustive", "check_oracle_uniqueness", "exhaustive.check_oracle_uniqueness"),
    ("ajparse.exhaustive", "check_bijection", "exhaustive.check_bijection"),
    ("ajparse.exhaustive", "check_translation", "exhaustive.check_translation"),
)
HOT = (
    ("ajparse.cli", "isr_apply", "isr.isr_apply"),
    ("ajparse.cli", "is_legal_stack", "isr.isr_apply"),
    ("ajparse.exhaustive", "gamma", "isr.gamma"),
    ("ajparse.exhaustive", "phi", "isr.phi"),
    ("ajparse.predictor", "featurize", "predictor.featurize"),
)
ORACLE_CALLERS = ("ajparse.cli", "ajparse.predictor", "ajparse.exhaustive")
COUNTS = {
    "oracle.oracle_action_sequence": ("oracle.actions", len),
    "isr.translate_sequence": ("isr.actions", len),
    "scoring.extract_brackets": ("scoring.brackets", lambda r: sum(r.values())),
}


class Tracer:
    def __init__(self):
        self.t0 = perf_counter()
        self.totals = {}  # name -> [calls, inclusive seconds, self seconds]
        self.counts = Counter()
        self.cases = Counter()
        self.durations = {}  # name -> per-call seconds, for percentiles
        self.spans = []
        self.missing = []
        self._stack = []
        self._next_id = 1
        self._patches = []
        self._sentences = {}  # id(tree) -> entry index, for the current command
        self._alive = []
        self._command = "-"
        self._sentence = "-"
        self._ordinal = 0

    # -- recording -------------------------------------------------------

    def begin_command(self, command: str) -> None:
        self._command = command
        self._sentence = "-"
        self._ordinal = 0
        self._sentences.clear()
        self._alive.clear()

    def _enter(self, name, keep, args=()):
        span_id = 0
        if keep:
            span_id = self._next_id
            self._next_id += 1
            for arg in args[:2]:
                found = self._sentences.get(id(arg))
                if found is not None:
                    self._sentence = found
                    break
        parent = self._stack[-1][0] if self._stack else 0
        frame = [span_id, name, perf_counter(), 0.0, parent,
                 f"{self._command}/{self._sentence}"]
        self._stack.append(frame)
        return frame

    def _exit(self, frame) -> float:
        end = perf_counter()
        self._stack.pop()
        span_id, name, start, child, parent, trace = frame
        duration = end - start
        if self._stack:
            self._stack[-1][3] += duration
        total = self.totals.get(name)
        if total is None:
            total = self.totals[name] = [0, 0.0, 0.0]
        total[0] += 1
        total[1] += duration
        total[2] += duration - child
        if span_id:
            self.spans.append((span_id, parent, name, start - self.t0, end - self.t0, trace))
        if name in self.durations:
            self.durations[name].append(duration)
        return duration

    @contextlib.contextmanager
    def span(self, name):
        """A span opened by the benchmark itself."""
        frame = self._enter(name, True)
        try:
            yield
        finally:
            self._exit(frame)

    # -- wrappers --------------------------------------------------------

    def _wrap(self, fn, name, keep=True, after=None):
        enter, exit_ = self._enter, self._exit
        named = callable(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = enter(name(args, kwargs) if named else name, keep, args)
            try:
                result = fn(*args, **kwargs)
            finally:
                exit_(frame)
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _wrap_generator(self, fn, name):
        enter, exit_ = self._enter, self._exit

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                frame = enter(name, False)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    exit_(frame)
                yield item

        return wrapper

    def _oracle(self, fn):
        cases = self.cases

        def call(tree, case_tally=None):
            if case_tally is None:
                return fn(tree, case_tally=cases)
            before = dict(case_tally)
            out = fn(tree, case_tally=case_tally)
            for case, count in case_tally.items():
                cases[case] += count - before.get(case, 0)
            return out

        return functools.wraps(fn)(call)

    def _register_entries(self, args, entries):
        self._alive.append(entries)
        for entry in entries:
            self._sentences[id(entry.tree)] = entry.id

    # Name hooks run before a span opens.  Sentences that arrive as text
    # rather than as loaded entries get their ordinal within the command (or
    # within the file, for the trees a load parses).

    def _start_load(self, args, kwargs):
        self._ordinal = 0
        return "treebank.load_corpus"

    def _next_sentence(self, name):
        self._sentence = self._ordinal
        self._ordinal += 1
        return name

    def _featurize(self, args, kwargs):
        # Training and decoding both featurize; the calls made while
        # decoding are kept apart, so that predictor.featurize is training's.
        if any(frame[1] == "predictor.train" for frame in self._stack):
            return "predictor.featurize"
        return "predictor.featurize_decode"

    def _decode(self, args, kwargs):
        beam = args[2] if len(args) > 2 else kwargs.get("beam")
        return self._next_sentence(f"predictor.decode_beam{beam}")

    def _count(self, name):
        key, measure = COUNTS[name]
        counts = self.counts

        def after(args, result):
            counts[key] += measure(result)

        return after

    def _patch(self, owner, attr, make):
        """Replace ``owner.attr`` (owner a module name or a class) with
        ``make(original)``."""
        if isinstance(owner, str):
            owner = importlib.import_module(owner)
        original = vars(owner).get(attr)
        if original is None:
            self.missing.append(f"{owner.__name__}.{attr}")
            return
        self._patches.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def install(self) -> None:
        hooks = {
            "treebank.load_corpus": self._start_load,
            "treebank.parse_bracketed":
                lambda args, kwargs: self._next_sentence("treebank.parse_bracketed"),
            "predictor.featurize": self._featurize,
        }
        for module, attr, name in SPANS:
            after = self._register_entries if attr == "load_corpus" else None
            if name in COUNTS:
                after = self._count(name)
            self._patch(module, attr,
                        lambda f, n=hooks.get(name, name), a=after: self._wrap(f, n, True, a))
        for module, attr, name in HOT:
            self._patch(module, attr, lambda f, n=hooks.get(name, name): self._wrap(f, n, False))
        for module in ORACLE_CALLERS:
            name = "oracle.oracle_action_sequence"
            self._patch(module, "oracle_action_sequence",
                        lambda f: self._wrap(self._oracle(f), name, True, self._count(name)))
        self._patch("ajparse.exhaustive", "enumerate_legal_stacks",
                    lambda f: self._wrap_generator(f, "exhaustive.enumerate_legal_stacks"))
        self._patch("ajparse.predictor", "decode_beam",
                    lambda f: self._wrap(f, self._decode, True))
        self.durations["predictor.decode_beam1"] = []
        scorer = importlib.import_module("ajparse.predictor").ActionScorer
        self._patch(scorer, "save", lambda f: self._wrap(f, "predictor.save"))
        self._patch(scorer, "load",
                    lambda f: classmethod(self._wrap(f.__func__, "predictor.load")))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results ---------------------------------------------------------

    def inclusive(self, name) -> float:
        return self.totals.get(name, (0, 0.0, 0.0))[1]

    def calls(self, name) -> int:
        return self.totals.get(name, (0, 0.0, 0.0))[0]

    def layer_self(self) -> dict:
        out = Counter()
        for name, (_, _, self_s) in self.totals.items():
            out[name.split(".", 1)[0]] += self_s
        return out
