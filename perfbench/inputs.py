"""Seeded inputs for the benchmark workloads, and checks that do not use the
package under test.

Trees here are nested tuples: an internal node is ``(label, [children])``
and a leaf is ``(pos, word)`` with ``word`` a string.  Clause shapes come
from ``ajparse.synth``, drawn with ``random.Random`` seeded by the workload
seed, or by a fixed seed for the parse-many-labels training corpus (never
with ``hash()``, which is salted per process); chaining and
relabelling follow fixed rules.  Sentence lengths are a fixed multiset
shuffled by the seed, so every seed gives the same token counts and only the
words and shapes change.
"""

from __future__ import annotations

import collections
import hashlib
import random
import re

# treebank-long: lengths follow a decaying long tail from 40 to 140 tokens.
LONG_SENTENCES = 120
LONG_MIN, LONG_SPAN = 40, 100
LONG_POOL = 1800

# parse-many-labels: short clauses relabelled to 18 categories.
LABEL_VARIANTS = {"S": 2, "NP": 6, "VP": 6, "PP": 4}
SHORT_LENGTHS = range(5, 15)
TRAIN_SENTENCES = 320
TEST_SENTENCES = 30
BEAM10_LENGTHS = (6, 7, 8, 9, 10)
TRAIN_EPOCHS = 2
TRAIN_SEED = 1  # the training corpus and order are the same for every --seed
TRAIN_POOL = 1800
HELD_OUT_POOL = 400

# exhaustive: below tier-1's (4, 2), which takes about a minute, and short
# enough (about a second) that a run holds many passes.
EXHAUSTIVE_N_MAX = 3
EXHAUSTIVE_VOCAB = 2

_MAX_FREE_CLAUSE = 14  # every clause length up to this is common in synth


def is_leaf(node) -> bool:
    return isinstance(node[1], str)


def from_synth(node):
    if hasattr(node, "children"):
        return (node.label, [from_synth(c) for c in node.children])
    return (node.token.pos, node.token.word)


def leaves(node) -> list:
    out, stack = [], [node]
    while stack:
        cur = stack.pop()
        if is_leaf(cur):
            out.append(cur)
        else:
            stack.extend(reversed(cur[1]))
    return out


def internal_count(node) -> int:
    count, stack = 0, [node]
    while stack:
        cur = stack.pop()
        if not is_leaf(cur):
            count += 1
            stack.extend(cur[1])
    return count


def labels(trees) -> list:
    found, stack = set(), list(trees)
    while stack:
        node = stack.pop()
        if not is_leaf(node):
            found.add(node[0])
            stack.extend(node[1])
    return sorted(found)


def to_bracket(node) -> str:
    if is_leaf(node):
        return f"({node[0]} {node[1]})"
    return f"({node[0]} " + " ".join(to_bracket(c) for c in node[1]) + ")"


_PRETERMINAL = re.compile(r"\(([^\s()]+) ([^\s()]+)\)")


def bracket_leaves(line: str) -> list:
    """(pos, word) pairs of a one-line bracketed tree, read without ajparse."""
    return _PRETERMINAL.findall(line)


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


class ClausePool:
    """synth clauses without their final '.', by length, in the order drawn.

    The pool draws ``size`` clauses up front and serves each request with the
    earliest-drawn clause that fits, drawing more only when none does.
    Drawing until a clause of an exact length turns up made the number of
    draws, and so set-up time, depend on the seed by about 20 %; with a pool
    large enough that it seldom runs dry, the work is almost the same for
    every seed.
    """

    def __init__(self, synth, rng, size: int):
        self._synth, self._rng = synth, rng
        self._by_length = {}
        self.drawn = 0
        for _ in range(size):
            self._draw()

    def _draw(self) -> None:
        root = from_synth(self._synth.generate_tree(self._rng, 2).root)
        kids = [c for c in root[1] if c[0] != "."]
        n = sum(len(leaves(k)) for k in kids)
        self._by_length.setdefault(n, collections.deque()).append((self.drawn, kids))
        self.drawn += 1

    def take(self, exact=None, at_most=None):
        """The earliest unused clause of ``exact`` or at most ``at_most``
        tokens, as (children, length)."""
        while True:
            fits = [n for n, queue in self._by_length.items()
                    if queue and (n == exact if exact is not None else n <= at_most)]
            if fits:
                n = min(fits, key=lambda k: self._by_length[k][0][0])
                return self._by_length[n].popleft()[1], n
            self._draw()


def long_sentence(pool: ClausePool, length: int):
    """A sentence of exactly ``length`` tokens: clauses chained as
    S -> VP -> SBAR(that, S -> ...), ending in '.'."""
    clauses = []
    remaining = length - 1
    while True:
        budget = remaining - (1 if clauses else 0)  # "that" joins each clause
        if budget <= _MAX_FREE_CLAUSE:
            clauses.append(pool.take(exact=budget)[0])
            break
        kids, n = pool.take(at_most=budget - 4)
        clauses.append(kids)
        remaining -= n + (1 if len(clauses) > 1 else 0)
    tree = None
    for subject, vp in reversed(clauses):
        if tree is not None:
            vp = (vp[0], vp[1] + [("SBAR", [("IN", "that"), tree])])
        tree = ("S", [subject, vp])
    return ("S", tree[1] + [(".", ".")])


def long_lengths(rng) -> list:
    lengths = [
        LONG_MIN + round(LONG_SPAN * ((i + 0.5) / LONG_SENTENCES) ** 2)
        for i in range(LONG_SENTENCES)
    ]
    rng.shuffle(lengths)
    return lengths


def treebank_long(synth, seed: int) -> list:
    rng = random.Random(seed)
    pool = ClausePool(synth, rng, LONG_POOL)
    return [long_sentence(pool, n) for n in long_lengths(rng)]


def short_sentences(pool: ClausePool, rng, lengths) -> list:
    lengths = list(lengths)
    rng.shuffle(lengths)
    out = []
    for n in lengths:
        kids, _ = pool.take(exact=n - 1)
        out.append(("S", kids + [(".", ".")]))
    return out


def _first_word(node) -> str:
    while not is_leaf(node):
        node = node[1][0]
    return node[1]


def label_rule(trees) -> dict:
    """Split each base label into variants keyed by the constituent's first
    word: the variant is the word's rank among the first words of that label
    in ``trees``, modulo the label's variant count."""
    first_words = {base: set() for base in LABEL_VARIANTS}
    stack = list(trees)
    while stack:
        node = stack.pop()
        if not is_leaf(node):
            first_words[node[0]].add(_first_word(node))
            stack.extend(node[1])
    return {(base, w): f"{base}{i % LABEL_VARIANTS[base]}"
            for base, words in first_words.items()
            for i, w in enumerate(sorted(words))}


def relabel(node, rule: dict):
    if is_leaf(node):
        return node
    return (rule[node[0], _first_word(node)], [relabel(c, rule) for c in node[1]])


def many_labels(synth, seed: int):
    """(train trees, held-out trees for beam 1, held-out trees for beam 10).

    The training corpus, and so the model, is the same for every seed, and
    the seed draws the held-out sentences.  When the seed drew the training
    corpus too, each seed trained another model, and beam-10 decode time and
    memory followed the model.  The label rule comes from the training
    corpus, whose first words cover synth's whole vocabulary.
    """
    train_rng = random.Random(f"train {TRAIN_SEED}")
    lengths = [SHORT_LENGTHS[i % len(SHORT_LENGTHS)] for i in range(TRAIN_SENTENCES)]
    train = short_sentences(ClausePool(synth, train_rng, TRAIN_POOL), train_rng, lengths)
    rng = random.Random(f"held-out {seed}")
    pool = ClausePool(synth, rng, HELD_OUT_POOL)
    lengths = [SHORT_LENGTHS[i % len(SHORT_LENGTHS)] for i in range(TEST_SENTENCES)]
    test = short_sentences(pool, rng, lengths)
    test10 = short_sentences(pool, rng, BEAM10_LENGTHS)
    rule = label_rule(train)
    return tuple([relabel(t, rule) for t in trees] for trees in (train, test, test10))


def unary_free_tree_count(n_max: int, vocab: int) -> int:
    """Closed-form count of trees with an internal root, at most ``n_max``
    leaves, ``vocab`` labels and no internal-over-internal unary link.

    ``shapes[n]`` counts subtrees over n leaves (a bare leaf included when
    n == 1); ``seqs[n]`` counts non-empty child sequences over n leaves.
    """
    shapes, seqs = [0] * (n_max + 1), [1] + [0] * n_max
    for n in range(1, n_max + 1):
        multi = sum(shapes[f] * seqs[n - f] for f in range(1, n))
        shapes[n] = 1 + vocab if n == 1 else vocab * multi
        seqs[n] = multi + shapes[n]
    return sum(shapes[1:]) - 1
