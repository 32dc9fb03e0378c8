"""Deterministic synthetic treebank generator.

Produces bracketed English-like trees from a tiny hand-written grammar with
POS-tagged leaves. Used to build desk-scale corpora for verification and for
training the baseline predictor; the grammar never emits unary chains.
"""

from __future__ import annotations

import random

from .tree import ConstituencyTree, Internal, Leaf, Token

_PROPER = ["Arthur", "Lancelot", "Robin", "Galahad", "Bedevere", "Patsy"]
_NOUNS = ["king", "sword", "castle", "knight", "grail", "shrubbery", "rabbit", "bridge"]
_VERBS = ["sees", "takes", "likes", "guards", "seeks", "finds"]
_ADJS = ["brave", "old", "holy", "fearsome"]
_PREPS = ["of", "in", "with", "near"]
_DETS = ["the", "a"]


def _leaf(word, pos) -> Leaf:
    return Leaf(Token(word, pos))


def _np(rng, depth):
    roll = rng.random()
    if depth > 0 and roll < 0.25:
        head = _np(rng, 0)
        pp = _pp(rng, depth - 1)
        return Internal("NP", (head, pp))
    if roll < 0.45:
        return Internal("NP", (_leaf(rng.choice(_PROPER), "NNP"),))
    if roll < 0.75:
        return Internal(
            "NP",
            (_leaf(rng.choice(_DETS), "DT"), _leaf(rng.choice(_NOUNS), "NN")),
        )
    return Internal(
        "NP",
        (
            _leaf(rng.choice(_DETS), "DT"),
            _leaf(rng.choice(_ADJS), "JJ"),
            _leaf(rng.choice(_NOUNS), "NN"),
        ),
    )


def _pp(rng, depth):
    return Internal(
        "PP",
        (_leaf(rng.choice(_PREPS), "IN"), _np(rng, depth)),
    )


def _vp(rng, depth):
    verb = _leaf(rng.choice(_VERBS), "VBZ")
    obj = _np(rng, depth)
    if rng.random() < 0.3:
        return Internal("VP", (verb, obj, _pp(rng, depth - 1)))
    return Internal("VP", (verb, obj))


def generate_tree(rng: random.Random, max_depth: int = 2) -> ConstituencyTree:
    subject = _np(rng, max_depth)
    vp = _vp(rng, max_depth)
    children = [subject, vp]
    if rng.random() < 0.5:
        children.append(_leaf(".", "."))
    return ConstituencyTree(Internal("S", tuple(children)))


def generate_corpus(n_sentences: int, seed: int, max_depth: int = 2) -> list:
    rng = random.Random(seed)
    return [generate_tree(rng, max_depth) for _ in range(n_sentences)]
