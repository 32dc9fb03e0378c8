"""PARSEVAL-style bracket scoring: exact match, F1, labeled precision/recall.

Brackets are (label, start, end) triples over leaf positions, one per internal
node after restoring collapsed unary chains (a collapsed ``A+B`` node gives
``A`` and ``B`` over its span); POS preterminals stored on leaves are
excluded. Corpus scores are micro-averaged and use multiset intersection;
``score`` reads the gold and predicted trees as two streams, in lockstep.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from itertools import count, zip_longest

from .tree import (
    LABEL_SEPARATOR, ConstituencyTree, Internal, LabelFormatError, chain_labels, fold, iter_leaves,
)


class ScoreReport(
    namedtuple("ScoreReport", "em f1 lp lr matched gold_total predicted_total sentences")
):
    """``em`` is a fraction in [0, 1]; ``f1``, ``lp`` and ``lr`` are
    percentages in [0, 100]; the rest are counts."""

    __slots__ = ()


def extract_brackets(tree: ConstituencyTree) -> Counter:
    brackets = Counter()
    position = count()  # the fold visits leaves left to right

    def leaf_span(leaf) -> tuple:
        i = next(position)
        return i, i

    def span(node: Internal, spans: list) -> tuple:
        # Children's spans are contiguous, left to right.
        start, end = spans[0][0], spans[-1][1]
        label = node.label
        if LABEL_SEPARATOR in label:
            for part in chain_labels(label):
                brackets[(part, start, end)] += 1
        else:
            # A plain label is its own one-label chain.
            brackets[(label, start, end)] += 1
        return start, end

    if tree.root is not None:
        fold(tree.root, leaf_span, span)
    return brackets


def _sentence_brackets(i: int, g: ConstituencyTree, p: ConstituencyTree) -> tuple:
    """The brackets of gold ``g`` and predicted ``p``, sentence ``i``, once
    their words are checked to agree; POS tags are not compared."""
    gold = [leaf.token.word for leaf in iter_leaves(g.root)]
    pred = [leaf.token.word for leaf in iter_leaves(p.root)]
    if len(gold) != len(pred):
        raise ValueError(f"sentence {i}: gold has {len(gold)} tokens, predicted has {len(pred)}")
    for j, (gw, pw) in enumerate(zip(gold, pred)):
        if gw != pw:
            raise ValueError(f"sentence {i}: token {j} is {gw!r} in gold but {pw!r} in predicted")
    try:
        return extract_brackets(g), extract_brackets(p)
    except LabelFormatError as err:
        raise LabelFormatError(f"sentence {i}: {err}") from None


def _caught(trees, errors: list):
    """``trees``, ended by the load error reading them raises, put in ``errors``."""
    try:
        yield from trees
    except (OSError, ValueError) as err:
        errors.append(err)


def score(gold, predicted) -> ScoreReport:
    """Score ``predicted`` against ``gold``, two iterables of trees read in
    lockstep. An error raised reading ``gold`` comes first, at once; then one
    raised reading ``predicted``, held until ``gold`` has been read to its end;
    then a differing sentence count; then the first sentence whose words or
    labels do not fit."""
    matched = gold_total = predicted_total = exact = sentences = count = 0
    error, failed = None, []
    for g, p in zip_longest(gold, _caught(predicted, failed)):
        sentences += g is not None
        count += p is not None
        if error is not None or g is None or p is None:
            continue
        try:
            gb, pb = _sentence_brackets(count - 1, g, p)
        except ValueError as err:
            error = err
            continue
        matched += sum((gb & pb).values())
        gold_total += sum(gb.values())
        predicted_total += sum(pb.values())
        if gb == pb:
            exact += 1
    if failed:
        raise failed[0]
    if count != sentences:
        raise ValueError(f"gold has {sentences} sentences but predicted has {count}")
    if error is not None:
        raise error
    lp = 100.0 * matched / predicted_total if predicted_total else 0.0
    lr = 100.0 * matched / gold_total if gold_total else 0.0
    f1 = 2 * lp * lr / (lp + lr) if lp + lr > 0 else 0.0
    em = exact / sentences if sentences else 0.0
    return ScoreReport(em, f1, lp, lr, matched, gold_total, predicted_total, sentences)


def format_report(report: ScoreReport) -> str:
    lines = [
        f"EM {report.em:.2f}",
        f"F1 {report.f1:.2f}",
        f"LP {report.lp:.2f}",
        f"LR {report.lr:.2f}",
        f"matched={report.matched} gold={report.gold_total}"
        f" predicted={report.predicted_total} sentences={report.sentences}",
    ]
    return "\n".join(lines)
