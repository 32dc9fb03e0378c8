"""PARSEVAL-style bracket scoring: exact match, F1, labeled precision/recall.

Brackets are (label, start, end) triples over leaf indices, one per internal
node after restoring collapsed unary chains (a collapsed ``A+B`` node gives
``A`` and ``B`` over its span); POS preterminals stored on leaves are
excluded. Corpus scores are micro-averaged and use multiset intersection.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .tree import ConstituencyTree, Internal, LabelFormatError, chain_labels, fold, iter_leaves


@dataclass(frozen=True)
class ScoreReport:
    em: float  # fraction in [0, 1]
    f1: float  # percentages in [0, 100]
    lp: float
    lr: float
    matched: int
    gold_total: int
    predicted_total: int
    sentences: int


def extract_brackets(tree: ConstituencyTree) -> Counter:
    brackets = Counter()

    def span(node: Internal, spans: list) -> tuple:
        starts, ends = zip(*spans)
        start, end = min(starts), max(ends)
        for label in chain_labels(node.label):
            brackets[(label, start, end)] += 1
        return start, end

    if tree.root is not None:
        fold(tree.root, lambda leaf: (leaf.index, leaf.index), span)
    return brackets


def score(gold, predicted) -> ScoreReport:
    if len(gold) != len(predicted):
        raise ValueError(
            f"gold has {len(gold)} sentences but predicted has {len(predicted)}"
        )
    matched = gold_total = predicted_total = exact = 0
    for i, (g, p) in enumerate(zip(gold, predicted)):
        if g.length != p.length:
            raise ValueError(
                f"sentence {i}: gold has {g.length} tokens, predicted has {p.length}"
            )
        # Words must agree; POS tags are not compared.
        for j, (gl, pl) in enumerate(zip(iter_leaves(g.root), iter_leaves(p.root))):
            if gl.token.word != pl.token.word:
                raise ValueError(
                    f"sentence {i}: token {j} is {gl.token.word!r} in gold"
                    f" but {pl.token.word!r} in predicted"
                )
        try:
            gb, pb = extract_brackets(g), extract_brackets(p)
        except LabelFormatError as err:
            raise LabelFormatError(f"sentence {i}: {err}") from None
        matched += sum((gb & pb).values())
        gold_total += sum(gb.values())
        predicted_total += sum(pb.values())
        if gb == pb:
            exact += 1
    lp = 100.0 * matched / predicted_total if predicted_total else 0.0
    lr = 100.0 * matched / gold_total if gold_total else 0.0
    f1 = 2 * lp * lr / (lp + lr) if lp + lr > 0 else 0.0
    em = exact / len(gold) if gold else 0.0
    return ScoreReport(em, f1, lp, lr, matched, gold_total, predicted_total, len(gold))


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
