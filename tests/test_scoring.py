import itertools

import pytest
from hypothesis import given, settings, strategies as st

import reference
from ajparse.scoring import extract_brackets, format_report, score
from ajparse.synth import generate_corpus
from ajparse.tree import (
    ConstituencyTree, Internal, LabelFormatError, Leaf, Token, collapse_unary_chains, fold,
)
from ajparse.treebank import parse_bracketed, tokens_of

from test_tree import trees

# Plain and "+"-joined labels, duplicate parts ("A+A") included.
joined_labels = st.lists(st.sampled_from(["A", "B", "S"]), min_size=1, max_size=3).map("+".join)
# The same, plus labels with an empty part.
any_labels = st.one_of(joined_labels, st.sampled_from(["A+", "+A", "A++B", "+"]))


def test_extract_brackets_example(fig_tree):
    brackets = extract_brackets(fig_tree)
    assert sum(brackets.values()) == 7
    assert brackets[("S", 0, 5)] == 1
    assert brackets[("NP", 0, 0)] == 1
    assert brackets[("VP", 1, 5)] == 1
    assert brackets[("NP", 2, 5)] == 1
    assert brackets[("NP", 2, 2)] == 1
    assert brackets[("PP", 3, 5)] == 1
    assert brackets[("NP", 4, 5)] == 1


def test_extract_brackets_restores_collapsed_chains():
    t = parse_bracketed("(S+NP (NN a))")
    brackets = extract_brackets(t)
    assert brackets[("S", 0, 0)] == 1
    assert brackets[("NP", 0, 0)] == 1


def test_extract_brackets_counts_duplicates_as_multiset():
    t = parse_bracketed("(S (NP (NP (NN a) (NN b))))")
    brackets = extract_brackets(t)
    assert brackets[("NP", 0, 1)] == 2


@given(st.sampled_from([joined_labels, any_labels]).flatmap(lambda labels: trees(labels=labels)))
def test_extract_brackets_matches_reference(t):
    """Splitting each collapsed label as the tree folds counts the brackets
    of the restored tree, and a malformed label fails with the same message."""
    for u in (t, collapse_unary_chains(t)):
        try:
            expected = reference.reference_extract_brackets(u)
        except LabelFormatError as err:
            with pytest.raises(LabelFormatError) as ours:
                extract_brackets(u)
            assert str(ours.value) == str(err)
        else:
            assert extract_brackets(u) == expected


def test_score_self_is_perfect():
    corpus = generate_corpus(40, seed=9)
    r = score(corpus, corpus)
    assert r.f1 == 100.0 and r.lp == 100.0 and r.lr == 100.0
    assert r.em == 1.0
    assert r.matched == r.gold_total == r.predicted_total


def test_two_of_three_brackets():
    gold = [parse_bracketed("(S (NP (T a)) (VP (T b)))")]
    pred = [parse_bracketed("(S (NP (T a)) (NP (T b)))")]
    r = score(gold, pred)
    assert r.matched == 2
    assert r.gold_total == r.predicted_total == 3
    assert abs(r.lp - 66.67) < 0.01
    assert abs(r.lr - 66.67) < 0.01
    assert r.em == 0.0


def test_score_length_mismatch_names_sentence():
    gold = [parse_bracketed("(S (T a) (T b))")]
    pred = [parse_bracketed("(S (T a))")]
    with pytest.raises(ValueError, match="sentence 0"):
        score(gold, pred)


def test_score_word_mismatch_names_sentence_and_token():
    gold = [parse_bracketed("(S (NP (NNP Arthur)) (VP (VBZ is) (NP (DT the) (NN king))))")]
    pred = [parse_bracketed("(S (NP (NNP Bob)) (VP (VBZ is) (NP (DT a) (NN king))))")]
    with pytest.raises(ValueError, match=r"sentence 0: token 0 is 'Arthur'"):
        score(gold, pred)
    # POS tags are not compared.
    retagged = [parse_bracketed("(S (NP (NN Arthur)) (VP (VB is) (NP (DT the) (NN king))))")]
    assert score(gold, retagged).f1 == 100.0


def test_score_corpus_size_mismatch():
    gold = [parse_bracketed("(S (T a))")]
    with pytest.raises(ValueError):
        score(gold, [])


def test_score_empty_corpus_is_zero_report():
    r = score([], [])
    assert r.f1 == 0.0 and r.em == 0.0 and r.sentences == 0


def test_format_report_lines():
    corpus = generate_corpus(5, seed=1)
    out = format_report(score(corpus, corpus))
    lines = out.splitlines()
    assert lines[0] == "EM 1.00"
    assert lines[1] == "F1 100.00"
    assert lines[2] == "LP 100.00"
    assert lines[3] == "LR 100.00"
    assert "sentences=5" in lines[4]


def _reworded(tree, k):
    """``tree`` with another word at leaf ``k``."""

    position = itertools.count()

    def leaf(node):
        return Leaf(Token("changed", node.token.pos)) if next(position) == k else node

    return ConstituencyTree(fold(tree.root, leaf, lambda n, kids: Internal(n.label, tuple(kids))))


@st.composite
def gold_and_predicted(draw):
    """Gold trees and a predicted list made from them, each tree kept,
    collapsed, replaced or given another word, then cut or lengthened; and
    for each side, where reading it raises and what, if it does."""
    labels = draw(st.sampled_from([joined_labels, any_labels]))
    gold = draw(st.lists(trees(labels=labels), max_size=4))
    predicted = []
    for tree in gold:
        change = draw(st.sampled_from(["keep", "keep", "collapse", "replace", "reword"]))
        if change == "collapse":
            tree = collapse_unary_chains(tree)
        elif change == "replace":
            tree = draw(trees(labels=labels))
        elif change == "reword":
            tree = _reworded(tree, draw(st.integers(0, len(tokens_of(tree)) - 1)))
        predicted.append(tree)
    predicted += draw(st.lists(trees(labels=labels), max_size=2))
    predicted = predicted[:draw(st.integers(max(0, len(gold) - 2), len(predicted)))]
    errors = st.sampled_from([ValueError, OSError])
    failures = [draw(st.none() | st.tuples(st.integers(0, len(side)), errors))
                for side in (gold, predicted)]
    return gold, predicted, failures


def _read(trees, failure, side):
    """``trees`` one at a time, raising at the position ``failure`` names."""
    if failure is None:
        yield from trees
        return
    at, error = failure
    yield from trees[:at]
    raise error(f"cannot read {side} entry {at}")


def _outcome(call):
    try:
        return call()
    except Exception as err:
        return type(err), str(err)


@settings(max_examples=30, deadline=None)
@given(gold_and_predicted())
def test_lockstep_score_matches_reference(case):
    """Reading both sides in lockstep gives the report, or the error, of
    loading gold whole and then reading the predicted side: gold's read
    error, then predicted's, then the count, then the first sentence."""
    gold, predicted, (gold_failure, predicted_failure) = case
    expected = _outcome(lambda: reference.reference_score(
        list(_read(gold, gold_failure, "gold")), _read(predicted, predicted_failure, "predicted")))
    got = _outcome(lambda: score(_read(gold, gold_failure, "gold"),
                                 _read(predicted, predicted_failure, "predicted")))
    assert got == expected
