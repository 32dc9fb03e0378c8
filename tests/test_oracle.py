import pytest
from hypothesis import given, settings

from ajparse.oracle import CASES, last_action, oracle_action_sequence
from ajparse.synth import generate_corpus
from ajparse.transition import apply_sequence, attach, format_actions, juxtapose
from ajparse.tree import (
    ConstituencyTree,
    EMPTY_TREE,
    Internal,
    Leaf,
    Token,
    tree_equal,
)
from ajparse.treebank import tokens_of

from test_tree import trees


def leaf(word, pos="T"):
    return Leaf(Token(word, pos))


def test_rejects_empty_tree():
    with pytest.raises(ValueError):
        last_action(EMPTY_TREE)


def test_rejects_unary_chains():
    t = ConstituencyTree(Internal("S", (Internal("NP", (leaf("a"),)),)))
    with pytest.raises(ValueError):
        last_action(t)
    with pytest.raises(ValueError):
        oracle_action_sequence(t)


def test_single_leaf_tree():
    t = ConstituencyTree(Internal("S", (leaf("a"),)))
    action, predecessor, case = last_action(t)
    assert action == attach(0, "S")
    assert case == "2-1"
    assert predecessor.root is None
    assert oracle_action_sequence(t) == [attach(0, "S")]


def test_last_leaf_with_siblings_attaches_bare():
    t = ConstituencyTree(Internal("S", (leaf("a"), leaf("b"))))
    action, predecessor, case = last_action(t)
    assert action == attach(0, None)
    assert case == "1-3"
    assert tree_equal(predecessor, ConstituencyTree(Internal("S", (leaf("a"),))))


def test_single_internal_sibling_is_juxtapose():
    t = ConstituencyTree(
        Internal("S", (Internal("NP", (leaf("a"),)), Internal("VP", (leaf("b"),))))
    )
    action, predecessor, case = last_action(t)
    assert action == juxtapose(0, "VP", "S")
    assert case == "2-2"
    assert tree_equal(predecessor, ConstituencyTree(Internal("NP", (leaf("a"),))))


def test_leaf_sibling_is_attach_not_juxtapose():
    # A single left sibling that is a leaf cannot be undone as juxtapose:
    # the predecessor root would be a bare leaf.
    t = ConstituencyTree(Internal("S", (leaf("a"), Internal("NP", (leaf("b"),)))))
    action, _, case = last_action(t)
    assert action == attach(0, "NP")
    assert case == "2-3"


def test_golden_sequence(fig_tree):
    actions = oracle_action_sequence(fig_tree)
    assert format_actions(actions) == (
        "attach(0,NP) juxtapose(0,VP,S) attach(1,NP)"
        " juxtapose(2,PP,NP) attach(3,NP) attach(4,None)"
    )


def test_case_tally_counts_every_step(fig_tree):
    tally = {}
    actions = oracle_action_sequence(fig_tree, case_tally=tally)
    assert sum(tally.values()) == len(actions) == fig_tree.length
    assert tally.get("1-1", 0) == 0
    assert set(tally) <= set(CASES)


def test_sequence_length_is_token_count():
    for t in generate_corpus(50, seed=11):
        assert len(oracle_action_sequence(t)) == t.length


def test_roundtrip_on_synthetic_corpus():
    for t in generate_corpus(200, seed=5):
        actions = oracle_action_sequence(t)
        assert tree_equal(apply_sequence(tokens_of(t), actions), t)


@settings(max_examples=200)
@given(trees(allow_unary=False))
def test_roundtrip_property(t):
    from ajparse.tree import has_unary_chains

    if has_unary_chains(t):
        return
    actions = oracle_action_sequence(t)
    assert len(actions) == t.length
    assert tree_equal(apply_sequence(tokens_of(t), actions), t)


def test_undo_chain_matches_sequence(fig_tree):
    # Repeated last_action walks the exact reverse of the forward sequence.
    actions = oracle_action_sequence(fig_tree)
    t = fig_tree
    for expected in reversed(actions):
        action, t, _ = last_action(t)
        assert action == expected
    assert t.root is None
