import pytest
from hypothesis import given, settings

from ajparse.oracle import CASES, oracle_action_sequence
from ajparse.synth import generate_corpus
from ajparse.transition import apply_sequence, attach, format_actions, juxtapose
from ajparse.tree import (
    ConstituencyTree,
    Internal,
    Leaf,
    Token,
    tree_equal,
)
from ajparse.treebank import tokens_of

from reference import reference_oracle
from test_tree import trees


def leaf(word, pos="T"):
    return Leaf(Token(word, pos))


def last_step(t):
    """The last oracle action of ``t``, the tree that the sequence's prefix
    builds and the decision-table branch of every step, each checked
    against the reference oracle."""
    tally, expected_tally = {}, {}
    actions = oracle_action_sequence(t, case_tally=tally)
    assert actions == reference_oracle(t, expected_tally)
    assert tally == expected_tally
    predecessor = apply_sequence(tokens_of(t)[:-1], actions[:-1])
    return actions[-1], predecessor, tally


def test_rejects_unary_chains():
    t = ConstituencyTree(Internal("S", (Internal("NP", (leaf("a"),)),)))
    with pytest.raises(ValueError):
        oracle_action_sequence(t)


def test_single_leaf_tree():
    t = ConstituencyTree(Internal("S", (leaf("a"),)))
    action, predecessor, tally = last_step(t)
    assert action == attach(0, "S")
    assert tally == {"2-1": 1}
    assert predecessor.root is None
    assert oracle_action_sequence(t) == [attach(0, "S")]


def test_last_leaf_with_siblings_attaches_bare():
    t = ConstituencyTree(Internal("S", (leaf("a"), leaf("b"))))
    action, predecessor, tally = last_step(t)
    assert action == attach(0, None)
    assert tally == {"1-3": 1, "2-1": 1}
    assert tree_equal(predecessor, ConstituencyTree(Internal("S", (leaf("a"),))))


def test_single_internal_sibling_is_juxtapose():
    t = ConstituencyTree(
        Internal("S", (Internal("NP", (leaf("a"),)), Internal("VP", (leaf("b"),))))
    )
    action, predecessor, tally = last_step(t)
    assert action == juxtapose(0, "VP", "S")
    assert tally == {"2-2": 1, "2-1": 1}
    assert tree_equal(predecessor, ConstituencyTree(Internal("NP", (leaf("a"),))))


def test_leaf_sibling_is_attach_not_juxtapose():
    # A single left sibling that is a leaf cannot be undone as juxtapose:
    # the predecessor root would be a bare leaf.
    t = ConstituencyTree(Internal("S", (leaf("a"), Internal("NP", (leaf("b"),)))))
    action, _, tally = last_step(t)
    assert action == attach(0, "NP")
    assert tally == {"2-3": 1, "2-1": 1}


def test_golden_sequence(fig_tree):
    actions = oracle_action_sequence(fig_tree)
    assert format_actions(actions) == (
        "attach(0,NP) juxtapose(0,VP,S) attach(1,NP)"
        " juxtapose(2,PP,NP) attach(3,NP) attach(4,None)"
    )


def test_case_tally_counts_every_step(fig_tree):
    tally = {}
    actions = oracle_action_sequence(fig_tree, case_tally=tally)
    assert sum(tally.values()) == len(actions) == len(tokens_of(fig_tree))
    assert tally.get("1-1", 0) == 0
    assert set(tally) <= set(CASES)


def test_sequence_length_is_token_count():
    for t in generate_corpus(50, seed=11):
        assert len(oracle_action_sequence(t)) == len(tokens_of(t))


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
    assert len(actions) == len(tokens_of(t))
    assert tree_equal(apply_sequence(tokens_of(t), actions), t)


def test_undo_chain_matches_sequence(fig_tree):
    # The oracle of each prefix's tree is that prefix, so undoing last
    # actions walks the exact reverse of the forward sequence.
    actions = oracle_action_sequence(fig_tree)
    tokens = tokens_of(fig_tree)
    for k in range(len(actions) + 1):
        assert oracle_action_sequence(apply_sequence(tokens[:k], actions[:k])) == actions[:k]
