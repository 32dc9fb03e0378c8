"""The open-chain step, oracle, replay and translation agree with the
persistent references in ``reference.py``."""

import pytest
from hypothesis import given, settings, strategies as st

from ajparse.isr import translate_sequence
from ajparse.oracle import oracle_action_sequence
from ajparse.transition import (
    INITIAL_STATE,
    IllegalActionError,
    apply_action,
    apply_sequence,
    attach,
    juxtapose,
    legal_actions,
)
from ajparse.tree import Token, collapse_unary_chains, iter_leaves, rightmost_chain
from ajparse.treebank import tokens_of

from reference import (
    reference_apply_action,
    reference_apply_sequence,
    reference_last_action,
    reference_oracle,
    reference_translate_sequence,
)
from test_tree import trees

VOCAB = ("A", "B")


@st.composite
def legal_walks(draw, max_steps=10):
    """(tokens, actions) of a random walk through ``legal_actions``."""
    n = draw(st.integers(1, max_steps))
    tokens = [Token(f"w{i}", "T") for i in range(n)]
    state = INITIAL_STATE
    actions = []
    for token in tokens:
        action = draw(st.sampled_from(legal_actions(state, VOCAB)))
        actions.append(action)
        state = apply_action(state, token, action)
    return tokens, actions


def _check_oracle(tree):
    tally, ref_tally = {}, {}
    actions = oracle_action_sequence(tree, case_tally=tally)
    assert actions == reference_oracle(tree, case_tally=ref_tally)
    assert tally == ref_tally
    action, predecessor, _ = reference_last_action(tree.root)
    assert actions[-1] == action
    assert apply_sequence(tokens_of(tree)[:-1], actions[:-1]).root == predecessor
    return actions


def _check_replay(tokens, actions):
    tree = apply_sequence(tokens, actions)
    assert tree == reference_apply_sequence(tokens, actions)
    assert [leaf.token for leaf in iter_leaves(tree.root)] == list(tokens)
    assert translate_sequence(tokens, actions) == reference_translate_sequence(
        tokens, actions
    )
    return tree


@settings(max_examples=300)
@given(trees(max_leaves=10))
def test_open_chain_matches_reference_on_trees(t):
    t = collapse_unary_chains(t)
    actions = _check_oracle(t)
    _check_replay(tokens_of(t), actions)


@settings(max_examples=300)
@given(legal_walks())
def test_open_chain_matches_reference_on_legal_walks(walk):
    tokens, actions = walk
    tree = _check_replay(tokens, actions)
    # Every walk builds a tree without unary chains, whose oracle is the walk.
    assert _check_oracle(tree) == actions


def _illegal_actions(depth):
    if depth == 0:
        return [attach(0, None), attach(1, "A"), juxtapose(0, None, "A"), juxtapose(0, "A", "B")]
    return [attach(depth, None), attach(depth + 2, "A"), juxtapose(depth, "A", "B")]


def _raised(fn, *args):
    with pytest.raises(IllegalActionError) as exc:
        fn(*args)
    return exc.value


@settings(max_examples=200)
@given(legal_walks(), st.data())
def test_illegal_step_matches_reference(walk, data):
    tokens, actions = walk
    i = data.draw(st.integers(0, len(actions) - 1))
    depth = len(rightmost_chain(reference_apply_sequence(tokens[:i], actions[:i])))
    actions = list(actions)
    actions[i] = data.draw(st.sampled_from(_illegal_actions(depth)))

    err = _raised(apply_sequence, tokens, actions)
    ref = _raised(reference_apply_sequence, tokens, actions)
    assert (str(err), err.reason, err.action, err.step) == (
        str(ref), ref.reason, ref.action, ref.step
    )
    assert err.step == i

    err = _raised(translate_sequence, tokens, actions)
    ref = _raised(reference_translate_sequence, tokens, actions)
    assert (str(err), err.reason, err.action, err.step) == (
        str(ref), ref.reason, ref.action, ref.step
    )


@settings(max_examples=100)
@given(legal_walks())
def test_apply_action_matches_reference(walk):
    # At every state of the walk, each legal action builds the reference's
    # tree, and each out-of-range one fails with the reference's error.
    tokens, actions = walk
    state = INITIAL_STATE
    for token, gold in zip(tokens, actions):
        for action in legal_actions(state, VOCAB):
            assert apply_action(state, token, action) == reference_apply_action(
                state, token, action
            )
        for action in _illegal_actions(len(rightmost_chain(state))):
            err = _raised(apply_action, state, token, action)
            ref = _raised(reference_apply_action, state, token, action)
            assert (str(err), err.reason, err.action) == (str(ref), ref.reason, ref.action)
        state = reference_apply_action(state, token, gold)


def test_apply_action_reuses_nodes_below_target():
    # A deep right-branching tree: only the chain down to the target is
    # rebuilt, and the subtree below it is shared with the old tree.
    n = 2000
    tokens = [Token(f"w{i}", "T") for i in range(n + 1)]
    t = apply_sequence(tokens[:n], [attach(max(i - 1, 0), "A") for i in range(n)])
    below = t.root.children[-1]
    assert apply_action(t, tokens[n], attach(0, None)).root.children[-2] is below
    juxtaposed = apply_action(t, tokens[n], juxtapose(0, None, "B")).root
    assert juxtaposed.children[0].children[-1] is below
