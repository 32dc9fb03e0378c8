import pytest
from hypothesis import given, settings, strategies as st

import reference
from ajparse.isr import SHIFT, translate_action
from ajparse.oracle import oracle_action_sequence
from ajparse.transition import (
    ATTACH,
    INITIAL_STATE,
    JUXTAPOSE,
    IllegalActionError,
    action_kind,
    apply_action,
    apply_sequence,
    attach,
    format_actions,
    juxtapose,
    legal_actions,
)
from ajparse.tree import Internal, Token, collapse_unary_chains, rightmost_chain, tree_equal
from ajparse.treebank import tokens_of

from test_tree import trees


def tok(word, pos="T"):
    return Token(word, pos)


def test_action_validation():
    with pytest.raises(ValueError):
        juxtapose(0, "S", None)  # juxtapose requires a new label
    state = apply_action(INITIAL_STATE, tok("a"), attach(0, "S"))
    with pytest.raises(IllegalActionError):
        apply_action(state, tok("b"), attach(-1, "S"))


def test_action_str_roundtrip():
    acts = [attach(0, "NP"), juxtapose(0, "VP", "S"), attach(4, None)]
    text = format_actions(acts)
    assert text == "attach(0,NP) juxtapose(0,VP,S) attach(4,None)"


@settings(max_examples=100)
@given(trees(allow_unary=False))
def test_action_text_roundtrip_property(t):
    """Oracle actions rebuild the tree, and each action's text starts with
    its kind."""
    t = collapse_unary_chains(t)
    acts = oracle_action_sequence(t)
    assert tree_equal(apply_sequence(tokens_of(t), acts), t)
    for a in acts:
        assert action_kind(a) in (ATTACH, JUXTAPOSE)
        assert format_actions([a]).startswith(action_kind(a) + "(")


def test_first_action_creates_root():
    state = apply_action(INITIAL_STATE, tok("a"), attach(0, "S"))
    assert state.root.label == "S"
    assert len(tokens_of(state)) == 1


def test_empty_tree_rejects_other_actions():
    with pytest.raises(IllegalActionError):
        apply_action(INITIAL_STATE, tok("a"), attach(0, None))
    with pytest.raises(IllegalActionError):
        apply_action(INITIAL_STATE, tok("a"), juxtapose(0, "NP", "S"))
    with pytest.raises(IllegalActionError):
        apply_action(INITIAL_STATE, tok("a"), attach(1, "S"))


def test_attach_appends_rightmost_child():
    state = apply_action(INITIAL_STATE, tok("a"), attach(0, "S"))
    state = apply_action(state, tok("b"), attach(0, None))
    root = state.root
    assert [l.token.word for l in root.children] == ["a", "b"]

    state = apply_action(state, tok("c"), attach(0, "NP"))
    wrapped = state.root.children[-1]
    assert isinstance(wrapped, Internal) and wrapped.label == "NP"
    assert wrapped.children[0].token.word == "c"


def test_juxtapose_replaces_target_with_new_node():
    state = apply_action(INITIAL_STATE, tok("a"), attach(0, "NP"))
    state = apply_action(state, tok("b"), juxtapose(0, "VP", "S"))
    root = state.root
    assert root.label == "S"
    assert root.children[0].label == "NP"
    assert root.children[1].label == "VP"
    assert root.children[1].children[0].token.word == "b"


def test_juxtapose_without_parent_label_places_bare_leaf():
    state = apply_action(INITIAL_STATE, tok("a"), attach(0, "NP"))
    state = apply_action(state, tok("b"), juxtapose(0, None, "S"))
    root = state.root
    assert root.label == "S"
    assert root.children[1].token.word == "b"


def test_target_bounds_checked():
    state = apply_action(INITIAL_STATE, tok("a"), attach(0, "S"))
    with pytest.raises(IllegalActionError):
        apply_action(state, tok("b"), attach(1, None))
    err = None
    try:
        apply_action(state, tok("b"), attach(5, None))
    except IllegalActionError as e:
        err = e
    assert err is not None and err.action == attach(5, None)


def test_leaves_follow_consumption_order():
    state = INITIAL_STATE
    for i, a in enumerate([attach(0, "S"), attach(0, None), attach(0, "NP")]):
        state = apply_action(state, tok(f"w{i}"), a)
    assert [t.word for t in tokens_of(state)] == ["w0", "w1", "w2"]


def test_legal_actions_empty_tree():
    acts = legal_actions(INITIAL_STATE, {"NP", "S"})
    assert acts == [attach(0, "NP"), attach(0, "S")]


def test_legal_actions_grouped_order():
    state = apply_action(INITIAL_STATE, tok("a"), attach(0, "S"))
    assert legal_actions(state, {"A"}) == [
        attach(0, None),
        juxtapose(0, None, "A"),
        attach(0, "A"),
        juxtapose(0, "A", "A"),
    ]


@settings(max_examples=100, deadline=None)
@given(st.lists(st.sampled_from(["S", "NP", "VP", "PP", "X", "B", "A"]),
                min_size=1, max_size=4, unique=True),
       st.lists(st.integers(0, 10**6), max_size=8))
def test_legal_actions_match_reference(labels, picks):
    """On the empty tree and on states reached by walking the action space,
    ``legal_actions`` lists the reference's nested loops in their order."""
    state = INITIAL_STATE
    for i, pick in enumerate(picks):
        actions = reference.reference_legal_actions(state, labels)
        assert legal_actions(state, labels) == actions
        state = apply_action(state, tok(f"w{i}"), actions[pick % len(actions)])
    assert legal_actions(state, labels) == reference.reference_legal_actions(state, labels)


@settings(max_examples=60)
@given(trees())
def test_legal_actions_counts(t):
    # At every oracle-prefix state, legal_actions, apply_action and
    # translate_action agree on which actions are legal.
    t = collapse_unary_chains(t)
    vocab = {"A", "B"}
    state = INITIAL_STATE
    for token, gold in zip(tokens_of(t), oracle_action_sequence(t)):
        depth = len(rightmost_chain(state))
        acts = legal_actions(state, vocab)
        if depth == 0:
            assert len(acts) == len(vocab)
            illegal = [
                attach(0, None),
                attach(1, "A"),
                juxtapose(0, None, "A"),
                juxtapose(0, "A", "B"),
            ]
        else:
            assert len(acts) == depth * (len(vocab) + 1) ** 2
            illegal = [attach(depth, None), attach(depth, "A"), juxtapose(depth, "A", "B")]
        assert len(set(acts)) == len(acts)
        for a in acts:
            assert len(tokens_of(apply_action(state, token, a))) == len(tokens_of(state)) + 1
            assert translate_action(state, a).count(SHIFT) == 1
        for a in illegal:
            with pytest.raises(IllegalActionError):
                apply_action(state, token, a)
            with pytest.raises(IllegalActionError):
                translate_action(state, a)
        state = apply_action(state, token, gold)


def test_apply_sequence_length_mismatch():
    with pytest.raises(ValueError):
        apply_sequence([tok("a")], [])


def test_apply_sequence_reports_step():
    with pytest.raises(IllegalActionError) as exc:
        apply_sequence([tok("a"), tok("b")], [attach(0, "S"), attach(7, None)])
    assert exc.value.step == 1
