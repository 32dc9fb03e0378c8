import pytest
from hypothesis import given, settings, strategies as st

from ajparse import cli
from ajparse.cli import _replay_checked
from ajparse.isr import (
    EMPTY_STACK,
    REDUCE,
    SHIFT,
    IllegalStackError,
    format_isr_actions,
    gamma,
    is_legal_stack,
    isr_apply,
    phi,
    project,
    translate_action,
    translate_sequence,
    xi,
)
from ajparse.oracle import oracle_action_sequence
from ajparse.transition import INITIAL_STATE, apply_action, attach, juxtapose
from ajparse.tree import (
    EMPTY_TREE,
    Internal,
    Leaf,
    Token,
    iter_leaves,
    node_equal,
    rightmost_chain,
)
from ajparse.treebank import parse_bracketed, tokens_of
from ajparse.synth import generate_corpus

from reference import reference_gamma, reference_phi, reference_reduce_fully


def tok(word, pos="T"):
    return Token(word, pos)


def leaf(word, pos="T"):
    return Leaf(Token(word, pos))


def stack_words(stack):
    """The words of the leaves a stack holds, bottom to top."""
    return [l.token.word for e in stack if not isinstance(e, str) for l in iter_leaves(e)]


def test_isr_action_validation():
    with pytest.raises(ValueError):
        project("")


@pytest.mark.parametrize("action", ["pop", "pj:", "Shift"])
def test_isr_apply_rejects_unknown_actions(action):
    # A move that is no action is a plain ValueError, which the stack
    # search does not catch as an illegal move, whatever the stack.
    for stack in (EMPTY_STACK, (leaf("a"),)):
        with pytest.raises(ValueError) as info:
            isr_apply(stack, action, tok("b"))
        assert not isinstance(info.value, IllegalStackError)


def test_isr_action_format_roundtrip():
    acts = [SHIFT, project("NP"), REDUCE]
    text = format_isr_actions(acts)
    assert text == "shift pj:NP reduce"
    # One shared action per label, however it was made.
    assert project("NP") is acts[1]


def test_shift_pushes_a_leaf():
    s = isr_apply(EMPTY_STACK, SHIFT, tok("a"))
    assert s == (leaf("a"),)
    with pytest.raises(IllegalStackError):
        isr_apply(EMPTY_STACK, SHIFT)  # no token supplied
    with pytest.raises(IllegalStackError):
        isr_apply(("A",), SHIFT, tok("a"))  # a projection on top


def test_project_inserts_beneath_top():
    s = isr_apply(EMPTY_STACK, SHIFT, tok("a"))
    s = isr_apply(s, project("NP"))
    assert s[0] == "NP"
    assert s[1].token.word == "a"
    with pytest.raises(IllegalStackError):
        isr_apply(EMPTY_STACK, project("NP"))


def test_reduce_builds_constituent():
    s = isr_apply(EMPTY_STACK, SHIFT, tok("a"))
    s = isr_apply(s, project("NP"))
    s = isr_apply(s, REDUCE)
    assert len(s) == 1
    node = s[0]
    assert node.label == "NP" and node.children[0].token.word == "a"
    with pytest.raises(IllegalStackError):
        isr_apply(s, REDUCE)  # no projection left


def test_reduce_requires_item_above_projection():
    s = isr_apply(EMPTY_STACK, SHIFT, tok("a"))
    s = isr_apply(s, project("NP"))
    bad = (s[0],)  # lone projection
    with pytest.raises(IllegalStackError):
        isr_apply(bad, REDUCE)
    with pytest.raises(IllegalStackError):  # no projection at all
        isr_apply((leaf("a"), leaf("b")), REDUCE)


def stacks_for_legality():
    t = leaf("a")
    return [
        (),
        (t,),
        ("S", t),
        ("S", t, "VP", t),
        ("S", "NP", t),  # consecutive projections
        (t, t),
        (t, "S", t),
        ("S", t, "VP"),
        ("S",),
    ]


def test_legality_closed_form_matches_reduce_simulation():
    for s in stacks_for_legality():
        final = reference_reduce_fully(s)
        simulated = final is not None and len(final) <= 1
        assert is_legal_stack(s) == simulated, s


def test_consecutive_projections_are_legal():
    s = ("S", "NP", leaf("a"))
    assert is_legal_stack(s)
    root, mark = phi(s)
    assert mark == 1
    assert root.label == "S" and root.children[0].label == "NP"


def test_phi_rejects_illegal_stacks():
    with pytest.raises(IllegalStackError):
        phi((leaf("a"), leaf("b")))


def test_phi_of_empty_and_single_leaf():
    assert phi(EMPTY_STACK) == (None, -1)
    s = isr_apply(EMPTY_STACK, SHIFT, tok("a"))
    root, mark = phi(s)
    assert isinstance(root, Leaf) and mark == -1


def test_gamma_rejects_marks_outside_the_chain():
    root = Internal("S", (leaf("a"),))
    assert gamma((root, -1)) == (root,)
    assert gamma((root, 0)) == ("S", leaf("a"))
    assert gamma((leaf("a"), -1)) == (leaf("a"),)
    for aug in ((root, -2), (root, 1), (root, 2), (None, 0), (None, -2), (leaf("a"), 0)):
        with pytest.raises(ValueError, match="out of range"):
            gamma(aug)


def test_gamma_worked_example():
    # Fully marked chain of (S (NP a) (VP b ...)): S and VP sit below their
    # first completed constituents as projections.
    t = parse_bracketed("(S (NP (T a)) (VP (T b)))")
    stack = gamma((t.root, 1))
    # The NP child is pushed whole, not opened.
    assert stack == ("S", t.root.children[0], "VP", leaf("b"))
    assert isinstance(stack[1], Internal) and stack[1].label == "NP"


def test_gamma_phi_inverse_on_example():
    t = parse_bracketed("(S (NP (T a)) (VP (T b) (NP (T c))))")
    for mark in range(-1, 3):
        aug = (t.root, mark)
        stack = gamma(aug)
        assert is_legal_stack(stack)
        assert phi(stack) == aug


def test_xi_marks_whole_chain():
    t = parse_bracketed("(S (NP (T a)) (VP (T b)))")
    assert xi(t) == (t.root, 1)  # chain [S, VP]
    assert xi(EMPTY_TREE) == (None, -1)


def test_translate_degenerate_first_attach():
    acts = translate_action(EMPTY_TREE, attach(0, "S"))
    assert acts == [SHIFT, project("S")]
    with pytest.raises(ValueError):
        translate_action(EMPTY_TREE, attach(0, None))


def test_translate_attach_counts_reduces():
    state = apply_action(INITIAL_STATE, tok("a"), attach(0, "S"))
    # chain length 1: attach(0, None) -> zero reduces, shift only
    assert translate_action(state, attach(0, None)) == [SHIFT]
    assert translate_action(state, attach(0, "NP")) == [SHIFT, project("NP")]


def test_translate_juxtapose_counts_reduces():
    state = apply_action(INITIAL_STATE, tok("a"), attach(0, "S"))
    assert translate_action(state, juxtapose(0, None, "X")) == [
        REDUCE,
        project("X"),
        SHIFT,
    ]


def test_translate_rejects_bad_target():
    state = apply_action(INITIAL_STATE, tok("a"), attach(0, "S"))
    with pytest.raises(ValueError):
        translate_action(state, attach(3, None))


def test_golden_juxtapose_translation(fig_tree):
    actions = oracle_action_sequence(fig_tree)
    tokens = tokens_of(fig_tree)
    state = INITIAL_STATE
    for token, action in zip(tokens, actions):
        if action == juxtapose(2, "PP", "NP"):
            assert translate_action(state, action) == [
                REDUCE,
                project("NP"),
                SHIFT,
                project("PP"),
            ]
            break
        state = apply_action(state, token, action)
    else:
        pytest.fail("golden juxtapose step not found")


def test_single_leaf_translation():
    t = parse_bracketed("(X (T a))")
    acts = translate_sequence(tokens_of(t), oracle_action_sequence(t))
    assert acts == [SHIFT, project("X"), REDUCE]


def test_full_translation_replays_to_gold(fig_tree):
    tokens = tokens_of(fig_tree)
    acts = translate_sequence(tokens, oracle_action_sequence(fig_tree))
    assert len(acts) == 6 + 2 * 7  # n + 2m
    stack = _replay_checked(acts, tokens)
    assert len(stack) == 1
    assert node_equal(stack[0], fig_tree.root)


def test_length_law_on_corpus():
    for t in generate_corpus(100, seed=2):
        tokens = tokens_of(t)
        acts = translate_sequence(tokens, oracle_action_sequence(t))
        m = _count_internal(t.root)
        assert len(acts) == len(tokens) + 2 * m
        stack = _replay_checked(acts, tokens)
        assert len(stack) == 1
        assert node_equal(stack[0], t.root)


def _count_internal(node):
    if isinstance(node, Leaf):
        return 0
    return 1 + sum(_count_internal(c) for c in node.children)


def test_per_step_translation_lands_on_gamma_xi(fig_tree):
    tokens = tokens_of(fig_tree)
    state = INITIAL_STATE
    stack = EMPTY_STACK
    for token, action in zip(tokens, oracle_action_sequence(fig_tree)):
        for a in translate_action(state, action):
            stack = isr_apply(stack, a, token if a == SHIFT else None)
            assert is_legal_stack(stack)
        state = apply_action(state, token, action)
        assert stack == gamma(xi(state))


@st.composite
def isr_walk_steps(draw, keep_legal=True, max_steps=14, max_tokens=6):
    """The ``(move, stack after it)`` steps of a random walk of shift,
    project (to ``A`` or ``B``) and reduce from the empty stack. Every
    move is one ``isr_apply`` accepts; with ``keep_legal`` each intermediate
    stack is also legal. The walk counts its own shifts and names the token
    of shift ``i`` ``w<i>``."""
    stack, shifts, steps = EMPTY_STACK, 0, []
    for _ in range(draw(st.integers(0, max_steps))):
        moves = [project("A"), project("B"), REDUCE]
        if shifts < max_tokens:
            moves.append(SHIFT)
        succs = []
        for move in moves:
            token = tok(f"w{shifts}") if move == SHIFT else None
            try:
                succ = isr_apply(stack, move, token)
            except IllegalStackError:
                continue
            if is_legal_stack(succ) or not keep_legal:
                succs.append((move, succ))
        if not succs:
            break
        move, stack = draw(st.sampled_from(succs))
        shifts += move == SHIFT
        steps.append((move, stack))
    return steps


def isr_walks(keep_legal=True):
    """The stack at the end of an ``isr_walk_steps`` walk."""
    return isr_walk_steps(keep_legal).map(lambda steps: steps[-1][1] if steps else EMPTY_STACK)


@settings(max_examples=300)
@given(isr_walk_steps(keep_legal=False))
def test_stack_holds_the_shifted_tokens_in_order(steps):
    shifts = 0
    for move, stack in steps:
        if move == SHIFT:
            assert stack[-1] == leaf(f"w{shifts}")
            shifts += 1
        assert stack_words(stack) == [f"w{i}" for i in range(shifts)]


@st.composite
def any_stacks(draw):
    """Stacks from unrestricted walks, some with a projection pushed on
    top, which no ``isr_apply`` move produces and no reduce can fold."""
    stack = draw(isr_walks(keep_legal=False))
    if draw(st.booleans()):
        stack += ("A",)
    return stack


def _phi_outcome(fn, stack):
    try:
        return fn(stack)
    except IllegalStackError as err:
        return f"IllegalStackError: {err}"


@settings(max_examples=300)
@given(st.one_of(isr_walks(), any_stacks()))
def test_phi_matches_reference(stack):
    outcome = _phi_outcome(phi, stack)
    assert outcome == _phi_outcome(reference_phi, stack)
    assert isinstance(outcome, tuple) == is_legal_stack(stack)


@settings(max_examples=300)
@given(st.one_of(isr_walks(), any_stacks()))
def test_reduce_fully_is_the_reduce_fold(stack):
    folded = stack
    try:
        while any(isinstance(e, str) for e in folded):
            folded = isr_apply(folded, REDUCE)
        expected = list(folded)
    except IllegalStackError:
        expected = None
    assert reference_reduce_fully(stack) == expected


@settings(max_examples=300)
@given(isr_walks())
def test_gamma_consumed_is_the_leaf_count(stack):
    root, _ = aug = phi(stack)
    assert gamma(aug) == stack
    for mark in range(-1, len(rightmost_chain(root))):
        marked = (root, mark)
        rebuilt = gamma(marked)
        assert (rebuilt, len(stack_words(rebuilt))) == reference_gamma(marked)


def _fold_checked(moves, tokens):
    """The replay as a fold of ``isr_apply`` over whole stacks, with the
    legality check after each step."""
    stack, it = EMPTY_STACK, iter(tokens)
    for move in moves:
        stack = isr_apply(stack, move, next(it) if move == SHIFT else None)
        if not is_legal_stack(stack):
            raise ValueError("illegal intermediate stack during replay")
    return stack


def _outcome(replay, moves, tokens):
    try:
        stack = replay(moves, tokens)
    except ValueError as err:
        return type(err), str(err)
    assert type(stack) is tuple
    return stack


@st.composite
def replay_moves(draw):
    """The moves of an unrestricted walk, then a few more that need not be
    ones ``isr_apply`` accepts, with a token for every shift."""
    moves = [move for move, _ in draw(isr_walk_steps(keep_legal=False))]
    moves += draw(st.lists(
        st.sampled_from([SHIFT, REDUCE, project("A"), project("B"), "pj:", "noop"]),
        max_size=4,
    ))
    return moves, [tok(f"w{i}") for i in range(moves.count(SHIFT))]


@settings(max_examples=300)
@given(replay_moves())
def test_replay_is_the_checked_isr_apply_fold(case):
    # Every prefix agrees, so a failure is the same one at the same step.
    moves, tokens = case
    for i in range(len(moves) + 1):
        assert _outcome(_replay_checked, moves[:i], tokens) == _outcome(
            _fold_checked, moves[:i], tokens
        )


def test_replay_passes_isr_apply_only_the_suffix_each_move_reads(monkeypatch):
    levels = 2000
    text = "".join(f"(S (T w{i}) " for i in range(levels - 1))
    tree = parse_bracketed(text + f"(S (T w{levels - 1}))" + ")" * (levels - 1))
    tokens = tokens_of(tree)
    acts = translate_sequence(tokens, oracle_action_sequence(tree))
    received, legal_calls = [], []

    def counting_isr_apply(stack, action, next_token=None):
        received.append(len(stack))
        return isr_apply(stack, action, next_token)

    def counting_is_legal_stack(stack):
        legal_calls.append(1)
        return is_legal_stack(stack)

    monkeypatch.setattr(cli, "isr_apply", counting_isr_apply)
    monkeypatch.setattr(cli, "is_legal_stack", counting_is_legal_stack)
    stack = _replay_checked(acts, tokens)
    assert len(stack) == 1 and node_equal(stack[0], tree.root)
    # One call of each per action, as a tracer of ajparse.cli counts them.
    assert len(received) == len(legal_calls) == len(acts) == 3 * levels
    # Whole stacks would sum to about 3 * levels**2 elements.
    assert sum(received) <= 3 * len(acts)
