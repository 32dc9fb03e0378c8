"""``decode_beam`` parses exactly as the decoder in ``reference.py``, which
builds, keys and sorts every legal action of every beam item and keeps a
tree per item, and its parses hold the input and round-trip through the
oracle."""

import random
from functools import lru_cache
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import reference
from ajparse import predictor
from ajparse.exhaustive import _enumerate_final_trees
from ajparse.oracle import oracle_action_sequence
from ajparse.predictor import ActionScorer, decode_beam, train
from ajparse.synth import generate_corpus
from ajparse.transition import (
    INITIAL_STATE,
    action_kind,
    apply_action,
    apply_sequence,
    attach,
    close_chain,
    juxtapose,
)
from ajparse.tree import ConstituencyTree, Token, iter_leaves, rightmost_chain, tree_equal
from ajparse.treebank import tokens_of, write_bracketed

LABELS = ("S", "NP", "VP", "PP", "X", "B", "A")


@lru_cache(maxsize=32)
def _trained(n_sentences: int, epochs: int, seed: int) -> ActionScorer:
    return train(generate_corpus(n_sentences, seed=seed), epochs=epochs, seed=seed)


@st.composite
def scorers(draw):
    if draw(st.booleans()):
        return _trained(
            draw(st.integers(1, 30)), draw(st.integers(1, 3)), draw(st.integers(0, 10**6))
        )
    # The label list need not be sorted.
    labels = draw(st.lists(st.sampled_from(LABELS), min_size=1, max_size=5, unique=True))
    if draw(st.booleans()):
        # Every candidate ties, so order falls to the action key and the rank.
        return ActionScorer(labels, {}, {})
    # A few small integer weights: many exact ties, and not only within an item.
    weight = st.sampled_from([-1.0, 1.0, 2.0])
    feats = st.sampled_from(["w=the", "w=king", "p=NN", "prev=attach", "chain=empty",
                             "len=1", "len=2", "c0=" + labels[0], "t.d=0", "t.dist=0"])
    keys = st.tuples(feats, st.sampled_from(labels + ["<none>"]))
    return ActionScorer(
        labels,
        {f: [w] for f, w in draw(st.dictionaries(feats, weight, max_size=4)).items()},
        reference.label_rows(
            draw(st.dictionaries(keys, weight, max_size=6)),
            draw(st.dictionaries(keys, weight, max_size=6)),
            labels,
        ),
    )


@st.composite
def sentences(draw):
    if draw(st.booleans()):
        return tokens_of(generate_corpus(1, seed=draw(st.integers(0, 10**6)))[0])
    # Unseen words and tags leave most features without a weight.
    word = st.sampled_from(["the", "king", "sees", "zzz", "of", "Arthur"])
    pos = st.sampled_from([None, "NN", "DT", "VBZ", "QQ"])
    return draw(st.lists(st.builds(Token, word, pos), min_size=1, max_size=12))


def _text(state) -> str:
    """Bracketed text of a tree, or of an open chain, which is left as is."""
    if isinstance(state, list):
        state = ConstituencyTree(close_chain([[label, list(kids)] for label, kids in state], 0))
    return write_bracketed(state) if state.root else ""


def _beams(module, name, decode, scorer, tokens, beam):
    """The parse, and every beam entrant's action and state in beam order,
    recorded by wrapping ``module.<name>``, which builds each entrant."""
    entrants = []
    successor = getattr(module, name)

    def recording(state, token, action):
        entrants.append((_text(state), str(action)))
        return successor(state, token, action)

    with mock.patch.object(module, name, recording):
        return write_bracketed(decode(scorer, tokens, beam)), entrants


@settings(max_examples=200, deadline=None)
@given(scorers(), sentences(), st.integers(1, 12))
def test_decode_beam_matches_reference(scorer, tokens, beam):
    assert _beams(predictor, "step", decode_beam, scorer, tokens, beam) == _beams(
        reference, "apply_action", reference.reference_decode_beam, scorer, tokens, beam
    )


@settings(max_examples=100, deadline=None)
@given(scorers(), sentences(), st.integers(1, 12))
def test_decoded_tree_holds_the_input_and_round_trips(scorer, tokens, beam):
    """A parse's leaves are the input tokens in order, and the oracle's
    actions rebuild the parse from those tokens."""
    tree = decode_beam(scorer, tokens, beam)
    assert [leaf.token for leaf in iter_leaves(tree.root)] == tokens
    assert tree_equal(apply_sequence(tokens, oracle_action_sequence(tree)), tree)


@pytest.mark.parametrize("tokens, beam", [([], 1), ([], 0), ([Token("a", "DT")], 0),
                                          ([Token("a", "DT")], -3)])
def test_decode_beam_errors_match_reference(tokens, beam):
    scorer = ActionScorer(["S"], {}, {})
    with pytest.raises(ValueError) as ours:
        decode_beam(scorer, tokens, beam)
    with pytest.raises(ValueError) as ref:
        reference.reference_decode_beam(scorer, tokens, beam)
    assert type(ours.value) is type(ref.value)
    assert str(ours.value) == str(ref.value)


def test_totals_that_round_equal_go_to_the_lower_index():
    """Two actions whose joint scores differ but whose totals round equal
    tie, and the tie goes to the lower index though its score is lower. At
    beam 2 the lower-scored action is not among the ``beam + 1`` best joint
    scores of its step, so the decoder finds it only by widening."""
    labels = ["A", "B", "C"]
    # Label slots: parent None, A, B, C at 0-3, new None, A, B, C at 4-7.
    scorer = ActionScorer(labels, {"t.d=0": [0.7], "t.dist=0": [-0.1]},
                          {"c0=A": {0: 0.3, 1: 0.2, 2: -0.4, 3: 0.2, 6: 0.1}})
    tokens = [Token("x", "Y"), Token("y", "X"), Token("x", "Y"), Token("y", "X")]
    weights = reference.scorer_weights(scorer)
    first = reference.step_scores(weights, labels, INITIAL_STATE, tokens[0], (), "none")
    score = first[0][1]  # attach(0, A), tied with the other labels, ranks first
    state = apply_action(INITIAL_STATE, tokens[0], attach(0, "A"))
    step = {action: (joint, normalized) for joint, normalized, action in
            reference.step_scores(weights, labels, state, tokens[1], tokens[:1], "attach")}
    # Target 0.6 (-0.1 + 0.7), then parent and new: 0.3 + 0.0 against 0.2 + 0.1.
    low, high = step[attach(0, None)], step[juxtapose(0, "A", "B")]
    assert low[0] < high[0]
    assert score + low[1] == score + high[1]
    assert sum(joint > low[0] for joint, _ in step.values()) >= 2 + 1
    for beam in (1, 2):
        ours = _beams(predictor, "step", decode_beam, scorer, tokens, beam)
        assert ours == _beams(
            reference, "apply_action", reference.reference_decode_beam, scorer, tokens, beam
        )
    # The second entrant of the second step is the lower-scored attach.
    assert ours[1][3][1] == str(attach(0, None))


def _exact_search(labels, tokens, rng):
    """Every legal action sequence over ``tokens`` with its summed,
    per-step normalized score, under a scorer of random non-integer weights.

    ``_enumerate_final_trees`` gives one tree per legal sequence, and the
    oracle gives its actions. About two thirds of the features and label
    slots that some step fires get a weight; the rest weigh 0.0, so some
    actions of a step tie. Returns the scorer, the number of sequences of
    any length, the total of each complete sequence, and each prefix's
    ``(normalized, action)`` pairs in ``legal_actions`` order.
    """
    results, sequences = _enumerate_final_trees(len(tokens), labels)
    assert set(results.values()) == {1}
    paths = [tuple(oracle_action_sequence(tree)) for tree in results
             if len(tokens_of(tree)) == len(tokens)]
    states = {(): INITIAL_STATE}
    for path in paths:
        for i in range(1, len(path)):
            if path[:i] not in states:
                states[path[:i]] = apply_action(states[path[: i - 1]], tokens[i - 1], path[i - 1])

    def step_args(prefix, state):
        i = len(prefix)
        kind = action_kind(prefix[-1]) if prefix else "none"
        return state, tokens[i], tuple(tokens[max(0, i - 2) : i]), kind

    target, label = set(), set()
    for prefix, state in states.items():
        state, token, context, kind = step_args(prefix, state)
        chain = rightmost_chain(state)
        label.update(reference.featurize(chain, token, context, kind))
        for d in range(len(chain)):
            target.update(reference.target_features(chain, d, token))
    width = 2 * (len(labels) + 1)
    rows = {f: {s: rng.uniform(-1, 1) for s in range(width) if rng.random() < 2 / 3}
            for f in sorted(label)}
    scorer = ActionScorer(
        labels,
        {f: [rng.uniform(-1, 1)] for f in sorted(target) if rng.random() < 2 / 3},
        {f: row for f, row in rows.items() if row},
    )
    weights = reference.scorer_weights(scorer)
    steps = {
        prefix: [(normalized, action) for _, normalized, action in
                 reference.step_scores(weights, labels, *step_args(prefix, state))]
        for prefix, state in states.items()
    }
    normalized = {prefix: {action: s for s, action in step} for prefix, step in steps.items()}
    totals = {}
    for path in paths:
        # Added step by step as the decoder adds them; ``sum`` compensates
        # its rounding on Python 3.12 and later.
        total = 0.0
        for i, action in enumerate(path):
            total += normalized[path[:i]][action]
        totals[path] = total
    return scorer, sequences, totals, steps


@pytest.mark.parametrize("labels, n, seed", [
    (["A", "B"], 4, 1), (["NP", "S", "VP"], 3, 2), (["S", "NP", "VP"], 3, 3),
    (["B", "A"], 3, 4), (["A", "B", "C"], 2, 5), (["A", "B"], 1, 6),
])
def test_beam_search_agrees_with_exact_search(labels, n, seed):
    """With a beam no smaller than the number of legal action sequences,
    nothing is cut, so the parse is a sequence with the highest summed,
    per-step normalized score. Beam 1 takes, at each step, the action with
    the highest total, ties going to attach before juxtapose and then to
    the lower ``legal_actions`` index."""
    rng = random.Random(seed)
    tokens = [Token(rng.choice(["the", "king", "sees"]), rng.choice(["DT", "NN", None]))
              for _ in range(n)]
    scorer, sequences, totals, steps = _exact_search(labels, tokens, rng)
    best = max(totals.values())
    assert totals[tuple(oracle_action_sequence(decode_beam(scorer, tokens, sequences)))] == best

    greedy = oracle_action_sequence(decode_beam(scorer, tokens, 1))
    total = 0.0
    for i, action in enumerate(greedy):
        candidates = steps[tuple(greedy[:i])]
        k = min(range(len(candidates)), key=lambda k: (
            -(total + candidates[k][0]), candidates[k][1][2] is not None, k))
        assert action == candidates[k][1]
        total += candidates[k][0]
