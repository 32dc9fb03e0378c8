"""``decode_beam`` parses exactly as the decoder in ``reference.py``, which
builds, keys and sorts every legal action of every beam item and keeps a
tree per item, and its parses hold the input and round-trip through the
oracle."""

from functools import lru_cache
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import reference
from ajparse import predictor
from ajparse.oracle import oracle_action_sequence
from ajparse.predictor import ActionScorer, decode_beam, train
from ajparse.synth import generate_corpus
from ajparse.transition import apply_sequence, close_chain
from ajparse.tree import ConstituencyTree, Token, iter_leaves, tree_equal
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
