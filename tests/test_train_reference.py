"""``train`` learns exactly what ``reference_train`` learns: the perceptron
arithmetic over per-feature label rows equals the one over
``(feature, label)`` dict keys, float for float."""

import random
import tempfile
from pathlib import Path

from hypothesis import given, settings, strategies as st

import reference
from ajparse.oracle import oracle_action_sequence
from ajparse.predictor import (
    _factor_scores,
    _target_features,
    _teacher_steps,
    featurize,
    train,
)
from ajparse.synth import generate_corpus
from ajparse.transition import label_choices
from ajparse.tree import ConstituencyTree, Internal, fold, rightmost_chain
from ajparse.treebank import tokens_of


def _variant(label: str, k: int) -> str:
    # Odd variants sort before "<none>" in the model file, even ones after.
    return f"{k}{label}" if k % 2 else f"{label}{k}"


def relabel(tree: ConstituencyTree, rng: random.Random, variants: int) -> ConstituencyTree:
    """Split each label into up to ``variants`` labels, chosen per node."""
    return ConstituencyTree(fold(
        tree.root,
        lambda leaf: leaf,
        lambda node, kids: Internal(_variant(node.label, rng.randrange(variants)), tuple(kids)),
    ))


@st.composite
def corpora(draw):
    corpus = generate_corpus(draw(st.integers(1, 30)), seed=draw(st.integers(0, 10**6)))
    if draw(st.booleans()):
        # Many labels: the synth grammar's four, split up to six ways each.
        rng = random.Random(draw(st.integers(0, 10**6)))
        variants = draw(st.integers(2, 6))
        corpus = [relabel(t, rng, variants) for t in corpus]
    return corpus


def _reprs(weights: dict) -> dict:
    return {k: repr(v) for k, v in weights.items()}


@settings(max_examples=50, deadline=None)
@given(corpora(), st.integers(1, 3), st.integers(0, 10**6))
def test_train_matches_reference(corpus, epochs, seed):
    scorer = train(corpus, epochs=epochs, seed=seed)
    labels, target, parent, new, history = reference.reference_train(corpus, epochs, seed)
    assert scorer.labels == labels
    assert _reprs({f: row[0] for f, row in scorer.target_weights.items()}) == _reprs(target)
    assert _reprs(reference.label_dict(scorer.parent_weights, labels)) == _reprs(parent)
    assert _reprs(reference.label_dict(scorer.new_weights, labels)) == _reprs(new)
    assert scorer.epoch_accuracy == history
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "m.model")
        scorer.save(str(path))
        assert path.read_text() == reference.reference_model_text(labels, target, parent, new)

    # The averaged weights are not whole numbers, so the order of the
    # additions shows in the scores. The open chain's frames give the
    # features of the tree that the reference builds for the same step.
    choices = label_choices(labels)
    for tree in corpus[:3]:
        steps = _teacher_steps(tokens_of(tree), oracle_action_sequence(tree))
        for ours, ref in zip(steps, reference.teacher_steps(tree), strict=True):
            chain, token, context, prev_kind, action = ours
            state, *rest = ref
            assert (token, context, prev_kind, action) == tuple(rest)
            tree_chain = rightmost_chain(state)
            feats = featurize(chain, token, context, prev_kind)
            assert feats == reference.featurize(tree_chain, token, context, prev_kind)
            assert [_target_features(chain, d, token) for d in range(len(chain))] == [
                reference.target_features(tree_chain, d, token) for d in range(len(tree_chain))
            ]
            t, p, n = _factor_scores(
                scorer.target_weights, scorer.parent_weights, scorer.new_weights,
                feats, chain, token, len(choices),
            )
            ref_t, ref_p, ref_n = reference._factor_scores(
                target, parent, new, feats, tree_chain, token, choices
            )
            assert repr(t) == repr(ref_t)
            assert repr(p) == repr([ref_p[c] for c in choices])
            assert repr(n) == repr([ref_n[c] for c in choices])
