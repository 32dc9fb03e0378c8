"""``train`` learns exactly what ``reference_train`` learns: the perceptron
arithmetic over per-feature label rows equals the one over
``(feature, label)`` dict keys, float for float. Label rows that hold only
their touched slots average and score as rows of every slot do."""

import random
import tempfile
from pathlib import Path

from hypothesis import given, settings, strategies as st

import reference
from ajparse.oracle import oracle_action_sequence
from ajparse.predictor import (
    _AveragedRows,
    _factor_scores,
    _label_scores,
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
    assert tuple(map(_reprs, reference.label_dict(scorer.label_weights, labels))) == (
        _reprs(parent), _reprs(new)
    )
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
                scorer.target_weights, scorer.label_weights, feats, chain, token, len(choices)
            )
            ref_t, ref_p, ref_n = reference._factor_scores(
                target, parent, new, feats, tree_chain, token, choices
            )
            assert repr(t) == repr(ref_t)
            assert repr(p) == repr([ref_p[c] for c in choices])
            assert repr(n) == repr([ref_n[c] for c in choices])


FEATURES = [f"f{i}" for i in range(6)]


@st.composite
def update_runs(draw):
    """A label width and a run of ticks (None) and ``(feats, slot, delta)``
    updates of +1.0 or -1.0; some updates are undone a few ticks later, so
    their slots go back to exactly 0.0."""
    width = draw(st.integers(2, 8))
    update = st.tuples(
        st.lists(st.sampled_from(FEATURES[:-1]), max_size=4).map(tuple),
        st.integers(0, width - 1),
        st.sampled_from([1.0, -1.0]),
    )
    run = []
    for op in draw(st.lists(st.none() | update, max_size=40)):
        run.append(op)
        if op is not None and draw(st.booleans()):
            feats, slot, delta = op
            run += [None] * draw(st.integers(0, 3)) + [(feats, slot, -delta)]
    return width, run


@settings(max_examples=100, deadline=None)
@given(update_runs())
def test_sparse_rows_average_as_dense_rows(width_run):
    width, run = width_run
    sparse, dense = _AveragedRows(width), reference.ReferenceAveragedRows(width)
    for op in run:
        for rows in (sparse, dense):
            if op is None:
                rows.tick()
            else:
                rows.update(*op)
    # The last feature is never updated, so it has no row on either side.
    for ours, ref in ((sparse.w, dense.w), (sparse.averaged(), dense.averaged())):
        assert set(ours) == set(ref)
        for f in FEATURES:
            dense_row = ref.get(f, [0.0] * width)
            row = ours.get(f, {})
            assert [repr(row.get(s, 0.0)) for s in range(width)] == list(map(repr, dense_row))
    assert all(all(row.values()) for row in sparse.averaged().values())


# Weights whose sums show the order of the additions.
weights = st.one_of(st.sampled_from([0.0, 1.0, -1.0, 0.1, 1 / 3]), st.floats(-1e6, 1e6))


@st.composite
def label_tables(draw):
    """A width, rows that hold some of its slots, and a feature tuple that
    may name a feature twice or a feature with no row."""
    width = draw(st.integers(2, 8))
    rows = draw(st.dictionaries(
        st.sampled_from(FEATURES[:-1]),
        st.dictionaries(st.integers(0, width - 1), weights, max_size=width),
    ))
    feats = tuple(draw(st.lists(st.sampled_from(FEATURES), max_size=8)))
    return width, rows, feats


@settings(max_examples=100, deadline=None)
@given(label_tables())
def test_sparse_label_scores_match_dense_fold(table):
    width, rows, feats = table
    dense = {f: [row.get(s, 0.0) for s in range(width)] for f, row in rows.items()}
    assert repr(_label_scores(rows, feats, width)) == repr(
        reference.reference_label_scores(dense, feats, width)
    )
