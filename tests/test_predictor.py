import hashlib
import random
import tempfile
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import ajparse.predictor
from ajparse.oracle import oracle_action_sequence
from ajparse.predictor import (
    ActionScorer,
    ModelFormatError,
    _factor_scores,
    collect_labels,
    decode_beam,
    train,
)
from ajparse.scoring import score
from ajparse.synth import generate_corpus
from ajparse.tree import Internal, Token, tree_equal
from ajparse.treebank import parse_bracketed, tokens_of, write_bracketed
from reference import decode_right_branching, majority_label
from test_train_reference import relabel


@pytest.fixture(scope="module")
def small_corpus():
    return generate_corpus(120, seed=13)


@pytest.fixture(scope="module")
def trained(small_corpus):
    return train(small_corpus[:100], epochs=3, seed=0)


def test_train_rejects_bad_args():
    with pytest.raises(ValueError):
        train([], epochs=1, seed=0)
    with pytest.raises(ValueError):
        train(generate_corpus(1, seed=0), epochs=0, seed=0)


def test_collect_labels_sorted(small_corpus):
    labels = collect_labels(small_corpus)
    assert labels == sorted(labels)
    assert "S" in labels and "NP" in labels


def test_epoch_accuracy_recorded(trained):
    assert len(trained.epoch_accuracy) == 3
    for acc in trained.epoch_accuracy:
        assert set(acc) == {"target", "parent", "new"}
        for v in acc.values():
            assert 0.0 <= v <= 1.0
    # Training accuracy should improve over a blind first pass.
    assert trained.epoch_accuracy[-1]["parent"] > 0.5


def test_memorizes_single_tree(small_corpus):
    one = small_corpus[:1]
    scorer = train(one, epochs=10, seed=0)
    pred = decode_beam(scorer, tokens_of(one[0]), 1)
    assert tree_equal(pred, one[0])
    assert score(one, [pred]).f1 == 100.0


def test_decode_produces_full_tree(trained, small_corpus):
    for t in small_corpus[100:110]:
        pred = decode_beam(trained, tokens_of(t), 1)
        assert len(tokens_of(pred)) == len(tokens_of(t))


def test_decode_rejects_empty_or_bad_beam(trained):
    with pytest.raises(ValueError):
        decode_beam(trained, [], 1)
    with pytest.raises(ValueError):
        decode_beam(trained, tokens_of(generate_corpus(1, seed=0)[0]), 0)


def test_beam_search_not_worse(trained, small_corpus):
    test = small_corpus[100:]
    greedy = [decode_beam(trained, tokens_of(t), 1) for t in test]
    beam = [decode_beam(trained, tokens_of(t), 10) for t in test]
    assert score(test, beam).f1 >= score(test, greedy).f1 - 0.5


def test_beats_right_branching_baseline(trained, small_corpus):
    test = small_corpus[100:]
    greedy = [decode_beam(trained, tokens_of(t), 1) for t in test]
    lbl = majority_label(small_corpus[:100])
    baseline = [decode_right_branching(tokens_of(t), lbl) for t in test]
    assert score(test, greedy).f1 > score(test, baseline).f1


def test_right_branching_shape():
    toks = tokens_of(generate_corpus(1, seed=4)[0])
    t = decode_right_branching(toks, "X")
    assert len(tokens_of(t)) == len(toks)
    node = t.root
    while hasattr(node, "children"):
        assert node.label == "X"
        node = node.children[-1]


def test_majority_label(small_corpus):
    lbl = majority_label(small_corpus)
    assert lbl in collect_labels(small_corpus)


def test_training_is_deterministic(small_corpus, tmp_path):
    a = train(small_corpus[:30], epochs=2, seed=7)
    b = train(small_corpus[:30], epochs=2, seed=7)
    pa, pb = tmp_path / "a.model", tmp_path / "b.model"
    a.save(str(pa))
    b.save(str(pb))
    assert pa.read_bytes() == pb.read_bytes()


def test_seed_changes_shuffle_order(small_corpus):
    a = train(small_corpus[:30], epochs=2, seed=1)
    b = train(small_corpus[:30], epochs=2, seed=2)
    # Different shuffles virtually always yield different weights.
    assert a.target_weights != b.target_weights or a.label_weights != b.label_weights


def test_model_save_load_roundtrip(trained, tmp_path, small_corpus):
    p = tmp_path / "m.model"
    trained.save(str(p))
    loaded = ActionScorer.load(str(p))
    assert loaded.labels == trained.labels
    for t in small_corpus[100:105]:
        toks = tokens_of(t)
        assert tree_equal(decode_beam(trained, toks, 1), decode_beam(loaded, toks, 1))


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 30), st.integers(1, 3), st.integers(0, 10**6))
def test_model_save_load_save_is_identical(n_sentences, epochs, seed):
    corpus = generate_corpus(n_sentences + 2, seed=seed)
    trained = train(corpus[:n_sentences], epochs=epochs, seed=seed)
    held_out = [tokens_of(t) for t in corpus[n_sentences:]]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "m.model")
        trained.save(str(path))
        saved = path.read_bytes()
        loaded = ActionScorer.load(str(path))
        loaded.save(str(path))
        assert path.read_bytes() == saved

        # A weight on a label outside the vocabulary is never scored.
        lines = saved.decode().splitlines(keepends=True)
        for section in ("[parent]\n", "[new]\n"):
            lines.insert(lines.index(section) + 1, "w=the\tNOT-A-LABEL\t5.0\n")
        path.write_text("".join(lines))
        extra = ActionScorer.load(str(path))
        extra.save(str(path))
        assert path.read_bytes() == saved
    for tokens in held_out:
        for beam in (1, 10):
            want = write_bracketed(decode_beam(trained, tokens, beam))
            assert write_bracketed(decode_beam(loaded, tokens, beam)) == want
            assert write_bracketed(decode_beam(extra, tokens, beam)) == want


def test_model_load_validates_format(tmp_path):
    p = tmp_path / "junk.model"
    p.write_text("not a model\n")
    with pytest.raises(ModelFormatError):
        ActionScorer.load(str(p))
    p.write_text("ajparse-model\t999\nlabels\tS\n[end]\n")
    with pytest.raises(ModelFormatError):
        ActionScorer.load(str(p))
    # "<none>" names the no-label slot, so a label may not take that name.
    for labels in ("S\t<none>", "NP\tS\tNP"):
        p.write_text(f"ajparse-model\t1\nlabels\t{labels}\n[end]\n")
        with pytest.raises(ModelFormatError, match="repeated or spelled '<none>'"):
            ActionScorer.load(str(p))
    # A parse writes each label into bracketed text that score reads back,
    # and with no label the first token has no action.
    for line in ("labels", "labels\t", "labels\tNP\t", "labels\tNP\tN P", "labels\tN\xa0P",
                 "labels\tN(P", "labels\tNP)", "labels\tS+", "labels\t+S", "labels\tS++VP"):
        p.write_text(f"ajparse-model\t1\n{line}\n[end]\n", encoding="utf-8")
        with pytest.raises(ModelFormatError):
            ActionScorer.load(str(p))
        with pytest.raises(ModelFormatError):
            ActionScorer(line.split("\t")[1:], {}, {}).save(str(tmp_path / "out.model"))
    assert not (tmp_path / "out.model").exists()


# One feature with different [parent] and [new] weights for the same
# labels, <none> included; the sections are in save's order.
SLOT_RANGES_MODEL = """\
ajparse-model\t1
labels\tNP\tS
[target]
t.d=0\t0.5
[parent]
c0=S\tS\t4.0
w=the\t<none>\t1.5
w=the\tNP\t2.0
[new]
w=the\t<none>\t-0.25
w=the\tNP\t3.0
w=the\tS\t0.125
[end]
"""


def test_label_sections_keep_their_own_slot_ranges(tmp_path):
    p = tmp_path / "slots.model"
    p.write_text(SLOT_RANGES_MODEL)
    scorer = ActionScorer.load(str(p))
    _, parent, new = _factor_scores(
        scorer.target_weights, scorer.label_weights, ("w=the", "c0=S"), [], Token("the", "DT"), 3
    )
    assert (parent, new) == ([1.5, 2.0, 4.0], [-0.25, 3.0, 0.125])
    scorer.save(str(p))
    assert p.read_text() == SLOT_RANGES_MODEL


# sha256 of the model file and of the parses of small_corpus[100:], one
# bracketed tree per line. Refactors of training or decoding must keep
# model files and parses byte-identical.
GOLDEN_MODEL = "acaa2d877f09e06e2f7c0659f17e85610dfcd1d6324507c0e841b1163383e969"
GOLDEN_PARSES = {
    1: "905f86b74b04ff57b2f4165d6037927405cc48c9e008f02f969ee5e9191043ec",
    10: "905f86b74b04ff57b2f4165d6037927405cc48c9e008f02f969ee5e9191043ec",
}
# The same for small_corpus with each label split up to six ways: 24 labels,
# so label rows of 25 slots, most of them never touched.
MANY_LABEL_GOLDEN_MODEL = "24d46f8bdbcbb73e91a3e87af9af4b54577b5b3099a153c23e362c0cb3d13c7b"
MANY_LABEL_GOLDEN_PARSES = {
    1: "52554384fb21aa0a4bf92ecaa2e5f1e69725a6723a86358290237211770299d1",
    10: "626bdf3ae5c6ba291d8e0c31eab2902bd3cd62465c791f93bdb68165d306bb90",
}


def _check_golden(scorer, held_out, model, parses, tmp_path):
    p = tmp_path / "golden.model"
    scorer.save(str(p))
    assert hashlib.sha256(p.read_bytes()).hexdigest() == model
    for beam, digest in parses.items():
        text = "".join(
            write_bracketed(decode_beam(scorer, tokens_of(t), beam)) + "\n" for t in held_out
        )
        assert hashlib.sha256(text.encode()).hexdigest() == digest, beam


def test_golden_model_and_parses(trained, small_corpus, tmp_path):
    _check_golden(trained, small_corpus[100:], GOLDEN_MODEL, GOLDEN_PARSES, tmp_path)


def test_many_label_golden_model_and_parses(small_corpus, tmp_path):
    rng = random.Random(13)
    corpus = [relabel(t, rng, 6) for t in small_corpus]
    assert len(collect_labels(corpus)) == 24
    scorer = train(corpus[:100], epochs=3, seed=0)
    _check_golden(
        scorer, corpus[100:], MANY_LABEL_GOLDEN_MODEL, MANY_LABEL_GOLDEN_PARSES, tmp_path
    )


@pytest.mark.parametrize("beam", [1, 10])
def test_decode_builds_few_actions_per_step(trained, small_corpus, monkeypatch, beam):
    """Decoding builds an action only for a candidate that can enter the
    beam, not for each of the depth x (labels + 1)**2 it scores."""
    built = []
    action_at = ajparse.predictor.action_at

    def counting(*args):
        built.append(args)
        return action_at(*args)

    monkeypatch.setattr(ajparse.predictor, "action_at", counting)
    sentences = [tokens_of(t) for t in small_corpus[100:]]
    for tokens in sentences:
        decode_beam(trained, tokens, beam)
    steps = sum(map(len, sentences))
    assert len(built) <= 2 * beam * steps, len(built) / steps


def _decode_peak(scorer, tokens, beam) -> int:
    tracemalloc.start()
    try:
        decode_beam(scorer, tokens, beam)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_beam_ten_holds_little_more_than_greedy(small_corpus):
    """A beam step keeps only the candidates that reach the best totals so
    far, not every item's depth x (labels + 1)**2 totals until the cut."""
    rng = random.Random(13)
    corpus = [relabel(t, rng, 2) for t in small_corpus[:40]]
    scorer = train(corpus[:30], epochs=1, seed=0)
    assert len(scorer.labels) == 8
    tokens = next(toks for toks in map(tokens_of, corpus[30:]) if len(toks) == 10)
    greedy, wide = _decode_peak(scorer, tokens, 1), _decode_peak(scorer, tokens, 10)
    assert wide < 3 * greedy, wide / greedy


def test_training_shares_one_tuple_per_action(monkeypatch):
    """Equal oracle steps of different sentences are one object in the
    examples that training replays, though the oracle builds each anew."""
    trees = [
        parse_bracketed(f"(S (NP (DT the) (NN {noun})) (VP (VBD {verb})))")
        for noun, verb in (("king", "slept"), ("dog", "ran"))
    ]
    first, second = map(oracle_action_sequence, trees)
    assert first == second and first[0] is not second[0]
    replayed = []
    teacher_steps = ajparse.predictor._teacher_steps

    def recording(tokens, actions):
        replayed.append(actions)
        return teacher_steps(tokens, actions)

    monkeypatch.setattr(ajparse.predictor, "_teacher_steps", recording)
    train(trees, epochs=1, seed=0)
    first, second = replayed
    assert first == second and all(a is b for a, b in zip(first, second))


# Before token i a right-branching tree's chain holds i nodes, so a step
# that rebuilds the chain builds O(n) nodes and a sentence O(n^2).
DEEP = [Token(f"w{i}", "T") for i in range(200)]


@pytest.fixture(scope="module")
def deep_tree():
    return decode_right_branching(DEEP, "S")


@pytest.fixture(scope="module")
def deep_scorer(deep_tree):
    return train([deep_tree], epochs=1, seed=0)


@pytest.fixture
def node_builds(monkeypatch):
    built = []
    new = Internal.__new__

    def counting(cls, *args, **kwargs):
        node = new(cls, *args, **kwargs)
        built.append(node)
        return node

    monkeypatch.setattr(Internal, "__new__", staticmethod(counting))
    return built


def test_training_builds_few_nodes_per_step(deep_tree, node_builds):
    """Teacher forcing steps one open chain and builds a node only when a
    frame closes, not a tree per step."""
    train([deep_tree], epochs=2, seed=0)
    steps = 2 * len(DEEP)
    assert len(node_builds) <= 2 * steps, len(node_builds) / steps


@pytest.mark.parametrize("beam", [1, 10])
def test_decode_builds_few_nodes_per_step(deep_scorer, node_builds, beam):
    """A beam entrant copies and closes only the frames from its action's
    target down; the winner is closed into a tree once."""
    tree = decode_beam(deep_scorer, DEEP, beam)
    assert len(tokens_of(tree)) == len(DEEP)
    assert len(node_builds) <= 2 * beam * len(DEEP), len(node_builds) / len(DEEP)
