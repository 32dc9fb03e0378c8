"""Acceptance suite: the end-to-end guarantees of the package.

Each test prints a single PASS line on success so the run log shows one
verdict per criterion. Criteria:

1. oracle round-trip on a >= 1000-tree corpus via the verify command, 100%
2. oracle uniqueness by exhaustive enumeration (n_max=4, vocab=2) with
   full decision-case coverage
3. action-sequence length laws: n for attach-juxtapose, n + 2m for ISR
4. stack/tree bijection identities plus the reduce-step lemma
5. per-step translation soundness over the corpus
6. golden six-action sequence and its juxtapose translation fragment
7. scorer sanity: self-score 100, hand-counted 2-of-3 example
8. perceptron end to end: beats the right-branching baseline, beam not
   worse than greedy - 0.5, memorization, byte-level determinism
9. linear decoding: one action per token, wall time growth at worst
   quadratic in sentence length
"""

import time

import pytest

from ajparse.cli import main as cli_main
from ajparse.exhaustive import run_all_checks
from ajparse.isr import (
    SHIFT,
    gamma,
    is_legal_stack,
    isr_apply,
    project,
    translate_action,
    translate_sequence,
    xi,
)
from ajparse.isr import EMPTY_STACK, REDUCE
from ajparse.oracle import oracle_action_sequence
from ajparse.predictor import decode_beam, train
from ajparse.scoring import score
from ajparse.synth import generate_corpus
from ajparse.transition import INITIAL_STATE, apply_action, attach, format_actions, juxtapose
from ajparse.tree import Leaf, Token, tree_equal
from ajparse.treebank import load_corpus, parse_bracketed, tokens_of

from reference import decode_right_branching, majority_label, write_corpus


@pytest.fixture(scope="module")
def bundled_corpus():
    import os

    path = os.path.join(os.path.dirname(__file__), "fixtures", "sample.mrg")
    fixtures = [e.tree for e in load_corpus(path)]
    return fixtures + generate_corpus(1200, seed=1001)


@pytest.fixture(scope="module")
def corpus_path(tmp_path_factory, bundled_corpus):
    p = tmp_path_factory.mktemp("acceptance") / "corpus.mrg"
    write_corpus(bundled_corpus, str(p))
    return str(p)


@pytest.fixture(scope="module")
def enumeration_report():
    """Shared exhaustive run at the acceptance bounds, timed once."""
    start = time.perf_counter()
    report = run_all_checks(4, 2)
    elapsed = time.perf_counter() - start
    return report, elapsed


def test_criterion_1_oracle_roundtrip_corpus(capsys, corpus_path, bundled_corpus):
    assert len(bundled_corpus) >= 1000
    start = time.perf_counter()
    code = cli_main(["verify", corpus_path])
    elapsed = time.perf_counter() - start
    out = capsys.readouterr().out
    assert code == 0
    assert out.strip().splitlines()[-1] == f"RESULT ok={len(bundled_corpus)} fail=0"
    assert elapsed < 5.0, f"verify took {elapsed:.2f}s"
    print(f"PASS criterion 1: oracle round-trip 100% on {len(bundled_corpus)}"
          f" trees in {elapsed:.2f}s")


def test_criterion_2_oracle_uniqueness_exhaustive(enumeration_report):
    report, elapsed = enumeration_report
    assert not report.failures, report.failures[:3]
    # Every enumerated tree is produced by exactly one action sequence.
    assert report.trees_checked > 0
    for case in ("1-2", "1-3", "2-1", "2-2", "2-3"):
        assert report.case_tally.get(case, 0) > 0, f"case {case} never taken"
    assert report.case_tally.get("1-1", 0) == 0
    assert report.trees_checked == 5312
    assert report.augmented_checked == 970394
    assert report.stacks_checked == 758362
    assert report.reduce_lemma_checked == 735736
    assert report.translations_checked == 20936
    assert elapsed < 60.0, f"enumeration took {elapsed:.2f}s"
    print(f"PASS criterion 2: uniqueness over {report.trees_checked} trees,"
          f" cases {dict(sorted(report.case_tally.items()))}, {elapsed:.1f}s")


def test_criterion_3_length_laws(bundled_corpus):
    for t in bundled_corpus:
        tokens = tokens_of(t)
        actions = oracle_action_sequence(t)
        assert len(actions) == len(tokens)
        isr = translate_sequence(tokens, actions)
        m = _internal_count(t.root)
        assert len(isr) == len(tokens) + 2 * m
    print(f"PASS criterion 3: length laws n and n+2m hold on"
          f" {len(bundled_corpus)} trees")


def _internal_count(node):
    if isinstance(node, Leaf):
        return 0
    return 1 + sum(_internal_count(c) for c in node.children)


def test_criterion_4_bijection(enumeration_report):
    report, _ = enumeration_report
    assert not report.failures, report.failures[:3]
    assert report.stacks_checked > 0
    assert report.augmented_checked > 0
    assert report.reduce_lemma_checked > 0
    print(f"PASS criterion 4: bijection identities on"
          f" {report.stacks_checked} stacks / {report.augmented_checked}"
          f" augmented trees, reduce lemma at {report.reduce_lemma_checked} states")


def test_criterion_5_translation_soundness(bundled_corpus):
    steps = 0
    for t in bundled_corpus:
        tokens = tokens_of(t)
        state = INITIAL_STATE
        stack = EMPTY_STACK
        for token, action in zip(tokens, oracle_action_sequence(t)):
            for a in translate_action(state, action):
                stack = isr_apply(stack, a, token if a == SHIFT else None)
                assert is_legal_stack(stack)
            state = apply_action(state, token, action)
            assert stack == gamma(xi(state))
            steps += 1
        # Closing reduces land on the gold tree.
        for _ in range(_chain_len(state)):
            stack = isr_apply(stack, REDUCE)
        assert len(stack) == 1
        assert tree_equal(state, t)
        from ajparse.tree import node_equal

        assert node_equal(stack[0], t.root)
    print(f"PASS criterion 5: translation sound at {steps} oracle steps")


def _chain_len(state):
    from ajparse.tree import rightmost_chain

    return len(rightmost_chain(state))


def test_criterion_6_golden_example():
    tree = parse_bracketed(
        "(S (NP (NNP Arthur)) (VP (VBZ is) (NP (NP (NN King))"
        " (PP (IN of) (NP (DT the) (NNPS Britons))))))"
    )
    actions = oracle_action_sequence(tree)
    assert actions == [
        attach(0, "NP"),
        juxtapose(0, "VP", "S"),
        attach(1, "NP"),
        juxtapose(2, "PP", "NP"),
        attach(3, "NP"),
        attach(4, None),
    ], format_actions(actions)

    state = INITIAL_STATE
    tokens = tokens_of(tree)
    fragment = None
    for token, action in zip(tokens, actions):
        if action == juxtapose(2, "PP", "NP"):
            fragment = translate_action(state, action)
            break
        state = apply_action(state, token, action)
    assert fragment == [REDUCE, project("NP"), SHIFT, project("PP")]
    print("PASS criterion 6: golden action sequence and translation fragment")


def test_criterion_7_scorer_sanity(bundled_corpus):
    r = score(bundled_corpus, bundled_corpus)
    assert r.f1 == 100.0 and r.lp == 100.0 and r.lr == 100.0 and r.em == 1.0

    gold = [parse_bracketed("(S (NP (T a)) (VP (T b)))")]
    pred = [parse_bracketed("(S (NP (T a)) (NP (T b)))")]
    two_of_three = score(gold, pred)
    assert abs(two_of_three.lp - 66.67) <= 0.01
    assert abs(two_of_three.lr - 66.67) <= 0.01
    print(f"PASS criterion 7: self-score 100.00, 2-of-3 example"
          f" LP=LR={two_of_three.lp:.2f}")


@pytest.fixture(scope="module")
def big_split():
    corpus = generate_corpus(5500, seed=2024)
    return corpus[:5000], corpus[5000:]


@pytest.fixture(scope="module")
def big_model(big_split):
    train_set, _ = big_split
    return train(train_set, epochs=3, seed=11)


def test_criterion_8_predictor_end_to_end(big_split, big_model, tmp_path):
    train_set, test_set = big_split
    assert len(train_set) >= 5000

    greedy = [decode_beam(big_model, tokens_of(t), 1) for t in test_set]
    greedy_f1 = score(test_set, greedy).f1

    label = majority_label(train_set)
    baseline = [decode_right_branching(tokens_of(t), label) for t in test_set]
    baseline_f1 = score(test_set, baseline).f1
    assert greedy_f1 > baseline_f1

    beam = [decode_beam(big_model, tokens_of(t), 10) for t in test_set]
    beam_f1 = score(test_set, beam).f1
    assert beam_f1 >= greedy_f1 - 0.5

    one = train_set[:1]
    memorizer = train(one, epochs=10, seed=0)
    assert score(one, [decode_beam(memorizer, tokens_of(one[0]), 1)]).f1 == 100.0

    # Byte-identical determinism of models and parses.
    small = train_set[:200]
    a = train(small, epochs=2, seed=4)
    b = train(small, epochs=2, seed=4)
    pa, pb = tmp_path / "a.model", tmp_path / "b.model"
    a.save(str(pa))
    b.save(str(pb))
    assert pa.read_bytes() == pb.read_bytes()
    from ajparse.treebank import write_bracketed

    parses_a = [write_bracketed(decode_beam(a, tokens_of(t), 1)) for t in test_set[:50]]
    parses_b = [write_bracketed(decode_beam(b, tokens_of(t), 1)) for t in test_set[:50]]
    assert parses_a == parses_b

    print(f"PASS criterion 8: greedy F1 {greedy_f1:.2f} > baseline"
          f" {baseline_f1:.2f}, beam F1 {beam_f1:.2f}, memorization 100,"
          f" deterministic")


def test_criterion_9_linear_decoding(big_model):
    # One action per token: the decoded tree covers exactly the input.
    for n in (1, 5, 40):
        tokens = [Token(f"w{i}", "NN") for i in range(n)]
        tree = decode_beam(big_model, tokens, 1)
        assert len(tokens_of(tree)) == n

    def right_branching_time(n, reps=3):
        tokens = [Token(f"w{i}", "NN") for i in range(n)]
        best = float("inf")
        for _ in range(reps):
            start = time.perf_counter()
            tree = decode_beam(big_model, tokens, 1)
            best = min(best, time.perf_counter() - start)
            assert len(tokens_of(tree)) == n
        return best

    t10 = right_branching_time(10)
    t100 = right_branching_time(100)
    # Quadratic bound with generous constant slack against timer noise.
    assert t100 <= 100 * t10 * 4, f"t10={t10:.4f}s t100={t100:.4f}s"
    print(f"PASS criterion 9: n actions per sentence; t(10)={t10 * 1e3:.1f}ms"
          f" t(100)={t100 * 1e3:.1f}ms within quadratic bound")
