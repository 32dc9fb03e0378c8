import pytest

from ajparse import exhaustive, isr
from ajparse.exhaustive import (
    CheckReport,
    check_bijection,
    check_oracle_uniqueness,
    check_translation,
    enumerate_legal_stacks,
    enumerate_trees,
    run_all_checks,
)
from ajparse.isr import REDUCE, is_legal_stack
from ajparse.transition import legal_actions
from ajparse.tree import (
    EMPTY_TREE,
    ConstituencyTree,
    Internal,
    Leaf,
    has_unary_chains,
    iter_leaves,
    iter_nodes,
)
from ajparse.treebank import tokens_of

from reference import reference_enumerate_legal_stacks


def test_enumerate_trees_counts():
    # 1 leaf, 1 label: only (A w0).
    assert len(list(enumerate_trees(1, ["A"]))) == 1
    # 2 leaves, 1 label: (A w0 w1), (A (A w0) w1), (A w0 (A w1)),
    # (A (A w0) (A w1)).
    assert len(list(enumerate_trees(2, ["A"]))) == 4


def test_enumerate_trees_unique_and_chain_free():
    seen = set()
    for t in enumerate_trees(3, ["A", "B"]):
        assert not has_unary_chains(t)
        assert t not in seen
        seen.add(t)
        assert len(tokens_of(t)) == 3


def test_unary_budget_adds_chains():
    plain = set(enumerate_trees(2, ["A"]))
    budget = set(enumerate_trees(2, ["A"], unary_budget=1))
    assert plain < budget
    assert any(has_unary_chains(t) for t in budget - plain)


def test_enumerated_stacks_are_legal():
    for stack in enumerate_legal_stacks(2, ["A"]):
        assert is_legal_stack(stack)


@pytest.mark.parametrize("max_tokens, vocab_size", [(1, 1), (2, 1), (2, 2), (3, 1), (2, 3), (3, 2)])
def test_enumerated_stacks_match_reference(max_tokens, vocab_size):
    # The string keys only remove duplicates: a wrong key drops stacks or
    # yields one twice, and either shows against the breadth-first search
    # that removes duplicates by the stacks themselves. Its shift count is
    # carried along each path, so it also checks that every shift left its
    # leaf on the stack.
    labels = ["A", "B", "C"][:vocab_size]
    stacks = list(enumerate_legal_stacks(max_tokens, labels))
    assert len(set(stacks)) == len(stacks)
    expected = set(reference_enumerate_legal_stacks(max_tokens, labels))
    leaves = [sum(1 for e in s if not isinstance(e, str) for _ in iter_leaves(e)) for s in stacks]
    assert set(zip(stacks, leaves)) == expected


def test_stack_search_tries_only_legal_moves(monkeypatch):
    # Every isr_apply call makes a new legal stack: none is spent on a move
    # that raises IllegalStackError or that is_legal_stack rejects.
    calls = 0

    def counting_isr_apply(*args):
        nonlocal calls
        calls += 1
        return isr.isr_apply(*args)

    monkeypatch.setattr(exhaustive, "isr_apply", counting_isr_apply)
    stacks = sum(1 for _ in enumerate_legal_stacks(3, ["A", "B"]))
    assert stacks == 28822
    assert calls == stacks - 1


def test_nodes_never_equal_stacks_pairs_or_actions():
    # A node equals a plain tuple of its fields, a token the pair
    # (word, pos), and stacks, (root, mark) pairs and actions are plain
    # tuples, so a check comparing across them could pass by a match
    # between kinds. Over the bound, none occurs.
    labels = ["A", "B"]
    pairs = set(exhaustive.enumerate_augmented(3, labels))
    stacks = set(enumerate_legal_stacks(3, labels))
    roots = {root for root, _ in pairs} | {e for s in stacks for e in s if not isinstance(e, str)}
    nodes = {node for root in roots for node in iter_nodes(root)}
    leaves = [n for n in nodes if isinstance(n, Leaf)]
    internals = [n for n in nodes if isinstance(n, Internal)]
    states = [EMPTY_TREE] + [ConstituencyTree(n) for n in internals]
    actions = {a for state in states for a in legal_actions(state, labels)}
    assert actions and all(len(a) == 3 for a in actions)
    tokens = {leaf.token for leaf in leaves}
    for others in (stacks, pairs, actions):
        assert not nodes & others and not tokens & others
    assert not tokens & nodes
    assert len(leaves) == len(tokens) == 3 and internals
    assert all(leaf != node for leaf in leaves for node in internals)


def _phi_marks_one_deeper(stack):
    root, mark = isr.phi(stack)
    return root, mark + 1


def _gamma_drops_bottom_projection(aug):
    stack = list(isr.gamma(aug))
    for i, elem in enumerate(stack):
        if isinstance(elem, str):
            del stack[i]
            break
    return tuple(stack)


def _translation_with_one_more_reduce(state, action):
    return isr.translate_action(state, action) + [REDUCE]


def _translation_with_a_reduce_first(state, action):
    # On the empty stack of a first step, isr_apply raises on this reduce.
    return [REDUCE] + isr.translate_action(state, action)


@pytest.mark.parametrize("name, mutant, check", [
    ("phi", _phi_marks_one_deeper, check_bijection),
    ("gamma", _gamma_drops_bottom_projection, check_bijection),
    ("gamma", _gamma_drops_bottom_projection, check_translation),
    ("translate_action", _translation_with_one_more_reduce, check_translation),
    ("translate_action", _translation_with_a_reduce_first, check_translation),
], ids=["phi-bijection", "gamma-bijection", "gamma-translation", "translate-translation",
        "translate-raises"])
def test_checks_report_a_broken_map(monkeypatch, name, mutant, check):
    # Negative controls: each check compares with !=, so a wrong value (or a
    # mark gamma rejects) must show as a failure, not pass or raise.
    monkeypatch.setattr(exhaustive, name, mutant)
    report = CheckReport()
    check(2, ["A"], report)
    assert report.failures
    assert run_all_checks(2, 1).failures


def test_bounds_enforced():
    # Empty bounds would be a passing check over nothing.
    for n_max, vocab_size in ((7, 2), (4, 4), (0, 2), (-2, 2), (2, 0)):
        with pytest.raises(ValueError):
            run_all_checks(n_max, vocab_size)


def test_tiny_bounds_pass():
    report = run_all_checks(1, 1)
    assert not report.failures
    assert report.trees_checked == 1
    assert report.case_tally == {"2-1": 1}


def test_small_bounds_pass_with_full_case_coverage():
    report = run_all_checks(3, 2)
    assert not report.failures
    for case in ("1-2", "1-3", "2-1", "2-2", "2-3"):
        assert report.case_tally.get(case, 0) > 0
    assert report.case_tally.get("1-1", 0) == 0
    assert report.sequences_enumerated == report.trees_checked


def test_corrupted_action_is_detected():
    # Negative control: a wrong action sequence must not rebuild the tree.
    from ajparse.oracle import oracle_action_sequence
    from ajparse.transition import apply_sequence, attach
    from ajparse.tree import tree_equal

    t = next(iter(enumerate_trees(3, ["A", "B"])))
    actions = oracle_action_sequence(t)
    corrupted = list(actions)
    corrupted[-1] = attach(0, "B") if corrupted[-1] != attach(0, "B") else attach(0, "A")
    rebuilt = apply_sequence(tokens_of(t), corrupted)
    assert not tree_equal(rebuilt, t)


def test_reports_compose():
    report = CheckReport()
    check_oracle_uniqueness(2, ["A"], report)
    check_bijection(2, ["A"], report)
    check_translation(2, ["A"], report)
    assert not report.failures
    # 1 one-leaf tree plus 4 two-leaf trees over a single label.
    assert report.trees_checked == 5
    assert report.stacks_checked > 0
    assert report.reduce_lemma_checked > 0
    assert report.translations_checked > 0
