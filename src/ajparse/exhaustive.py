"""Exhaustive small-scale verification machinery.

Enumerates every tree, action sequence, and legal ISR stack within small
bounds, checking oracle existence and uniqueness, the stack/tree bijection
and its reduce-step property, and action-translation soundness by brute
force. Bounds are hard-capped because the searches grow exponentially.
"""

from __future__ import annotations

import gc
from collections import Counter

from .isr import (
    EMPTY_STACK,
    REDUCE,
    IllegalStackError,
    gamma,
    is_legal_stack,
    isr_apply,
    phi,
    project,
    translate_action,
    xi,
    SHIFT,
)
from .oracle import oracle_action_sequence
from .transition import INITIAL_STATE, apply_action, apply_sequence, legal_actions
from .tree import ConstituencyTree, Internal, Leaf, Token, node_equal, rightmost_chain

MAX_LEAVES = 6
MAX_VOCAB = 3
# Unary levels allowed per subtree in the augmented trees, and how many more
# internal nodes than shifts the stack search lets a stack build.
AUGMENTED_UNARY_BUDGET = 1
EXTRA_INTERNAL = 2


def _token(i: int) -> Token:
    return Token(f"w{i}", "T")


def enumerate_subtrees(n_leaves: int, start: int, labels, unary_budget: int = 0):
    """All subtree shapes over ``n_leaves`` leaves, whose tokens are
    ``_token(start)`` onwards.

    With ``unary_budget`` 0 the yield is unary-chain-free; a positive budget
    additionally allows that many internal-over-internal unary links.
    """
    if n_leaves == 1:
        leaf = Leaf(_token(start))
        yield leaf
        for lbl in labels:
            yield Internal(lbl, (leaf,))
    for first in range(1, n_leaves):
        for left in enumerate_subtrees(first, start, labels, unary_budget):
            rest = n_leaves - first
            # Right part: either a single subtree completing a 2-child node,
            # or recursively another multi-child grouping; enumerate child
            # tuples directly instead.
            for tail in _child_tuples(rest, start + first, labels, unary_budget):
                for lbl in labels:
                    yield Internal(lbl, (left,) + tail)
    if unary_budget > 0:
        for child in enumerate_subtrees(n_leaves, start, labels, unary_budget - 1):
            if isinstance(child, Internal):
                for lbl in labels:
                    yield Internal(lbl, (child,))


def _child_tuples(n_leaves: int, start: int, labels, unary_budget: int):
    """Non-empty tuples of subtrees jointly spanning ``n_leaves`` leaves."""
    for first in range(1, n_leaves + 1):
        for head in enumerate_subtrees(first, start, labels, unary_budget):
            if first == n_leaves:
                yield (head,)
            else:
                for tail in _child_tuples(
                    n_leaves - first, start + first, labels, unary_budget
                ):
                    yield (head,) + tail


def enumerate_trees(n_leaves: int, labels, unary_budget: int = 0):
    """All distinct trees (internal root) with exactly ``n_leaves`` leaves."""
    for node in enumerate_subtrees(n_leaves, 0, labels, unary_budget):
        if isinstance(node, Internal):
            yield ConstituencyTree(node)


class CheckReport:
    """The checks' counters and failure witnesses. Equal reports hold equal
    fields; a report is mutable, so it has no hash."""

    def __init__(self, trees_checked: int = 0, sequences_enumerated: int = 0,
                 case_tally: Counter = None, stacks_checked: int = 0,
                 augmented_checked: int = 0, reduce_lemma_checked: int = 0,
                 translations_checked: int = 0, failures: list = None):
        self.trees_checked = trees_checked
        self.sequences_enumerated = sequences_enumerated
        self.case_tally = Counter() if case_tally is None else case_tally
        self.stacks_checked = stacks_checked
        self.augmented_checked = augmented_checked
        self.reduce_lemma_checked = reduce_lemma_checked
        self.translations_checked = translations_checked
        self.failures = [] if failures is None else failures

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return vars(self) == vars(other)

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in vars(self).items())
        return f"CheckReport({fields})"


def _enumerate_final_trees(n_max: int, labels):
    """Forward-enumerate every legal action sequence of length <= n_max and
    count the resulting trees."""
    results = Counter()
    sequences = 0
    # Depth-first over states, each beside its token count; every prefix is
    # itself a complete sequence.
    frontier = [(INITIAL_STATE, 0)]
    while frontier:
        state, n = frontier.pop()
        if n >= n_max:
            continue
        token = _token(n)
        for action in legal_actions(state, labels):
            succ = apply_action(state, token, action)
            sequences += 1
            results[succ] += 1
            frontier.append((succ, n + 1))
    return results, sequences


def check_oracle_uniqueness(n_max: int, labels, report: CheckReport) -> None:
    """Theorem-style exhaustive check: every unary-chain-free tree is built
    by exactly one action sequence, and the oracle finds it."""
    results, sequences = _enumerate_final_trees(n_max, labels)
    report.sequences_enumerated += sequences
    for n in range(1, n_max + 1):
        for tree in enumerate_trees(n, labels):
            report.trees_checked += 1
            count = results.get(tree, 0)
            if count != 1:
                report.failures.append(
                    f"tree {tree!r} built by {count} action sequences (expected 1)"
                )
                continue
            actions = oracle_action_sequence(tree, case_tally=report.case_tally)
            rebuilt = apply_sequence([_token(i) for i in range(len(actions))], actions)
            if not node_equal(rebuilt.root, tree.root):
                report.failures.append(f"oracle failed to rebuild {tree!r}")


def enumerate_augmented(n_max: int, labels):
    """Augmented partial trees with <= n_max leaves, including the empty
    tree, bare-leaf roots, and ``AUGMENTED_UNARY_BUDGET`` levels of unary
    chaining."""
    yield None, -1
    yield Leaf(_token(0)), -1
    for n in range(1, n_max + 1):
        for root in enumerate_subtrees(n, 0, labels, AUGMENTED_UNARY_BUDGET):
            if isinstance(root, Internal):
                for mark in range(-1, len(rightmost_chain(root))):
                    yield root, mark


def check_bijection(n_max: int, labels, report: CheckReport) -> None:
    """phi/gamma inverse identities plus the one-reduce-steps-the-mark lemma."""
    stack = None
    for aug in enumerate_augmented(n_max, labels):
        report.augmented_checked += 1
        # Marks are enumerated in order per tree, so a mark >= 0 follows its
        # tree at mark - 1, whose stack one reduce should give.
        below, stack = stack, gamma(aug)
        if not is_legal_stack(stack):
            report.failures.append(f"gamma({aug!r}) is not a legal stack")
            continue
        back = phi(stack)
        if back != aug:
            # A stack that phi does not map back may hold nothing to reduce.
            report.failures.append(f"phi(gamma({aug!r})) = {back!r}")
            continue
        if aug[1] >= 0:
            if isr_apply(stack, REDUCE) != below:
                report.failures.append(
                    f"reduce on gamma({aug!r}) does not step the mark"
                )
            else:
                report.reduce_lemma_checked += 1

    for stack in enumerate_legal_stacks(n_max, labels):
        report.stacks_checked += 1
        try:
            back = gamma(phi(stack))
        except ValueError as err:  # phi made a mark gamma rejects
            back = err
        if back != stack:
            report.failures.append(f"gamma(phi(s)) = {back!r} for stack {stack!r}")


def enumerate_legal_stacks(max_tokens: int, labels):
    """Depth-first search over legal ISR states reachable with at most
    ``max_tokens`` shifts, capping internal-node growth at ``max_tokens +
    EXTRA_INTERNAL`` so the space stays finite (projections can otherwise
    nest without bound).

    The cap and the shift bound are properties of a state, not of the path
    to it, so the set of stacks yielded does not depend on the search order;
    depth-first order keeps the frontier, and so the heap, small.

    Each queued stack is carried beside its shift count, which bounds its
    shifts, and beside a string key per stack element, which finds
    duplicates: a leaf is its position, a projection ``[`` and its label,
    and an internal node ``(label child-keys...)``. Shift appends the leaf
    position, project inserts ``[label`` under the top string, and reduce
    joins the strings above the topmost ``[`` into one ``(label ...)``
    string. A tuple of strings hashes in C on cached ``str`` hashes, and
    ``isr_apply`` runs only for an unseen key; it still makes every stack,
    and ``is_legal_stack`` still checks each one. Only moves that keep a
    stack legal are tried: a reduce needs a projection, a project a subtree
    on top, and a shift an empty stack or one that starts with a projection.
    """
    cap = 2 * max_tokens + EXTRA_INTERNAL
    seen = {()}
    # Weight (total node count plus projections) is tracked incrementally:
    # shift and project add one, reduce folds a projection into one node,
    # so a stack at the cap can only reduce.
    queue = [(EMPTY_STACK, (), 0, 0)]
    yield EMPTY_STACK
    projections = [(project(lbl), "[" + lbl) for lbl in labels]
    tokens = [(_token(i), str(i)) for i in range(max_tokens)]
    while queue:
        stack, key, weight, consumed = queue.pop()
        moves = []
        reduced_key = _reduce_key(key)
        if reduced_key is not None:
            moves.append((REDUCE, None, reduced_key, weight))
        if weight < cap:
            if (not stack or isinstance(stack[0], str)) and consumed < max_tokens:
                token, leaf_key = tokens[consumed]
                moves.append((SHIFT, token, key + (leaf_key,), weight + 1))
            if stack:
                for pj, pj_key in projections:
                    moves.append((pj, None, key[:-1] + (pj_key,) + key[-1:], weight + 1))
        for action, token, succ_key, succ_weight in moves:
            if succ_key in seen:
                continue
            try:
                succ = isr_apply(stack, action, token)
            except IllegalStackError:
                continue
            if not is_legal_stack(succ):
                continue
            seen.add(succ_key)
            queue.append((succ, succ_key, succ_weight, consumed + (action == SHIFT)))
            yield succ


def _reduce_key(key: tuple):
    """The key after a reduce: the strings above the topmost ``[`` joined
    under its label. With no ``[`` there is nothing to reduce, and it is
    None."""
    for i in range(len(key) - 1, -1, -1):
        if key[i][0] == "[":
            return key[:i] + ("(" + key[i][1:] + " " + " ".join(key[i + 1 :]) + ")",)
    return None


def check_translation(n_max: int, labels, report: CheckReport) -> None:
    """Per-step translation soundness over every enumerated oracle step; an
    ISR replay that raises is a failure and ends its tree's replay."""
    for n in range(1, n_max + 1):
        for tree in enumerate_trees(n, labels):
            state = INITIAL_STATE
            stack = EMPTY_STACK
            for i, action in enumerate(oracle_action_sequence(tree)):
                token = _token(i)
                try:
                    for isr_action in translate_action(state, action):
                        tok = token if isr_action == SHIFT else None
                        stack = isr_apply(stack, isr_action, tok)
                        if not is_legal_stack(stack):
                            report.failures.append(
                                f"illegal intermediate stack for {tree!r} step {i}"
                            )
                except ValueError as err:  # isr_apply rejects the move
                    report.failures.append(
                        f"translated replay raised {err!r} for {tree!r} at step {i}"
                    )
                    break
                state = apply_action(state, token, action)
                expected = gamma(xi(state))
                if stack != expected:
                    report.failures.append(
                        f"translated replay diverged for {tree!r} at step {i}"
                    )
                    break
                report.translations_checked += 1


def run_all_checks(n_max: int, vocab_size: int) -> CheckReport:
    if not 1 <= n_max <= MAX_LEAVES:
        raise ValueError(f"n_max must be between 1 and {MAX_LEAVES}")
    if not 1 <= vocab_size <= MAX_VOCAB:
        raise ValueError(f"vocab_size must be between 1 and {MAX_VOCAB}")
    labels = [chr(ord("A") + i) for i in range(vocab_size)]
    report = CheckReport()
    # The searches allocate heavily and build no reference cycles; pausing
    # the cycle collector shaves a noticeable fraction off the wall time.
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        check_oracle_uniqueness(n_max, labels, report)
        check_bijection(n_max, labels, report)
        check_translation(n_max, labels, report)
    finally:
        if was_enabled:
            gc.enable()
    return report
