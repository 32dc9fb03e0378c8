"""In-order shift-reduce (ISR) machinery.

Implements the comparison transition system (shift / reduce / project over a
stack of subtrees and projected nonterminals), the legality predicate for
stacks, the bijection ``phi`` between legal stacks and marked partial trees
with its inverse ``gamma``, the embedding ``xi``, and the constructive
translation of attach-juxtapose actions into ISR action sequences.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .transition import ATTACH, AjAction, check_depth
from .tree import (
    ConstituencyTree,
    Internal,
    Leaf,
    Node,
    Token,
    end_index,
    rightmost_chain,
)

SHIFT_KIND = "shift"
REDUCE_KIND = "reduce"
PROJECT_KIND = "project"


class IllegalStackError(ValueError):
    pass


@dataclass(frozen=True)
class IsrAction:
    kind: str
    label: Optional[str] = None

    def __post_init__(self):
        if self.kind not in (SHIFT_KIND, REDUCE_KIND, PROJECT_KIND):
            raise ValueError(f"unknown ISR action kind: {self.kind!r}")
        if self.kind == PROJECT_KIND and not self.label:
            raise ValueError("project requires a non-empty label")
        if self.kind != PROJECT_KIND and self.label is not None:
            raise ValueError(f"{self.kind} takes no label")

    def __str__(self) -> str:
        return f"pj:{self.label}" if self.kind == PROJECT_KIND else self.kind


SHIFT = IsrAction(SHIFT_KIND)
REDUCE = IsrAction(REDUCE_KIND)


_PROJECT_CACHE: dict = {}


def project(label: str) -> IsrAction:
    """The one ``pj:label`` action per label."""
    action = _PROJECT_CACHE.get(label)
    if action is None:
        action = _PROJECT_CACHE[label] = IsrAction(PROJECT_KIND, label)
    return action


def format_isr_actions(actions) -> str:
    return " ".join(str(a) for a in actions)


def parse_isr_actions(text: str) -> list:
    actions = []
    for tok in text.split():
        if tok == "shift":
            actions.append(SHIFT)
        elif tok == "reduce":
            actions.append(REDUCE)
        elif tok.startswith("pj:"):
            actions.append(project(tok[3:]))
        else:
            raise ValueError(f"unknown ISR action token: {tok!r}")
    return actions


@dataclass(frozen=True)
class Projected:
    """A nonterminal pushed before its constituent is complete."""

    label: str


_PROJECTED_CACHE: dict = {}


def _projected_cached(label: str) -> Projected:
    pj = _PROJECTED_CACHE.get(label)
    if pj is None:
        pj = _PROJECTED_CACHE[label] = Projected(label)
    return pj


# A stack is a tuple of nodes and ``Projected`` items, bottom to top.
EMPTY_STACK = ()


@dataclass(frozen=True)
class AugmentedTree:
    """A partial tree with a marked rightmost-chain depth.

    ``root`` may be None (empty tree, mark -1) or, transiently, a bare leaf
    (the stack right after the first shift); otherwise an internal node.
    """

    root: Optional[Node]
    mark: int

    def __post_init__(self):
        # Only the top mark + 1 chain nodes need to exist; the whole chain
        # is measured for the error message alone.
        node = self.root
        depth = 0
        while depth <= self.mark and isinstance(node, Internal):
            node = node.children[-1]
            depth += 1
        if self.mark < -1 or depth <= self.mark:
            depth = len(rightmost_chain(self.root))
            raise ValueError(f"mark {self.mark} out of range for chain length {depth}")


def isr_apply(stack: tuple, action: IsrAction, next_token: Optional[Token] = None) -> tuple:
    if action.kind == SHIFT_KIND:
        if next_token is None:
            raise IllegalStackError("shift requires the next token")
        # The top element holds the last shifted leaf; a projection on top,
        # which no move makes, holds none.
        if stack and isinstance(stack[-1], Projected):
            raise IllegalStackError("shift requires a completed subtree on top")
        return stack + (Leaf(next_token, end_index(stack[-1]) if stack else 0),)
    if action.kind == PROJECT_KIND:
        # The nonterminal is inserted beneath the completed top element.
        if not stack or isinstance(stack[-1], Projected):
            raise IllegalStackError("project requires a completed subtree on top")
        return stack[:-1] + (_projected_cached(action.label), stack[-1])
    # reduce: pop down to the nearest projected nonterminal.
    idx = len(stack) - 1
    while idx >= 0 and not isinstance(stack[idx], Projected):
        idx -= 1
    if idx < 0:
        raise IllegalStackError("reduce requires a projected nonterminal on the stack")
    children = stack[idx + 1 :]
    if not children:
        raise IllegalStackError("reduce requires at least one item above the projection")
    return stack[:idx] + (Internal(stack[idx].label, children),)


def is_legal_stack(stack: tuple) -> bool:
    """A stack is legal iff repeated reduce ends in a single subtree (or it
    is empty).

    Equivalent closed form, O(1): the topmost reduce target always has at
    least one item above it when the stack ends in a completed subtree, and
    each reduce preserves that invariant while folding everything above the
    bottommost projection, so full reduction succeeds and yields one element
    exactly when the stack starts with a projection (or has a single
    completed subtree) and does not end with one.
    """
    if not stack:
        return True
    if isinstance(stack[-1], Projected):
        return False
    return len(stack) == 1 or isinstance(stack[0], Projected)


def phi(stack: tuple) -> AugmentedTree:
    """Map a legal stack to (fully-reduced tree, #projections - 1).

    One pass from the top folds the items above each projection as it meets
    it, as repeated reduce at the topmost projection does, and counts the
    projections. Only a projection on top has nothing above it to fold."""
    above = []  # the items above the current position, top first
    n_proj = 0
    for e in reversed(stack):
        if isinstance(e, Projected):
            if not above:
                raise IllegalStackError("phi is only defined on legal stacks")
            n_proj += 1
            above.reverse()
            above = [Internal(e.label, tuple(above))]
        else:
            above.append(e)
    if len(above) > 1:
        raise IllegalStackError("phi is only defined on legal stacks")
    return AugmentedTree(above[0] if above else None, n_proj - 1)


def gamma(aug: AugmentedTree) -> tuple:
    """Inverse of phi: rebuild the stack by extended in-order traversal.

    Rightmost-chain nodes with depth <= mark contribute a projected
    nonterminal followed by their non-final children as whole subtrees,
    recursing into the last child; every other subtree is pushed whole.
    """
    node = aug.root
    if node is None:
        return EMPTY_STACK
    elems = []
    for _ in range(aug.mark + 1):
        elems.append(_projected_cached(node.label))
        elems.extend(node.children[:-1])
        node = node.children[-1]
    elems.append(node)
    return tuple(elems)


def xi(tree: ConstituencyTree) -> AugmentedTree:
    """Embed a plain partial tree by marking its whole rightmost chain."""
    return AugmentedTree(tree.root, len(rightmost_chain(tree)) - 1)


def translate_action(state_tree: ConstituencyTree, action: AjAction) -> list:
    """ISR action sequence equivalent to one attach-juxtapose action.

    attach(i, X):    (L - i - 1) reduces, shift, then pj:X when X is given.
    juxtapose(i, X, Y): (L - i) reduces, pj:Y, shift, then pj:X when given.
    The degenerate first attach on the empty tree uses zero reduces.
    """
    depth = len(rightmost_chain(state_tree))
    check_depth(depth, action)
    return _translate(depth, action)


def _translate(depth: int, action: AjAction) -> list:
    """``translate_action`` on a state with a legal action and a rightmost
    chain of ``depth`` nodes."""
    if depth == 0:
        n_reduce = 0
    elif action.kind == ATTACH:
        n_reduce = depth - action.target - 1
    else:
        n_reduce = depth - action.target

    out = [REDUCE] * n_reduce
    if action.kind != ATTACH:
        out.append(project(action.new_label))
    out.append(SHIFT)
    if action.parent_label is not None:
        out.append(project(action.parent_label))
    return out


def translate_sequence(tokens, actions) -> list:
    """Translate a full action sequence, closing all open projections with
    terminal reduces so the final stack holds a single subtree.

    Only the rightmost chain's length matters, so no tree is built: after
    the first action it is 1, and after any other it is the target depth
    plus one, plus one more for a parent label.
    """
    depth = 0
    out = []
    for _, action in zip(tokens, actions):
        check_depth(depth, action)
        out.extend(_translate(depth, action))
        depth = 1 if depth == 0 else action.target + 1 + (action.parent_label is not None)
    out.extend([REDUCE] * depth)
    return out


def replay(actions, tokens) -> tuple:
    """Run ISR actions from the empty stack, shifting ``tokens`` in order."""
    stack = EMPTY_STACK
    it = iter(tokens)
    for action in actions:
        token = next(it) if action.kind == SHIFT_KIND else None
        stack = isr_apply(stack, action, token)
    return stack
