"""In-order shift-reduce (ISR) machinery: the comparison transition system
(shift / reduce / project), the legality predicate for stacks, the bijection
``phi`` between legal stacks and marked partial trees with its inverse
``gamma``, the embedding ``xi``, and the translation of attach-juxtapose
actions into ISR actions.

Its values are plain data. An action is its text: ``"shift"``, ``"reduce"``
or ``project(label)``, which is ``"pj:" + label``. A stack is a tuple, bottom
to top, of finished subtrees and of projected nonterminals, each its label
``str``. An augmented tree is a ``(root, mark)`` pair, ``mark`` a depth on
the rightmost chain or -1.
"""

from __future__ import annotations

import sys
from typing import Optional

from .transition import check_depth
from .tree import (
    ConstituencyTree,
    Internal,
    Leaf,
    Token,
    rightmost_chain,
)

SHIFT = "shift"
REDUCE = "reduce"


class IllegalStackError(ValueError):
    pass


def project(label: str) -> str:
    """The ``pj:label`` action, one interned ``str`` per label."""
    if not label:
        raise ValueError("project requires a non-empty label")
    return sys.intern("pj:" + label)


def _projected_label(action: str) -> str:
    """The label that the action ``pj:label`` pushes; ValueError otherwise."""
    if action[:3] != "pj:" or len(action) == 3:
        raise ValueError(f"unknown ISR action: {action!r}")
    return action[3:]


def format_isr_actions(actions) -> str:
    return " ".join(actions)


EMPTY_STACK = ()


def isr_apply(stack: tuple, action: str, next_token: Optional[Token] = None) -> tuple:
    if action == SHIFT:
        if next_token is None:
            raise IllegalStackError("shift requires the next token")
        # In order, a projection goes beneath its finished first child, so
        # no move leaves one on top; a stack with one there is rejected.
        if stack and isinstance(stack[-1], str):
            raise IllegalStackError("shift requires a completed subtree on top")
        return stack + (Leaf(next_token),)
    if action == REDUCE:
        # Pop down to the nearest projected nonterminal.
        idx = len(stack) - 1
        while idx >= 0 and not isinstance(stack[idx], str):
            idx -= 1
        if idx < 0:
            raise IllegalStackError("reduce requires a projected nonterminal on the stack")
        children = stack[idx + 1 :]
        if not children:
            raise IllegalStackError("reduce requires at least one item above the projection")
        return stack[:idx] + (Internal(stack[idx], children),)
    label = _projected_label(action)
    # The nonterminal is inserted beneath the completed top element.
    if not stack or isinstance(stack[-1], str):
        raise IllegalStackError("project requires a completed subtree on top")
    return stack[:-1] + (label, stack[-1])


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
    if isinstance(stack[-1], str):
        return False
    return len(stack) == 1 or isinstance(stack[0], str)


def phi(stack: tuple) -> tuple:
    """Map a legal stack to (fully-reduced tree, #projections - 1).

    One pass from the top folds the items above each projection as it meets
    it, as repeated reduce at the topmost projection does, and counts the
    projections. Only a projection on top has nothing above it to fold."""
    above = []  # the items above the current position, top first
    n_proj = 0
    for e in reversed(stack):
        if isinstance(e, str):
            if not above:
                raise IllegalStackError("phi is only defined on legal stacks")
            n_proj += 1
            above.reverse()
            above = [Internal(e, tuple(above))]
        else:
            above.append(e)
    if len(above) > 1:
        raise IllegalStackError("phi is only defined on legal stacks")
    return (above[0] if above else None), n_proj - 1


def gamma(aug: tuple) -> tuple:
    """Inverse of phi: rebuild the stack by extended in-order traversal.

    Rightmost-chain nodes with depth <= mark contribute a projected
    nonterminal followed by their non-final children as whole subtrees,
    recursing into the last child; every other subtree is pushed whole.
    ``root`` may be None (mark -1) or a bare leaf. ValueError on a mark
    outside -1 .. len(chain) - 1.
    """
    root, mark = aug
    node = root
    elems = []
    if mark >= -1:
        for _ in range(mark + 1):
            if not isinstance(node, Internal):
                break
            elems.append(node.label)
            elems.extend(node.children[:-1])
            node = node.children[-1]
        else:
            if node is not None:
                elems.append(node)
            return tuple(elems)
    raise ValueError(f"mark {mark} out of range for chain length {len(rightmost_chain(root))}")


def xi(tree: ConstituencyTree) -> tuple:
    """Embed a plain partial tree by marking its whole rightmost chain."""
    return tree.root, len(rightmost_chain(tree)) - 1


def translate_action(state_tree: ConstituencyTree, action: tuple) -> list:
    """ISR action sequence equivalent to one attach-juxtapose action.

    attach(i, X):    (L - i - 1) reduces, shift, then pj:X when X is given.
    juxtapose(i, X, Y): (L - i) reduces, pj:Y, shift, then pj:X when given.
    The degenerate first attach on the empty tree uses zero reduces.
    """
    depth = len(rightmost_chain(state_tree))
    check_depth(depth, action)
    return _translate(depth, action)


def _translate(depth: int, action: tuple) -> list:
    """``translate_action`` on a state with a legal action and a rightmost
    chain of ``depth`` nodes."""
    target, parent_label, new_label = action
    if depth == 0:
        n_reduce = 0
    elif new_label is None:
        n_reduce = depth - target - 1
    else:
        n_reduce = depth - target

    out = [REDUCE] * n_reduce
    if new_label is not None:
        out.append(project(new_label))
    out.append(SHIFT)
    if parent_label is not None:
        out.append(project(parent_label))
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
        target, parent_label, _ = action
        depth = 1 if depth == 0 else target + 1 + (parent_label is not None)
    out.extend([REDUCE] * depth)
    return out

