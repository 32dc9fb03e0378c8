"""The attach-juxtapose transition system.

A parser state is a partial tree, whose leaf count is the number of
consumed tokens. Each action integrates exactly one new token, either by
attaching it under a node on the rightmost chain or by juxtaposing it next
to such a node beneath a freshly created parent.
"""

from __future__ import annotations

from typing import Iterable, Optional

from .tree import (
    EMPTY_TREE,
    ConstituencyTree,
    Internal,
    Leaf,
    Token,
    rightmost_chain,
)

ATTACH = "attach"
JUXTAPOSE = "juxtapose"


class IllegalActionError(ValueError):
    """Raised when an action cannot be applied to a state."""

    def __init__(self, reason: str, action=None, step: Optional[int] = None):
        self.reason = reason
        self.action = action
        self.step = step
        if action is not None:
            where = f", step={step}" if step is not None else ""
            reason += f" (action={_action_text(action)}{where})"
        super().__init__(reason)


def attach(target: int, parent_label: Optional[str] = None) -> tuple:
    """An action is the tuple ``(target, parent_label, new_label)``; an
    attach is the one with no new label."""
    return target, parent_label, None


def juxtapose(target: int, parent_label: Optional[str], new_label: str) -> tuple:
    if new_label is None:
        raise ValueError("juxtapose requires a new_label")
    return target, parent_label, new_label


def action_kind(action: tuple) -> str:
    return ATTACH if action[2] is None else JUXTAPOSE


def _action_text(action: tuple) -> str:
    target, parent_label, new_label = action
    if new_label is None:
        return f"attach({target},{parent_label})"
    return f"juxtapose({target},{parent_label},{new_label})"


def format_actions(actions: Iterable[tuple]) -> str:
    return " ".join(map(_action_text, actions))


INITIAL_STATE = EMPTY_TREE


def check_depth(depth: int, action: tuple) -> None:
    """The legality rule shared by every consumer of actions, on a state
    whose rightmost chain has ``depth`` nodes: the empty tree (depth 0)
    admits only ``attach(0, <label>)``, any other tree a target on its
    rightmost chain."""
    target, parent_label, new_label = action
    if depth == 0:
        if new_label is not None or target != 0 or parent_label is None:
            raise IllegalActionError(
                "the empty tree only admits attach(0, <label>)", action
            )
    elif not 0 <= target < depth:
        raise IllegalActionError(
            f"target {target} outside rightmost chain of length {depth}", action
        )


def label_choices(labels) -> list:
    """The label slots: None (no label), then the labels in sorted order."""
    return [None] + sorted(labels)


def action_at(index: int, depth: int, choices) -> tuple:
    """The action at ``index`` of the action space of a state whose rightmost
    chain has ``depth`` nodes, with ``choices = label_choices(V)`` of width W.
    On the empty tree, index k is attach(0, choices[k + 1]); otherwise index
    d*W**2 + i*W + j is attach(d, choices[i]) if j == 0, else juxtapose(d,
    choices[i], choices[j]). Decoding scores and normalizes candidates in
    this order, so changing it can change parses in the last bit."""
    if depth == 0:
        return attach(0, choices[index + 1])
    width = len(choices)
    d, rest = divmod(index, width * width)
    p, j = divmod(rest, width)
    return attach(d, choices[p]) if j == 0 else juxtapose(d, choices[p], choices[j])


def legal_actions(state: ConstituencyTree, label_vocabulary) -> list:
    """The unrestricted action space of a state, in ``action_at`` order."""
    choices = label_choices(label_vocabulary)
    depth = len(rightmost_chain(state))
    size = depth * len(choices) ** 2 if depth else len(choices) - 1
    return [action_at(k, depth, choices) for k in range(size)]


# An open rightmost chain is a list of ``[label, children]`` frames, root
# first. A frame's children are finished nodes; the node of the next frame
# is its implicit last child. ``step`` edits the frames in place, and each
# ``Internal`` is built when it leaves the chain. ``apply_action`` opens and
# closes a tree's chain around one step; replay, the oracle, training and
# decoding keep one chain open, costing O(n) node builds per sentence.


def open_chain(chain: list, node, limit: Optional[int] = None) -> None:
    """Push ``node`` and the internal nodes along its last-child links as
    frames, until the chain holds ``limit`` frames; a leaf pushes nothing.
    The deepest frame keeps its last child when that is a leaf or when the
    limit stopped the walk, so the nodes below the limit are reused as is."""
    while isinstance(node, Internal):
        children = list(node.children)
        chain.append([node.label, children])
        if len(chain) == limit:
            return
        node = children.pop() if isinstance(children[-1], Internal) else None


def close_chain(chain: list, depth: int):
    """Pop the frames at ``depth`` and below, building their nodes deepest
    first; returns the node of the frame at ``depth`` (None if there is
    none)."""
    node = None
    while len(chain) > depth:
        label, children = chain.pop()
        if node is not None:
            children.append(node)
        node = Internal(label, tuple(children))
    return node


def step(chain: list, leaf: Leaf, action: tuple) -> None:
    """Apply a legal ``action`` to the open ``chain`` in place, integrating
    ``leaf``: the one attach/juxtapose rule. Frames above the action's
    target are left untouched, so chains may share them."""
    target, parent_label, new_label = action
    if not chain:
        # Degenerate first action: parent_label becomes the new root.
        chain.append([parent_label, [leaf]])
        return
    if new_label is None:
        below = close_chain(chain, target + 1)
        if below is not None:
            chain[-1][1].append(below)
    else:
        chain.append([new_label, [close_chain(chain, target)]])
    if parent_label is None:
        chain[-1][1].append(leaf)
    else:
        chain.append([parent_label, [leaf]])


def apply_action(state: ConstituencyTree, token: Token, action: tuple) -> ConstituencyTree:
    """Execute one action, integrating ``token`` into the partial tree.

    Only the chain down to the target is rebuilt. An opened chain shorter
    than ``target + 1`` is the whole chain, so ``check_depth`` rules as on
    the full one."""
    target, _, _ = action
    chain = []
    open_chain(chain, state.root, target + 1)
    check_depth(len(chain), action)
    step(chain, Leaf(token), action)
    return ConstituencyTree(close_chain(chain, 0))


def apply_sequence(tokens, actions) -> ConstituencyTree:
    """The tree that a full action sequence builds from the empty tree: the
    ``apply_action`` fold, run forward on one open chain."""
    if len(tokens) != len(actions):
        raise ValueError(
            f"{len(tokens)} tokens but {len(actions)} actions; lengths must match"
        )
    chain = []
    for i, (token, action) in enumerate(zip(tokens, actions)):
        try:
            check_depth(len(chain), action)
        except IllegalActionError as err:
            raise IllegalActionError(err.reason, action, step=i) from err
        step(chain, Leaf(token), action)
    return ConstituencyTree(close_chain(chain, 0))
