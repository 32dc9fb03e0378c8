"""Oracle extraction: recover the unique action sequence for a tree.

Works by repeatedly inferring and undoing the last action until the tree is
empty; the accumulated actions, reversed, rebuild the tree exactly.
Input trees must not contain unary chains.
"""

from __future__ import annotations

from dataclasses import dataclass

from .transition import AjAction, attach, juxtapose
from .tree import (
    EMPTY_TREE,
    ConstituencyTree,
    Internal,
    has_unary_chains,
    replace_on_rightmost_chain,
    rightmost_chain,
)

# Branch identifiers from the last-action decision table. "1-1" (a leaf that
# is also the root) cannot occur on well-formed trees; seeing it is a bug.
CASES = ("1-1", "1-2", "1-3", "2-1", "2-2", "2-3")


@dataclass(frozen=True)
class OracleStep:
    action: AjAction
    predecessor: ConstituencyTree
    case: str


def _require_oracle_input(tree: ConstituencyTree) -> None:
    if tree.root is None:
        raise ValueError("last_action requires a non-empty tree")
    if has_unary_chains(tree):
        raise ValueError("oracle input must not contain unary chains")


def _last_action(root: Internal):
    """Infer the last action of ``root`` and undo it.

    Returns (action, predecessor root or None, case id). Assumes the tree
    is well-formed and free of unary chains.
    """
    # List indices are chain depths; the chain ends at the last leaf's parent.
    chain = rightmost_chain(root)
    parent = chain[-1]
    last_leaf = parent.children[-1]
    if len(parent.children) > 1:
        branch = "1"
        parent_label = None
        last_subtree = last_leaf
        holder_depth = len(chain) - 1  # depth of last_subtree's parent
    else:
        branch = "2"
        parent_label = parent.label
        last_subtree = parent
        holder_depth = len(chain) - 2

    if holder_depth < 0:
        # last_subtree is the root. Only reachable on the "2" branch: a
        # leaf root would contradict tree well-formedness (case 1-1).
        if branch == "1":
            return attach(0, parent_label), None, "1-1"
        return attach(0, parent_label), None, "2-1"

    holder = chain[holder_depth]
    siblings = holder.children[:-1]
    if len(siblings) == 1 and isinstance(siblings[0], Internal):
        action = juxtapose(holder_depth, parent_label, holder.label)
        new_root = replace_on_rightmost_chain(chain, holder_depth, siblings[0])
        return action, new_root, f"{branch}-2"

    action = attach(holder_depth, parent_label)
    shrunk = Internal(holder.label, siblings)
    new_root = replace_on_rightmost_chain(chain, holder_depth, shrunk)
    return action, new_root, f"{branch}-3"


def last_action(tree: ConstituencyTree) -> OracleStep:
    _require_oracle_input(tree)
    action, new_root, case = _last_action(tree.root)
    predecessor = EMPTY_TREE if new_root is None else ConstituencyTree(new_root)
    return OracleStep(action, predecessor, case)


def oracle_action_sequence(tree: ConstituencyTree, case_tally=None) -> list:
    """The unique action sequence rebuilding ``tree`` from the empty tree.

    ``case_tally`` may be a dict-like counter; each decision-table branch
    taken is recorded in it.
    """
    if tree.root is None:
        return []
    if has_unary_chains(tree):
        raise ValueError("oracle input must not contain unary chains")
    actions = []
    root = tree.root
    while root is not None:
        action, root, case = _last_action(root)
        if case_tally is not None:
            case_tally[case] = case_tally.get(case, 0) + 1
        actions.append(action)
    actions.reverse()
    return actions
