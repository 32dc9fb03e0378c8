"""Oracle extraction: recover the unique action sequence for a tree.

Works by repeatedly inferring and undoing the last action until the tree is
empty; the accumulated actions, reversed, rebuild the tree exactly.
Input trees must not contain unary chains.
"""

from __future__ import annotations

from .transition import attach, juxtapose, open_chain
from .tree import ConstituencyTree, Internal, has_unary_chains

# Branch identifiers from the last-action decision table. "1-1" (a leaf that
# is also the root) cannot occur on well-formed trees; seeing it is a bug.
CASES = ("1-1", "1-2", "1-3", "2-1", "2-2", "2-3")


def _undo_last(chain: list):
    """Infer the last action of the tree held by the open ``chain`` and undo
    it in place. Returns (action, case id). Assumes the tree is well-formed
    and free of unary chains."""
    # List indices are chain depths; the last frame's last child is the
    # last leaf.
    label, children = chain[-1]
    if len(children) > 1:
        branch = "1"
        parent_label = None
        children.pop()
    else:
        # The last leaf is alone under its parent, which goes with it. A
        # leaf root would be case 1-1, which well-formed trees exclude.
        branch = "2"
        parent_label = label
        chain.pop()
        if not chain:
            return attach(0, parent_label), "2-1"

    holder_depth = len(chain) - 1  # depth of the removed subtree's parent
    holder_label, siblings = chain[-1]
    if len(siblings) == 1 and isinstance(siblings[0], Internal):
        chain.pop()
        open_chain(chain, siblings[0])
        return juxtapose(holder_depth, parent_label, holder_label), f"{branch}-2"

    if isinstance(siblings[-1], Internal):
        open_chain(chain, siblings.pop())
    return attach(holder_depth, parent_label), f"{branch}-3"


def oracle_action_sequence(tree: ConstituencyTree, case_tally=None) -> list:
    """The unique action sequence rebuilding ``tree`` from the empty tree.

    Undoes last actions on an open chain of ``tree`` until it is empty.
    ``case_tally`` may be a dict-like counter; each decision-table branch
    taken is recorded in it.
    """
    if tree.root is None:
        return []
    if has_unary_chains(tree):
        raise ValueError("oracle input must not contain unary chains")
    actions = []
    chain = []
    open_chain(chain, tree.root)
    while chain:
        action, case = _undo_last(chain)
        if case_tally is not None:
            case_tally[case] = case_tally.get(case, 0) + 1
        actions.append(action)
    actions.reverse()
    return actions
