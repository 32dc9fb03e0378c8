"""Persistent-tree references for the whole-sequence operations.

``ajparse`` runs the oracle, sequence replay and ISR translation on an open
rightmost chain. These are the straightforward versions that rebuild the
tree after every action; property tests require the two to agree.
"""

from ajparse.isr import REDUCE, translate_action
from ajparse.transition import (
    INITIAL_STATE,
    IllegalActionError,
    apply_action,
    attach,
    juxtapose,
)
from ajparse.tree import Internal, replace_on_rightmost_chain, rightmost_chain


def reference_last_action(root: Internal):
    """Infer the last action of ``root`` and undo it, rebuilding the chain
    ancestors. Returns (action, predecessor root or None, case id)."""
    chain = rightmost_chain(root)
    parent = chain[-1]
    if len(parent.children) > 1:
        branch = "1"
        parent_label = None
        holder_depth = len(chain) - 1  # the last leaf's parent
    else:
        branch = "2"
        parent_label = parent.label
        holder_depth = len(chain) - 2  # the parent's parent

    if holder_depth < 0:
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


def reference_oracle(tree, case_tally=None) -> list:
    actions = []
    root = tree.root
    while root is not None:
        action, root, case = reference_last_action(root)
        if case_tally is not None:
            case_tally[case] = case_tally.get(case, 0) + 1
        actions.append(action)
    actions.reverse()
    return actions


def reference_apply_sequence(tokens, actions):
    """Fold ``apply_action`` over the sequence from the empty tree."""
    state = INITIAL_STATE
    for i, (token, action) in enumerate(zip(tokens, actions)):
        try:
            state = apply_action(state, token, action)
        except IllegalActionError as err:
            raise IllegalActionError(err.reason, action, step=i) from err
    return state.tree


def reference_translate_sequence(tokens, actions) -> list:
    """``translate_action`` of every step, then one reduce per chain node."""
    state = INITIAL_STATE
    out = []
    for token, action in zip(tokens, actions):
        out.extend(translate_action(state.tree, action))
        state = apply_action(state, token, action)
    out.extend([REDUCE] * len(rightmost_chain(state.tree)))
    return out
