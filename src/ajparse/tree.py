"""Constituency-tree data model.

Trees are immutable values: leaves carry tokens (word + optional POS tag),
internal nodes carry a category label and an ordered, non-empty child tuple.
Both node kinds are ``tuple`` subclasses of their fields.
All tree-producing operations return new trees. Every tree walk in the
package goes through the iterative traversals here (``iter_nodes``,
``iter_leaves``, ``fold``, ``rightmost_chain``), so tree depth is not bounded
by Python's recursion limit.
"""

from __future__ import annotations

from collections import namedtuple
from typing import Callable, Iterator, Optional, Union

# Joins the labels of a collapsed unary chain, e.g. "S+NP".
LABEL_SEPARATOR = "+"


class LabelFormatError(ValueError):
    """A label cannot be split back into a unary chain."""


class Token(namedtuple("Token", "word pos")):
    """The 2-tuple ``(word, pos)``; ``pos`` is "" when the word has no tag."""

    __slots__ = ()

    def __new__(cls, word: str, pos: str = ""):
        if not word:
            raise ValueError("token word must be non-empty")
        return tuple.__new__(cls, (word, pos))


class Leaf(namedtuple("Leaf", "token")):
    """A token in a tree: the 1-tuple ``(token,)``. Its position is its
    place among the tree's leaves, left to right, so equal tokens make
    equal, shareable leaves."""

    __slots__ = ()


class Internal(namedtuple("Internal", "label children")):
    """The 2-tuple ``(label, children)``, ``children`` a non-empty tuple of
    ``Leaf | Internal``.

    Nodes are tuples, so a build makes no instance dict, and hashing,
    comparing and reading a field (``namedtuple``'s getters) run in C. A
    node equals a plain tuple of its fields, which no check compares it
    with."""

    __slots__ = ()

    def __new__(cls, label: str, children: tuple):
        if not label:
            raise ValueError("internal node label must be non-empty")
        if not children:
            raise ValueError("internal node must have at least one child")
        return tuple.__new__(cls, (label, children))


Node = Union[Leaf, Internal]


def iter_nodes(root: Optional[Node]) -> Iterator[Node]:
    """Every node under ``root`` (itself included), pre-order, left to right."""
    stack = [root] if root is not None else []
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, Internal):
            stack.extend(node.children[::-1])


def iter_leaves(root: Optional[Node]) -> Iterator[Leaf]:
    """The leaves under ``root``, left to right.

    A walk of its own rather than a filter over ``iter_nodes``: every
    sentence's tokens are read with it, and skipping the internal yields
    pays there.
    """
    stack = [root] if root is not None else []
    while stack:
        node = stack.pop()
        if isinstance(node, Leaf):
            yield node
        else:
            stack.extend(node.children[::-1])


def fold(root: Node, on_leaf: Callable, on_internal: Callable):
    """Post-order rebuild: ``on_leaf(leaf)`` for each leaf and
    ``on_internal(node, values)`` for each internal node, where ``values``
    lists the children's results in order. Leaves are visited left to
    right. Returns the result for ``root``."""
    # A pre-order walk that takes the last child first, reversed, is
    # post-order with children left to right.
    order = []
    stack = [root]
    while stack:
        node = stack.pop()
        order.append(node)
        if isinstance(node, Internal):
            stack.extend(node.children)
    values = []
    for node in reversed(order):
        if isinstance(node, Leaf):
            values.append(on_leaf(node))
        else:
            n = len(node.children)
            result = on_internal(node, values[-n:])
            del values[-n:]
            values.append(result)
    return values[0]


class ConstituencyTree:
    """A rooted tree over a token sequence; ``root is None`` means the
    empty tree (zero tokens).

    Not a 1-tuple, which would equal the final ISR stack ``(root,)``: a tree
    equals only another tree, and ``root`` is read-only."""

    __slots__ = ("root",)

    def __init__(self, root: Optional[Internal]):
        if root is not None and not isinstance(root, Internal):
            raise ValueError("non-empty tree must have an internal root")
        object.__setattr__(self, "root", root)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.root == other.root

    def __hash__(self):
        return hash((self.root,))

    def __repr__(self):
        return f"ConstituencyTree(root={self.root!r})"

    def __reduce__(self):
        return ConstituencyTree, (self.root,)


EMPTY_TREE = ConstituencyTree(None)


def rightmost_chain(tree) -> list:
    """Internal nodes from the root down along last-child links. ``tree`` is
    a ``ConstituencyTree`` or a root node (a bare leaf or None has no
    chain)."""
    node = tree.root if isinstance(tree, ConstituencyTree) else tree
    chain = []
    while isinstance(node, Internal):
        chain.append(node)
        node = node.children[-1]
    return chain


def has_unary_chains(tree: ConstituencyTree) -> bool:
    """True iff some internal node's only child is another internal node.
    An internal node whose sole child is a leaf does not count."""
    # The oracle runs this on every sentence, so it is a plain loop, not a
    # generator; ``None`` and leaves are popped and dropped.
    stack = [tree.root]
    while stack:
        node = stack.pop()
        if isinstance(node, Internal):
            children = node.children
            if len(children) == 1 and isinstance(children[0], Internal):
                return True
            stack.extend(children)
    return False


def collapse_unary_chains(tree: ConstituencyTree) -> ConstituencyTree:
    """Merge each maximal internal-over-internal chain into one node whose
    label joins the chain's labels with ``LABEL_SEPARATOR``."""
    if tree.root is None:
        return tree
    return ConstituencyTree(
        fold(tree.root, lambda leaf: leaf, lambda node, kids: collapsed_node(node.label, kids))
    )


def collapsed_node(label: str, children: list) -> Internal:
    """An internal node over already-collapsed ``children``, merged with its
    only child when that child is internal. Built bottom-up, this joins a
    whole chain's labels in top-down order."""
    if len(children) == 1 and isinstance(children[0], Internal):
        child = children[0]
        return Internal(label + LABEL_SEPARATOR + child.label, child.children)
    return Internal(label, tuple(children))


def chain_labels(label: str) -> list:
    """The labels of the unary chain that ``label`` collapses, top first."""
    parts = label.split(LABEL_SEPARATOR)
    if not all(parts):
        raise LabelFormatError(f"malformed collapsed label: {label!r}")
    return parts


def node_equal(a: Optional[Node], b: Optional[Node]) -> bool:
    # Nodes are tuples, so ``a == b`` compares whole trees in C; trees built
    # over the same tokens, as the corpus checks compare, make no Python call
    # there. Equal tuples are equal trees, but unequal ones may still match:
    # a POS tag counts only when both sides carry it. So the walk runs when
    # ``==`` says False, and when it raises RecursionError on a tree deeper
    # than C recursion allows.
    if a is None or b is None:
        return a is None and b is None
    try:
        if a == b:
            return True
    except RecursionError:
        pass
    # Equal pre-order sequences with equal child counts at every position
    # describe the same shape, so a pairwise walk decides equality.
    for x, y in zip(iter_nodes(a), iter_nodes(b)):
        if isinstance(x, Leaf) != isinstance(y, Leaf):
            return False
        if isinstance(x, Leaf):
            if x.token.word != y.token.word:
                return False
            # POS tags only count when both sides carry them.
            if x.token.pos and y.token.pos and x.token.pos != y.token.pos:
                return False
        elif x.label != y.label or len(x.children) != len(y.children):
            return False
    return True


def tree_equal(a: ConstituencyTree, b: ConstituencyTree) -> bool:
    return node_equal(a.root, b.root)
