import pickle
import sys

import pytest
from hypothesis import given, strategies as st

from ajparse.tree import (
    ConstituencyTree,
    EMPTY_TREE,
    Internal,
    LabelFormatError,
    Leaf,
    Token,
    collapse_unary_chains,
    fold,
    iter_nodes,
    has_unary_chains,
    iter_leaves,
    node_equal,
    rightmost_chain,
    tree_equal,
)
from ajparse.oracle import oracle_action_sequence
from ajparse.scoring import extract_brackets
from ajparse.transition import apply_sequence
from ajparse.treebank import normalize, parse_bracketed, tokens_of, write_bracketed

from reference import (
    reference_has_unary_chains, reference_node_equal, reference_restore_unary_chains,
    replace_on_rightmost_chain,
)


def leaf(word, pos="T"):
    return Leaf(Token(word, pos))


def test_token_requires_word():
    with pytest.raises(ValueError):
        Token("")


def test_nodes_keep_the_dataclass_contract():
    # Counterexample text writes nodes with !r, so the repr stays the one
    # the frozen dataclasses wrote.
    kids = (Leaf(Token("a", "D")), Internal("VP", (Leaf(Token("b")),)))
    node = Internal("S", kids)
    assert repr(node) == (
        "Internal(label='S', children=(Leaf(token=Token(word='a', pos='D')), "
        "Internal(label='VP', children=(Leaf(token=Token(word='b', pos='')),))))"
    )
    twin = Internal(label="S", children=(Leaf(token=Token("a", "D")), kids[1]))
    assert twin == node and twin is not node and hash(twin) == hash(node)
    assert twin.children[0] == kids[0] and hash(twin.children[0]) == hash(kids[0])
    assert (node.label, node.children, kids[0].token) == ("S", kids, Token("a", "D"))
    # A node is a tuple of its fields, so it equals that plain tuple.
    assert node == ("S", kids) and kids[0] == (Token("a", "D"),)
    copied = pickle.loads(pickle.dumps(node))
    assert copied == node and type(copied) is Internal and type(copied.children[0]) is Leaf
    with pytest.raises(ValueError):
        Internal("", kids)
    with pytest.raises(ValueError):
        Internal("A", ())
    for obj, name in ((node, "label"), (node, "children"), (kids[0], "token")):
        with pytest.raises(AttributeError):
            setattr(obj, name, getattr(obj, name))


def test_empty_tree_properties():
    assert EMPTY_TREE.root is None
    assert tokens_of(EMPTY_TREE) == []
    assert rightmost_chain(EMPTY_TREE) == []


@pytest.mark.parametrize("make, expected", [
    (collapse_unary_chains, EMPTY_TREE),
    (reference_restore_unary_chains, EMPTY_TREE),
    (normalize, EMPTY_TREE),
    (write_bracketed, ""),
    (oracle_action_sequence, []),
], ids=["collapse", "restore", "normalize", "write", "oracle"])
def test_empty_tree_passes_through(make, expected):
    result = make(EMPTY_TREE)
    assert result is EMPTY_TREE if expected is EMPTY_TREE else result == expected


def test_leaf_root_rejected():
    with pytest.raises(ValueError):
        ConstituencyTree(leaf("a"))


def test_length_counts_leaves():
    t = ConstituencyTree(Internal("S", (leaf("a"), Internal("B", (leaf("b"),)))))
    assert len(tokens_of(t)) == 2
    assert [tok.word for tok in tokens_of(t)] == ["a", "b"]


def test_rightmost_chain_follows_last_children():
    inner = Internal("C", (leaf("c"),))
    mid = Internal("B", (leaf("b"), inner))
    t = ConstituencyTree(Internal("A", (mid,)))
    assert [n.label for n in rightmost_chain(t)] == ["A", "B", "C"]
    assert len(rightmost_chain(t)) == 3


def test_replace_on_rightmost_chain_rebuilds_ancestors():
    inner = Internal("C", (leaf("c"),))
    mid = Internal("B", (leaf("b"), inner))
    root = Internal("A", (mid,))
    chain = [root, mid, inner]
    new_root = replace_on_rightmost_chain(chain, 2, Internal("D", (leaf("d"),)))
    assert new_root.children[-1].children[-1].label == "D"
    # Untouched parts are shared, not copied.
    assert new_root.children[0].children[0] is mid.children[0]


def test_has_unary_chains_ignores_preterminal_wrappers():
    # Internal over a single leaf is not a unary chain.
    t = ConstituencyTree(Internal("NP", (leaf("a"),)))
    assert not has_unary_chains(t)
    u = ConstituencyTree(Internal("S", (Internal("NP", (leaf("a"),)),)))
    assert has_unary_chains(u)


def test_collapse_merges_labels_in_order():
    t = ConstituencyTree(
        Internal("S", (Internal("VP", (Internal("NP", (leaf("a"),)),)),))
    )
    c = collapse_unary_chains(t)
    assert c.root.label == "S+VP+NP"
    assert not has_unary_chains(c)


def test_collapse_handles_nested_chains():
    chain = Internal("A", (Internal("B", (leaf("x"),)),))
    t = ConstituencyTree(Internal("S", (chain, Internal("C", (leaf("y"),)))))
    c = collapse_unary_chains(t)
    assert c.root.children[0].label == "A+B"
    assert c.root.children[1].label == "C"


def test_restore_rejects_malformed_labels():
    t = ConstituencyTree(Internal("S+", (leaf("a"),)))
    with pytest.raises(LabelFormatError):
        reference_restore_unary_chains(t)
    with pytest.raises(LabelFormatError):
        extract_brackets(t)


def test_tree_equal_pos_optional():
    a = ConstituencyTree(Internal("S", (Leaf(Token("x", "NN")),)))
    b = ConstituencyTree(Internal("S", (Leaf(Token("x", "")),)))
    c = ConstituencyTree(Internal("S", (Leaf(Token("x", "VB")),)))
    assert tree_equal(a, b)
    assert not tree_equal(a, c)
    assert tree_equal(EMPTY_TREE, EMPTY_TREE)
    assert not tree_equal(a, EMPTY_TREE)


labels = st.sampled_from(["S", "NP", "VP", "PP", "X"])


@st.composite
def trees(draw, max_leaves=6, allow_unary=True, labels=labels):
    counter = [0]

    def node(budget, depth):
        if budget == 1 and (depth > 2 or draw(st.booleans())):
            lf = leaf(f"w{counter[0]}")
            counter[0] += 1
            return lf
        if allow_unary and depth < 3 and draw(st.integers(0, 4)) == 0:
            child = node(budget, depth + 1)
            if isinstance(child, Leaf):
                child = Internal(draw(labels), (child,))
            return Internal(draw(labels), (child,))
        n_children = draw(st.integers(2, min(3, budget))) if budget > 1 else 1
        # Split the leaf budget into n_children positive parts.
        parts = []
        left = budget
        for i in range(n_children - 1):
            take = draw(st.integers(1, left - (n_children - 1 - i)))
            parts.append(take)
            left -= take
        parts.append(left)
        kids = tuple(node(p, depth + 1) for p in parts)
        return Internal(draw(labels), kids)

    root = node(draw(st.integers(1, max_leaves)), 0)
    if isinstance(root, Leaf):
        root = Internal(draw(labels), (root,))
    return ConstituencyTree(root)


def _rebuilt(node, kids):
    return Internal(node.label, tuple(kids))


def _fresh(lf):
    return Leaf(Token(lf.token.word, lf.token.pos))


# One node's edit: (kind of node, its rebuild). "no_pos" keeps the trees
# equal, since a POS tag counts only when both sides carry it.
_EDITS = {
    "no_pos": (Leaf, lambda lf: Leaf(Token(lf.token.word))),
    "word": (Leaf, lambda lf: Leaf(Token(lf.token.word + "'", lf.token.pos))),
    "label": (Internal, lambda node, kids: Internal(node.label + "'", tuple(kids))),
    "child_count": (Internal, lambda node, kids: Internal(
        node.label, tuple(kids[:-1]) if len(kids) > 1 else (*kids, leaf("new")))),
}


@given(trees(), st.sampled_from(["fresh", *sorted(_EDITS)]), st.data())
def test_node_equal_matches_the_walk(t, edit, data):
    if edit == "fresh":
        # An equal tree over fresh, equal tokens and new nodes.
        edited = fold(t.root, _fresh, _rebuilt)
    else:
        kind, rebuild = _EDITS[edit]
        target = data.draw(st.sampled_from([n for n in iter_nodes(t.root)
                                            if isinstance(n, kind)]))
        edited = fold(
            t.root,
            lambda lf: rebuild(lf) if lf is target else Leaf(lf.token),
            lambda node, kids: rebuild(node, kids) if node is target else _rebuilt(node, kids),
        )
    for a, b in ((t.root, edited), (edited, t.root), (edited, None)):
        assert node_equal(a, b) == reference_node_equal(a, b), (edit, a, b)


@given(trees(), st.data())
def test_has_unary_chains_matches_the_walk(t, data):
    assert has_unary_chains(t) == reference_has_unary_chains(t)
    # A unary node over some internal node, at any depth, makes a chain.
    target = data.draw(st.sampled_from([n for n in iter_nodes(t.root)
                                        if isinstance(n, Internal)]))
    linked = ConstituencyTree(fold(
        t.root,
        lambda lf: lf,
        lambda node, kids: (Internal("U", (_rebuilt(node, kids),)) if node is target
                            else _rebuilt(node, kids)),
    ))
    assert has_unary_chains(linked) and reference_has_unary_chains(linked)
    collapsed = collapse_unary_chains(linked)
    assert not has_unary_chains(collapsed) and not reference_has_unary_chains(collapsed)


def _deep(levels, bottom):
    """``(S (T w0) (S ... (S bottom)))`` over new nodes, ``levels`` S deep."""
    node = Internal("S", (bottom,))
    for i in range(levels - 1):
        node = Internal("S", (leaf(f"w{i}"), node))
    return node


@pytest.mark.parametrize("bottom, equal", [
    (leaf("z"), True),
    (Leaf(Token("z")), True),
    (leaf("y"), False),
], ids=["same", "no-pos", "other-word"])
def test_node_equal_matches_the_walk_deeper_than_the_recursion_limit(bottom, equal):
    # Each level nests two tuple compares, so ``==`` runs out of recursion here.
    levels = 5 * sys.getrecursionlimit()
    a, b = _deep(levels, leaf("z")), _deep(levels, bottom)
    assert node_equal(a, b) == node_equal(b, a) == reference_node_equal(a, b) == equal


@given(trees())
def test_collapse_restore_roundtrip(t):
    collapsed = collapse_unary_chains(t)
    assert not has_unary_chains(collapsed)
    assert tree_equal(reference_restore_unary_chains(collapsed), t)


@given(trees(allow_unary=False))
def test_collapse_is_identity_without_chains(t):
    if not has_unary_chains(t):
        assert tree_equal(collapse_unary_chains(t), t)


@given(trees())
def test_write_parse_roundtrip(t):
    assert tree_equal(parse_bracketed(write_bracketed(t)), t)


@given(trees())
def test_normalize_is_idempotent(t):
    once = normalize(t)
    assert tree_equal(normalize(once), once)


@given(trees())
def test_one_bracket_per_restored_internal_node(t):
    for u in (t, collapse_unary_chains(t)):
        restored = reference_restore_unary_chains(u)
        internal = sum(isinstance(n, Internal) for n in iter_nodes(restored.root))
        assert sum(extract_brackets(u).values()) == internal


@given(trees())
def test_length_is_the_leaf_count_of_every_built_tree(t):
    # A leaf's position is its place in the walk, so every builder must keep
    # every leaf, in order.
    words = [leaf.token.word for leaf in iter_leaves(t.root)]
    chain_free = normalize(t)
    collapsed = collapse_unary_chains(t)
    built = [
        t,
        chain_free,
        collapsed,
        reference_restore_unary_chains(collapsed),
        parse_bracketed(write_bracketed(t)),
        apply_sequence(tokens_of(chain_free), oracle_action_sequence(chain_free)),
    ]
    for u in built:
        assert [leaf.token.word for leaf in iter_leaves(u.root)] == words
        assert len(tokens_of(u)) == len(words)
