"""Bracketed-treebank reading, writing, and normalization.

Input files hold one or more S-expression trees (one per line or
pretty-printed across lines). Preterminals ``(TAG word)`` become leaves with
a POS attribute; an outer label-less / TOP / ROOT wrapper is unwrapped.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Optional

from .tree import (
    LABEL_SEPARATOR,
    ConstituencyTree,
    Internal,
    Leaf,
    Token,
    collapsed_node,
    fold,
    iter_leaves,
    iter_nodes,
)

logger = logging.getLogger(__name__)

_WRAPPER_LABELS = ("", "TOP", "ROOT")
# Atomic bracket-style tags kept verbatim by function-tag stripping.
_ATOMIC_TAGS = ("-NONE-", "-LRB-", "-RRB-")
_TRACE_TAG = "-NONE-"


class TreebankFormatError(ValueError):
    def __init__(self, message: str, offset: Optional[int] = None, entry: Optional[int] = None):
        self.reason = message
        self.offset = offset
        self.entry = entry
        where = ""
        if entry is not None:
            where += f" (entry {entry})"
        if offset is not None:
            where += f" (offset {offset})"
        super().__init__(message + where)


class DegenerateSentenceError(ValueError):
    """Normalization removed every token of the sentence."""


@dataclass(frozen=True)
class CorpusEntry:
    id: int
    tree: ConstituencyTree


def _tokenize(text: str):
    tokens = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
        elif c in "()":
            tokens.append((c, i))
            i += 1
        else:
            j = i
            while j < n and not text[j].isspace() and text[j] not in "()":
                j += 1
            tokens.append((text[i:j], i))
            i = j
    return tokens


def _close_bracket(off, label, atoms, children, index):
    """The node for one bracket pair; ``index`` numbers a new leaf."""
    if atoms and children:
        raise TreebankFormatError(
            "token outside a preterminal pair", atoms[0][1]
        )
    if atoms:
        if len(atoms) > 1:
            raise TreebankFormatError("multiple tokens in one preterminal", atoms[1][1])
        if not label:
            raise TreebankFormatError("preterminal without a POS tag", off)
        return Leaf(Token(atoms[0][0], label), index)
    if not children:
        raise TreebankFormatError("empty constituent", off)
    if not label:
        if len(children) == 1:
            return children[0]  # label-less wrapper
        raise TreebankFormatError("unlabeled constituent with several children", off)
    return Internal(label, tuple(children))


def parse_bracketed(text: str) -> ConstituencyTree:
    """Parse a single bracketed tree."""
    tokens = _tokenize(text)
    if not tokens:
        raise TreebankFormatError("no tree found", 0)
    if tokens[0][0] != "(":
        raise TreebankFormatError(f"expected '(' but found {tokens[0][0]!r}", tokens[0][1])
    frames = []  # open brackets, innermost last: (offset, label, atoms, children)
    leaves = 0
    pos, n = 0, len(tokens)
    while True:
        tok, off = tokens[pos]
        pos += 1
        if tok == "(":
            label = ""
            if pos < n and tokens[pos][0] not in "()":
                label = tokens[pos][0]
                pos += 1
            frames.append((off, label, [], []))
        elif tok == ")":
            off, label, atoms, children = frames.pop()
            node = _close_bracket(off, label, atoms, children, leaves)
            if atoms:
                leaves += 1
            if not frames:
                break
            frames[-1][3].append(node)
        else:
            frames[-1][2].append((tok, off))
        if pos >= n:
            raise TreebankFormatError("unbalanced parentheses", frames[-1][0])
    if pos != n:
        raise TreebankFormatError("trailing content after tree", tokens[pos][1])
    while (
        isinstance(node, Internal)
        and node.label in _WRAPPER_LABELS
        and len(node.children) == 1
    ):
        node = node.children[0]
    if isinstance(node, Leaf):
        raise TreebankFormatError("tree root is a leaf", tokens[0][1])
    return ConstituencyTree(node)


def write_bracketed(tree: ConstituencyTree) -> str:
    """Canonical one-line form; the empty tree serializes to ''."""
    if tree.root is None:
        return ""
    return fold(
        tree.root,
        lambda leaf: f"({leaf.token.pos or 'XX'} {leaf.token.word})",
        lambda node, parts: f"({node.label} " + " ".join(parts) + ")",
    )


def _strip_label(label: str) -> str:
    """Drop functional-tag suffixes and coindexation (after '-' or '=')."""
    if label in _ATOMIC_TAGS or label.startswith("-"):
        return label
    for sep in "-=":
        i = label.find(sep)
        if i > 0:
            label = label[:i]
    return label


def normalize(tree: ConstituencyTree) -> ConstituencyTree:
    """Remove trace elements, strip functional tags, collapse unary chains."""
    if tree.root is None:
        return tree
    kept = 0

    def reindex(leaf: Leaf) -> Optional[Leaf]:
        nonlocal kept
        if leaf.token.pos == _TRACE_TAG:
            return None
        kept += 1
        return Leaf(leaf.token, kept - 1)

    def rebuild(node: Internal, children: list) -> Optional[Internal]:
        children = [c for c in children if c is not None]
        if not children:
            return None
        return collapsed_node(_strip_label(node.label), children)

    root = fold(tree.root, reindex, rebuild)
    if root is None:
        raise DegenerateSentenceError("normalization removed the entire sentence")
    return ConstituencyTree(root)


def split_trees(text: str):
    """Yield (raw S-expression, byte offset) for each top-level tree."""
    depth = 0
    start = None
    for i, c in enumerate(text):
        if c == "(":
            if depth == 0:
                start = i
            depth += 1
        elif c == ")":
            depth -= 1
            if depth < 0:
                raise TreebankFormatError("unbalanced ')'", i)
            if depth == 0:
                yield text[start : i + 1], start
        elif depth == 0 and not c.isspace():
            raise TreebankFormatError(f"stray text {c!r} between trees", i)
    if depth != 0:
        raise TreebankFormatError("unbalanced '('", start or 0)


def _check_plain_labels(tree: ConstituencyTree) -> None:
    for node in iter_nodes(tree.root):
        if isinstance(node, Internal) and LABEL_SEPARATOR in node.label:
            raise TreebankFormatError(
                f"label {node.label!r} contains the reserved separator"
            )


def load_corpus(
    path: str,
    normalization: bool = True,
    strict: bool = True,
    plain_labels: bool = True,
) -> list:
    """Load a bracketed file into ordered corpus entries.

    Malformed trees raise in strict mode (naming the entry index) and are
    skipped with a warning otherwise. ``plain_labels`` rejects the reserved
    chain separator in labels; turn it off for files of already-collapsed
    trees (e.g. parser output), whose labels are chain joins by construction.
    """
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    entries = []
    for i, (raw, offset) in enumerate(split_trees(text)):
        try:
            tree = parse_bracketed(raw)
            if plain_labels:
                _check_plain_labels(tree)
            if normalization:
                tree = normalize(tree)
        except ValueError as err:
            if strict:
                # Offsets inside the entry are relative to its start.
                reason, where = str(err), offset
                if isinstance(err, TreebankFormatError):
                    reason, where = err.reason, offset + (err.offset or 0)
                raise TreebankFormatError(reason, offset=where, entry=i) from err
            logger.warning("skipping malformed entry %d: %s", i, err)
            continue
        entries.append(CorpusEntry(len(entries), tree))
    return entries


def write_corpus(trees, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for tree in trees:
            fh.write(write_bracketed(tree) + "\n")


def tokens_of(tree: ConstituencyTree) -> list:
    return [leaf.token for leaf in iter_leaves(tree.root)]
