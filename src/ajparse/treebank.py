"""Bracketed-treebank reading, writing, and normalization.

Input files hold one or more S-expression trees (one per line or
pretty-printed across lines). Preterminals ``(TAG word)`` become leaves with
a POS attribute; an outer label-less / TOP / ROOT wrapper is unwrapped.

Text is read in pieces of whole lines that end at bracket depth 0 or below;
atoms hold no parentheses, so no token crosses two pieces. One bracket stack
splits the entries and builds each node once, normalized if asked, as it closes.
"""

from __future__ import annotations

import re
import sys
from collections import namedtuple
from typing import Callable, Iterator, Optional

from .tree import (
    LABEL_SEPARATOR,
    ConstituencyTree,
    Internal,
    Leaf,
    Token,
    collapsed_node,
    fold,
    iter_leaves,
)

_WRAPPER_LABELS = ("", "TOP", "ROOT")
# Atomic bracket-style tags kept verbatim by function-tag stripping.
_ATOMIC_TAGS = ("-NONE-", "-LRB-", "-RRB-")
_TRACE_TAG = "-NONE-"
_DEGENERATE = "normalization removed the entire sentence"

# One match per token: a whole preterminal (groups 1 and 2), an opening
# bracket with its label, possibly empty (group 3), a closing bracket
# (group 4), or an atom (no group). Python's ``\s`` is ``str.isspace``.
_TOKEN = re.compile(r"\(\s*([^\s()]+)\s+([^\s()]+)\s*\)|\(\s*([^\s()]*)|(\))|[^\s()]+")
_PRETERMINAL, _OPEN, _CLOSE = 2, 3, 4
# An entry root that normalization left without children.
_EMPTY = object()


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


class CorpusEntry(namedtuple("CorpusEntry", "id tree")):
    """A tree and its place in the file, skipped entries counted."""

    __slots__ = ()


def _read(pieces, normalization: bool):
    """Yield ``(offset, end, root, plus, error)`` per top-level bracket of the joined
    strings ``pieces`` and raise on text between them: the node below the entry's
    TOP/ROOT wrappers (a trace leaf kept, ``_EMPTY`` if normalization emptied it),
    the first label holding the chain separator, and the first error a bracket
    raised as it closed, offset relative to the entry. An unclosed entry is last, ``end`` None.

    Within one call, equal words, tags and labels are one ``str`` object and
    equal (tag, word) pairs one ``Leaf``, so a loaded corpus holds each
    distinct value once."""
    # Each word, tag and label (raw or stripped) maps to itself, each
    # (tag, word) pair to its leaf.
    shared = {}

    def normal_node(label, kids):
        # As ``normalize`` builds it: stripped, collapsed, None if no kids. A
        # label with no '-' or '=' strips to itself and is shared already.
        if not kids:
            return None
        if "-" in label or "=" in label:
            label = _strip_label(label)
            label = shared.setdefault(label, label)
        return collapsed_node(label, kids)

    make = normal_node if normalization else lambda label, kids: Internal(label, tuple(kids))

    # Open brackets, innermost last: [offset, label, kept children, dropped
    # children, the first child's entry root, atom offsets].
    stack = []
    plus, failure = None, None
    base = 0  # the offset of the piece ``text`` in the whole
    for text in pieces:
        for m in _TOKEN.finditer(text):
            kind = m.lastindex
            if not stack:
                start = base + m.start()
            if kind == _PRETERMINAL:
                pair = m.group(1, 2)
                node = root = shared.get(pair)
                if node is None:
                    tag, word = pair
                    tag, word = shared.setdefault(tag, tag), shared.setdefault(word, word)
                    node = root = shared[tag, word] = Leaf(Token(word, tag))
                if normalization and node.token.pos == _TRACE_TAG:
                    node = None
            elif kind == _OPEN:
                label = m.group(3)
                label = shared.setdefault(label, label)
                if plus is None and LABEL_SEPARATOR in label:
                    plus = label
                stack.append([base + m.start(), label, [], 0, None, []])
                continue
            elif kind == _CLOSE:
                if not stack:
                    raise TreebankFormatError("unbalanced ')'", base + m.start())
                off, label, children, dropped, first, atoms = stack.pop()
                count = len(children) + dropped
                node = root = error = None
                if failure is not None:
                    pass  # The entry has failed; read on to its end.
                elif atoms:
                    error = (("token outside a preterminal pair", atoms[0]) if count
                             else ("multiple tokens in one preterminal", atoms[1]))
                elif not count:
                    error = "empty constituent", off
                elif count == 1 and label in _WRAPPER_LABELS:
                    # A wrapper; at the root it is unwrapped to its child's entry root.
                    root = first
                    node = make(label, children) if label else children[0] if children else None
                elif not label:
                    error = "unlabeled constituent with several children", off
                else:
                    node = make(label, children)
                    root = _EMPTY if node is None else node
                if error is not None:
                    failure = TreebankFormatError(error[0], error[1] - start)
            elif stack:
                stack[-1][5].append(base + m.start())
                continue
            else:
                raise TreebankFormatError(f"stray text {text[m.start()]!r} between trees",
                                          base + m.start())
            if stack:
                parent = stack[-1]
                if parent[4] is None:
                    parent[4] = root
                if node is None:
                    parent[3] += 1
                else:
                    parent[2].append(node)
            else:
                yield start, base + m.end(), root, plus, failure
                plus, failure = None, None
        base += len(text)
    if stack:
        failure = failure or TreebankFormatError("unbalanced parentheses", stack[-1][0] - start)
        yield start, None, None, plus, failure


def parse_bracketed(text: str) -> ConstituencyTree:
    """Parse a single bracketed tree."""
    first = _TOKEN.search(text)
    if first is None:
        raise TreebankFormatError("no tree found", 0)
    if text[first.start()] != "(":
        raise TreebankFormatError(f"expected '(' but found {first.group()!r}", first.start())
    start, end, root, _, error = next(_read((text,), False))
    if error is None:
        trailing = _TOKEN.search(text, end)
        if trailing:
            raise TreebankFormatError("trailing content after tree", trailing.start())
        if not isinstance(root, Leaf):
            return ConstituencyTree(root)
        error = TreebankFormatError("tree root is a leaf", 0)
    raise TreebankFormatError(error.reason, start + error.offset)


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

    def rebuild(node: Internal, children: list) -> Optional[Internal]:
        kids = [c for c in children if c is not None]
        return collapsed_node(_strip_label(node.label), kids) if kids else None

    root = fold(tree.root, lambda leaf: None if leaf.token.pos == _TRACE_TAG else leaf, rebuild)
    if root is None:
        raise DegenerateSentenceError(_DEGENERATE)
    return ConstituencyTree(root)


def undecodable(fh, err: UnicodeDecodeError) -> str:
    """The error text for a byte of ``fh``, a file opened as UTF-8 text,
    that is not UTF-8. It names the file and the byte; the decoder's own
    position counts from the start of one read chunk, not of the file, so
    it is left out."""
    return f"{fh.name}: byte {err.object[err.start]:#04x} is not UTF-8 text ({err.reason})"


def _pieces(fh) -> Iterator[str]:
    """The lines of ``fh``, a file opened as UTF-8 text, joined into pieces
    that end where the count of ``(`` minus ``)`` so far, the bracket depth
    until the reader raises, is 0 or below. A byte that is not UTF-8 raises
    ``TreebankFormatError``, naming the file."""
    piece, depth = [], 0
    try:
        for line in fh:
            piece.append(line)
            depth += line.count("(") - line.count(")")
            if depth <= 0:
                yield "".join(piece)
                piece = []
    except UnicodeDecodeError as err:
        raise TreebankFormatError(undecodable(fh, err)) from None
    yield "".join(piece)


def _to_stderr(line: str) -> None:
    print(line, file=sys.stderr)


def iter_corpus(
    path: str,
    normalization: bool = True,
    strict: bool = True,
    plain_labels: bool = True,
    warn: Callable[[str], None] = _to_stderr,
) -> Iterator[CorpusEntry]:
    """Yield the corpus entries of a bracketed file in order, each as its
    bracket closes, so that a caller holds one tree at a time.

    Malformed trees raise in strict mode (naming the entry index) and are
    skipped otherwise, each with the line ``skipping malformed entry <i>:
    <error>`` passed to ``warn``, which by default prints it to the
    ``sys.stderr`` of that moment; entries before the error have been
    yielded by then. ``plain_labels`` rejects the reserved chain separator
    in labels; turn it off for files of already-collapsed trees (e.g. parser
    output), whose labels are chain joins by construction.
    """
    with open(path, encoding="utf-8") as fh:
        for i, (offset, end, root, plus, error) in enumerate(_read(_pieces(fh), normalization)):
            if end is None:
                raise TreebankFormatError("unbalanced '('", offset)
            try:
                if error is not None:
                    raise error
                if isinstance(root, Leaf):
                    raise TreebankFormatError("tree root is a leaf", 0)
                if plain_labels and plus is not None:
                    raise TreebankFormatError(f"label {plus!r} contains the reserved separator")
                if root is _EMPTY:
                    raise DegenerateSentenceError(_DEGENERATE)
            except ValueError as err:
                if strict:
                    # Offsets inside the entry are relative to its start.
                    reason, where = str(err), offset
                    if isinstance(err, TreebankFormatError):
                        reason, where = err.reason, offset + (err.offset or 0)
                    raise TreebankFormatError(reason, offset=where, entry=i) from err
                warn(f"skipping malformed entry {i}: {err}")
                continue
            yield CorpusEntry(i, ConstituencyTree(root))


def load_corpus(
    path: str,
    normalization: bool = True,
    strict: bool = True,
    plain_labels: bool = True,
) -> list:
    """All entries of ``iter_corpus`` at once, in a list."""
    return list(iter_corpus(path, normalization, strict, plain_labels))


def tokens_of(tree: ConstituencyTree) -> list:
    return [leaf.token for leaf in iter_leaves(tree.root)]
