import re
import sys

import pytest
from hypothesis import given, settings, strategies as st

import reference
from ajparse.cli import main
from ajparse.tree import (
    LABEL_SEPARATOR,
    ConstituencyTree,
    Internal,
    Leaf,
    Token,
    has_unary_chains,
    iter_nodes,
    tree_equal,
)
from ajparse.treebank import (
    DegenerateSentenceError,
    TreebankFormatError,
    iter_corpus,
    load_corpus,
    normalize,
    parse_bracketed,
    tokens_of,
    write_bracketed,
)
from test_reader_reference import _same_reads
from treebank_texts import line_broken_treebanks


def test_parse_simple_tree():
    t = parse_bracketed("(S (NP (DT the) (NN king)) (VP (VBZ waves)))")
    assert len(tokens_of(t)) == 3
    assert [tok.word for tok in tokens_of(t)] == ["the", "king", "waves"]
    assert tokens_of(t)[0].pos == "DT"


def test_parse_unwraps_outer_wrappers():
    for wrapper in ["( {} )", "(TOP {})", "(ROOT {})"]:
        t = parse_bracketed(wrapper.format("(S (NN a))"))
        assert t.root.label == "S"


def test_parse_error_cases():
    with pytest.raises(TreebankFormatError):
        parse_bracketed("")
    with pytest.raises(TreebankFormatError):
        parse_bracketed("(S (NN a)")  # unbalanced
    with pytest.raises(TreebankFormatError):
        parse_bracketed("(S a (NN b))")  # token outside preterminal
    with pytest.raises(TreebankFormatError):
        parse_bracketed("(S (NN a b))")  # two tokens in one preterminal
    with pytest.raises(TreebankFormatError):
        parse_bracketed("(S ())")  # empty constituent
    with pytest.raises(TreebankFormatError):
        parse_bracketed("(S (NN a)) junk")
    with pytest.raises(TreebankFormatError):
        parse_bracketed("((NN a))")  # wrapper around a leaf


def test_write_parse_roundtrip(fig_tree):
    assert tree_equal(parse_bracketed(write_bracketed(fig_tree)), fig_tree)


def test_write_roundtrip_preserves_collapsed_labels():
    t = parse_bracketed("(S (NN a))")
    from ajparse.tree import collapse_unary_chains, Internal, ConstituencyTree

    u = ConstituencyTree(Internal("S", (Internal("NP", (t.root.children[0],)),)))
    c = collapse_unary_chains(u)
    assert tree_equal(parse_bracketed(write_bracketed(c)), c)


def test_normalize_strips_function_tags():
    t = parse_bracketed("(S (NP-SBJ-1 (NN a)) (VP=2 (VBZ b)))")
    n = normalize(t)
    assert [c.label for c in n.root.children] == ["NP", "VP"]


def test_normalize_keeps_bracket_tags():
    t = parse_bracketed("(S (-LRB- -LRB-) (NN a) (-RRB- -RRB-))")
    n = normalize(t)
    assert len(tokens_of(n)) == 3


def test_normalize_removes_traces():
    t = parse_bracketed("(S (NP (-NONE- *T*)) (VP (VBZ runs) (NP (NN home))))")
    n = normalize(t)
    assert len(tokens_of(n)) == 2
    leaves = tokens_of(n)
    assert [tok.word for tok in leaves] == ["runs", "home"]


def test_normalize_collapses_unary_chains():
    t = parse_bracketed("(S (NP (NP (NNP Arthur))) (VP (VBZ waves)))")
    n = normalize(t)
    assert not has_unary_chains(n)
    assert n.root.children[0].label == "NP+NP"


def test_normalize_all_traces_is_degenerate():
    t = parse_bracketed("(S (NP (-NONE- *)))")
    with pytest.raises(DegenerateSentenceError):
        normalize(t)


def test_split_trees_handles_multiline(tmp_path):
    p = tmp_path / "multi.mrg"
    p.write_text("(S (NN a))\n( (S (NN b))\n )\n")
    assert [tokens_of(e.tree)[0].word for e in load_corpus(str(p))] == ["a", "b"]
    p.write_text("(S (NN a)) x")
    with pytest.raises(TreebankFormatError, match=r"^stray text 'x' between trees \(offset 11\)$"):
        load_corpus(str(p))
    p.write_text("(S (NN a)")
    with pytest.raises(TreebankFormatError, match=r"^unbalanced '\(' \(offset 0\)$"):
        load_corpus(str(p))


def test_load_corpus_fixture(sample_path):
    entries = load_corpus(sample_path)
    assert len(entries) == 3
    assert entries[0].id == 0
    assert len(tokens_of(entries[0].tree)) == 6


def test_load_corpus_normalizes_raw_fixture(raw_path):
    entries = load_corpus(raw_path)
    assert len(entries) == 4
    for e in entries:
        assert not has_unary_chains(e.tree)
    # function tags gone
    assert entries[0].tree.root.children[0].label == "NP"
    # trace removal induced the collapsed chain
    labels = {n.label for n in _internals(entries[1].tree.root)}
    assert any("+" in lbl for lbl in labels)


def _internals(node):
    if hasattr(node, "children"):
        yield node
        for c in node.children:
            yield from _internals(c)


def test_load_corpus_strict_names_entry(tmp_path):
    p = tmp_path / "bad.mrg"
    p.write_text("(S (NN a))\n(S (NN b)\n")
    with pytest.raises(TreebankFormatError):
        load_corpus(str(p))


def test_load_corpus_strict_error_gives_file_offset(tmp_path):
    p = tmp_path / "bad.mrg"
    p.write_text("(S (NN a))\n(S (NN b c))\n")
    with pytest.raises(TreebankFormatError) as info:
        load_corpus(str(p))
    assert str(info.value) == "multiple tokens in one preterminal (entry 1) (offset 20)"
    # An error without a position inside the entry points at the entry.
    p.write_text("(S (NN a))\n(S+NP (NN b))\n")
    with pytest.raises(TreebankFormatError) as info:
        load_corpus(str(p))
    assert str(info.value) == (
        "label 'S+NP' contains the reserved separator (entry 1) (offset 11)"
    )


def test_iter_corpus_yields_each_entry_before_reading_the_next(tmp_path):
    p = tmp_path / "bad.mrg"
    # Entry 1 is cut after its last tag, which leaves an empty constituent.
    p.write_text("(S (NN a))\n(S (NN b) (VB))\n(S (NN c))\n")
    with pytest.raises(TreebankFormatError) as loaded:
        load_corpus(str(p))
    assert str(loaded.value) == "empty constituent (entry 1) (offset 21)"
    entries = iter_corpus(str(p))
    first = next(entries)
    assert (first.id, first.tree) == (0, parse_bracketed("(S (NN a))"))
    with pytest.raises(TreebankFormatError) as streamed:
        next(entries)
    assert (streamed.value.entry, streamed.value.offset) == (1, 21)
    assert str(streamed.value) == str(loaded.value)


def test_load_corpus_lenient_skips(tmp_path):
    p = tmp_path / "bad.mrg"
    p.write_text("(S (NN a))\n(S (NN b) ())\n(S (NN c))\n")
    entries = load_corpus(str(p), strict=False)
    assert len(entries) == 2
    assert [e.id for e in entries] == [0, 2]


def test_load_corpus_rejects_reserved_separator(tmp_path):
    p = tmp_path / "sep.mrg"
    p.write_text("(S+NP (NN a))\n")
    with pytest.raises(TreebankFormatError):
        load_corpus(str(p))


def test_empty_corpus(tmp_path):
    p = tmp_path / "empty.mrg"
    p.write_text("")
    assert load_corpus(str(p)) == []


def _holders(entries):
    """Each word, tag, label and token value in ``entries``, mapped to the
    ids of the objects that hold it. Collapsed chain labels are built per
    node, so they are left out."""
    holders = {}
    for entry in entries:
        for node in iter_nodes(entry.tree.root):
            if isinstance(node, Leaf):
                values = (node.token, node.token.word, node.token.pos)
            elif LABEL_SEPARATOR in node.label:
                continue
            else:
                values = (node.label,)
            for value in values:
                holders.setdefault(value, set()).add(id(value))
    return holders


def _assert_shared(entries):
    unshared = {value: len(ids) for value, ids in _holders(entries).items() if len(ids) > 1}
    assert unshared == {}


def test_load_shares_equal_values_normalized(raw_path):
    entries = load_corpus(raw_path)
    _assert_shared(entries)
    # NP-SBJ, NP-SBJ-1 and NP all strip to the one NP object.
    sbj, sbj_1 = entries[0].tree.root.children[0], entries[1].tree.root.children[0]
    plain = entries[0].tree.root.children[1].children[1]
    assert sbj.label == "NP" and sbj.label is sbj_1.label is plain.label
    the = [t for e in entries for t in tokens_of(e.tree) if t.word == "the"]
    assert len(the) == 3 and the[0] is the[1] is the[2]


def test_load_shares_equal_raw_values(raw_path):
    entries = load_corpus(raw_path, normalization=False)
    _assert_shared(entries)
    labels = [n.label for e in entries for n in iter_nodes(e.tree.root)
              if isinstance(n, Internal) and n.label == "NP-SBJ"]
    assert len(labels) == 2 and labels[0] is labels[1]


def test_load_shares_equal_values_after_a_skipped_entry(tmp_path, raw_path):
    p = tmp_path / "skip.mrg"
    with open(raw_path, encoding="utf-8") as fh:
        raw = fh.read()
    p.write_text("(NP (DT the) the)\n" + raw, encoding="utf-8")
    entries = load_corpus(str(p), strict=False)
    assert len(entries) == 4
    _assert_shared(entries)


def test_write_corpus_roundtrip(tmp_path, sample_corpus):
    p = tmp_path / "out.mrg"
    reference.write_corpus([e.tree for e in sample_corpus], str(p))
    back = load_corpus(str(p))
    assert len(back) == len(sample_corpus)
    for a, b in zip(sample_corpus, back):
        assert tree_equal(a.tree, b.tree)


# Any word, tag or label the writer can write, ``[^\s()]{1,6}``: no bracket
# and no character the reader's ``\s`` (``str.isspace``) matches. Drawn as
# text, which is many times faster than ``st.from_regex``.
_SPACES = "".join(filter(str.isspace, map(chr, range(sys.maxunicode + 1))))
ATOMS = st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="()" + _SPACES),
                min_size=1, max_size=6)
# The wrapper labels the reader unwraps at the root, a quarter of the time.
WRITTEN_LABELS = st.one_of(ATOMS, ATOMS, ATOMS, st.sampled_from(["TOP", "ROOT"]))


def _entry_root(root):
    """The root the reader returns for ``root``: one-child TOP and ROOT
    roots are unwrapped."""
    while isinstance(root, Internal) and root.label in ("TOP", "ROOT") and len(root.children) == 1:
        root = root.children[0]
    return root


@st.composite
def written_trees(draw, max_depth=4):
    """Trees of arbitrary atoms whose root the reader does not unwrap down
    to a leaf."""

    def node(depth):
        if depth and (depth == max_depth or draw(st.booleans())):
            return Leaf(Token(draw(ATOMS), draw(ATOMS)))
        kids = [node(depth + 1) for _ in range(draw(st.integers(1, 3)))]
        return Internal(draw(WRITTEN_LABELS), tuple(kids))

    return ConstituencyTree(node(0))


@settings(max_examples=100, deadline=None)
@given(st.lists(written_trees().filter(lambda t: isinstance(_entry_root(t.root), Internal)),
                min_size=1, max_size=4))
def test_write_load_roundtrip_on_arbitrary_atoms(tmp_path_factory, trees):
    path = str(tmp_path_factory.mktemp("roundtrip") / "out.mrg")
    reference.write_corpus(trees, path)
    back = [e.tree for e in iter_corpus(path, normalization=False, plain_labels=False)]
    assert len(back) == len(trees)
    for t, b in zip(trees, back):
        assert tree_equal(b, ConstituencyTree(_entry_root(t.root)))


def _deep_wrappers(depth):
    """Two entries: a ``depth``-deep TOP chain inside a sentence, and one
    above a sentence's root."""
    inner = "(S (T a) " + "(TOP " * depth + "(NP (T b))" + ")" * depth + ")"
    outer = "(TOP " * depth + "(S (T c) (T d))" + ")" * depth
    return inner + "\n" + outer + "\n"


@pytest.mark.parametrize("normalization", [True, False])
def test_load_corpus_resolves_deep_wrappers_without_recursion(tmp_path, normalization):
    depth = 3000  # three times CPython's default recursion limit
    p = tmp_path / "deep.mrg"
    p.write_text(_deep_wrappers(depth))
    entries = load_corpus(str(p), normalization=normalization)
    staged = reference.reference_load_corpus(str(p), normalization=normalization)
    assert len(entries) == len(staged) == 2
    assert all(tree_equal(a.tree, b.tree) for a, b in zip(entries, staged))
    inner, outer = (e.tree for e in entries)
    assert [tok.word for tok in tokens_of(inner)] == ["a", "b"]
    assert write_bracketed(outer) == "(S (T c) (T d))"
    chain = inner.root.children[1]
    if normalization:
        assert chain.label == "TOP+" * depth + "NP"
    else:
        tops = "(TOP " * depth + "(NP (T b))" + ")" * depth
        assert write_bracketed(inner) == f"(S (T a) {tops})"


@pytest.mark.parametrize(
    "argv, result",
    [
        (["verify", "{0}"], "RESULT ok=2 fail=0"),
        (["score", "{0}", "{0}"], "RESULT ok=2 fail=0"),
        (["stats", "{0}"], "RESULT ok=2 fail=0"),
        # Unnormalized, the chain inside the sentence is a unary chain.
        (["verify", "{0}", "--no-normalize"], "RESULT ok=1 fail=1"),
    ],
)
def test_deep_wrappers_through_the_cli(capsys, tmp_path, argv, result):
    p = tmp_path / "deep.mrg"
    p.write_text(_deep_wrappers(3000))
    code = main([arg.format(p) for arg in argv])
    out = capsys.readouterr()
    assert "internal error" not in out.err
    assert out.out.splitlines()[-1] == result
    assert code == (0 if result.endswith("fail=0") else 1)


def test_every_unicode_space_separates_tokens(tmp_path):
    # The reader's scan uses the regex class \s; str.isspace is the
    # definition of whitespace the reader keeps. Pin that they agree.
    every = "".join(map(chr, range(sys.maxunicode + 1)))
    spaces = [c for c in every if c.isspace()]
    assert re.findall(r"\s", every) == spaces
    assert len(spaces) == 29
    assert {"\x1c", "\x1f", "\x85", "\u00a0", "\u3000"} <= set(spaces)
    template = "(S{0}({0}NN{0}a{0}){0}(VP{0}(VB{0}b)))"
    expected = parse_bracketed(template.format(" "))
    p = tmp_path / "spaces.mrg"
    for c in spaces:
        text = template.format(c)
        assert parse_bracketed(text) == expected, repr(c)
        p.write_text(text + c + text, encoding="utf-8")
        assert [e.tree for e in load_corpus(str(p), normalization=False)] == [expected] * 2, repr(c)
        # Inside an atom, whitespace splits it in two.
        with pytest.raises(TreebankFormatError, match="multiple tokens"):
            parse_bracketed(f"(S (NN a{c}b))")


# A file is read in pieces of whole lines that end at bracket depth 0 or
# below. Each text puts a piece boundary, or a line end that must not be
# one, where a reader that split wrongly would read something else.
@pytest.mark.parametrize("text", [
    pytest.param("(S (NN\nword) (VB b))\n(S (NN c))\n", id="preterminal-split"),
    pytest.param("(\nNP (NN a))\n(\nS\n(NN\nb\n)\n)\n", id="label-on-next-line"),
    pytest.param("(S (NN a)) (S (NN b))\n(S (NN c)) (S (NN d))\n", id="two-entries-on-a-line"),
    pytest.param("(S (NN a)\n(VB b)) (S\n(NN c))\n(S (NN d))\n", id="closing-mid-line"),
    pytest.param("(S (NN a))\r\n(S\r\n(NN b) (VB c))\r\n(S (NN d e f))\r\n", id="crlf"),
    pytest.param("(S (NN a))\r(S\r(NN b))\r(S (NN d e f))\r", id="lone-cr"),
    pytest.param("(S (NN a))\n(S\n(NN b))", id="no-final-line-end"),
    pytest.param("(S (NN a))\n(S (NN a))) (NP\n(NN b))\n", id="below-depth-0"),
    pytest.param("(S (NN a))\n(S (NN b)) x\n(S (NN c))\n", id="stray-atom"),
    pytest.param("(S (NN a))\n(S (NN b)\n(VB c)\n", id="unclosed-last-entry"),
])
def test_reader_pieces_read_as_the_staged_reader(tmp_path, text):
    _same_reads(str(tmp_path / "pieces.mrg"), text)


@settings(max_examples=30, deadline=None)
@given(text=line_broken_treebanks())
def test_reader_matches_staged_reader_across_line_ends(tmp_path_factory, text):
    _same_reads(str(tmp_path_factory.getbasetemp() / "lines.mrg"), text)
