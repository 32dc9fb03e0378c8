"""Hypothesis strategies for bracketed treebank text: generated treebanks
and the same texts cut, or with brackets, atoms or whitespace inserted or
characters deleted, or with line ends inserted between tokens."""

import itertools

from hypothesis import strategies as st

# Every kind of label the reader treats apart: wrappers, function tags,
# coindexation, the chain separator and bracket-style atomic tags.
LABELS = ("S", "NP", "VP", "NP-SBJ", "NP-SBJ-1", "VP=2", "PP-LOC=3", "S+NP", "VP+PP", "-LRB-",
          "-X-", "TOP", "ROOT")
TAGS = ("DT", "NN", "-NONE-", "-NONE-", "-LRB-", "NN+X", "VB-Z")
WORDS = ("a", "b", "*T*-1", "x+y", "-LRB-", "0")
# Separators between tokens, some of them whitespace other than a space.
SEPARATORS = (" ", " ", " ", "", "", "\n", "\t", "  ", "\u00a0", "\x1c", "\u2028", "\x85")
INSERTS = ("(", ")", "x", "( )", "()", "(X", " ", "\u3000", "(NN a b)", "(-NONE- *)",
           "(S+NP", "y)", "(TOP", "\n(", "( (NN a) (NN b))")

preterminals = st.builds(lambda tag, word: ["(", tag, word, ")"],
                         st.sampled_from(TAGS), st.sampled_from(WORDS))


def _extend(children):
    return st.one_of(
        st.builds(lambda label, kids: ["(", label, *itertools.chain(*kids), ")"],
                  st.sampled_from(LABELS), st.lists(children, min_size=1, max_size=3)),
        # A label-less, TOP or ROOT wrapper, at any depth.
        st.builds(lambda label, kid: ["(", *label, *kid, ")"],
                  st.sampled_from(([], ["TOP"], ["ROOT"])), children),
    )


trees = st.recursive(preterminals, _extend, max_leaves=8)
# Entries are bare preterminals, roots that are leaves, a quarter of the time.
entries = st.one_of(_extend(trees), _extend(trees), _extend(trees), preterminals)


def _is_atom(token):
    return token not in "()"


@st.composite
def render(draw, tokens):
    """``tokens`` joined by random separators; two atoms keep one apart."""
    rnd = draw(st.randoms(use_true_random=False))
    out, prev = [], "("
    for tok in tokens:
        sep = rnd.choice(SEPARATORS)
        if not sep and _is_atom(prev) and _is_atom(tok):
            sep = " "
        out += [sep, tok]
        prev = tok
    return "".join(out + [rnd.choice(SEPARATORS)])


@st.composite
def treebanks(draw):
    tokens = [tok for tree in draw(st.lists(entries, max_size=4)) for tok in tree]
    return draw(render(tokens))


@st.composite
def mangled_treebanks(draw):
    text = draw(treebanks())
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(text)))
        op = draw(st.sampled_from(("cut", "insert", "insert", "delete")))
        if op == "cut":
            text = text[:i]
        elif op == "insert":
            text = text[:i] + draw(st.sampled_from(INSERTS)) + text[i:]
        else:
            text = text[:i] + text[i + 1:]
    return text


def _in_atom(text, i):
    """Whether position ``i`` of ``text`` falls between two characters of one atom."""
    return 0 < i < len(text) and all(not c.isspace() and c not in "()" for c in text[i - 1:i + 1])


@st.composite
def line_broken_treebanks(draw):
    """A generated treebank with line ends of each kind inserted at random
    places that are not inside an atom: between an open bracket and its
    label, inside a preterminal, between entries."""
    text = draw(treebanks())
    for i in sorted(draw(st.sets(st.integers(0, len(text)), max_size=8)), reverse=True):
        if not _in_atom(text, i):
            text = text[:i] + draw(st.sampled_from(("\n", "\n", "\r\n", "\r"))) + text[i:]
    return text
