from ajparse.synth import generate_corpus
from ajparse.tree import has_unary_chains, iter_leaves, tree_equal
from ajparse.treebank import tokens_of


def test_generation_is_deterministic():
    a = generate_corpus(25, seed=42)
    b = generate_corpus(25, seed=42)
    assert all(tree_equal(x, y) for x, y in zip(a, b))
    c = generate_corpus(25, seed=43)
    assert any(not tree_equal(x, y) for x, y in zip(a, c))


def test_generated_trees_are_well_formed():
    for t in generate_corpus(100, seed=0):
        assert not has_unary_chains(t)
        assert len(tokens_of(t)) >= 2
        for l in iter_leaves(t.root):
            assert l.token.pos


def test_corpus_has_structural_variety():
    lengths = {len(tokens_of(t)) for t in generate_corpus(200, seed=1)}
    assert len(lengths) >= 5
