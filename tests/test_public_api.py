"""The package's public surface is this exact set of names, so removing or
adding one is a deliberate edit here."""

import ajparse

PUBLIC = {
    "ATTACH", "ActionScorer", "ConstituencyTree", "CorpusEntry",
    "DegenerateSentenceError", "EMPTY_STACK", "EMPTY_TREE", "INITIAL_STATE",
    "IllegalActionError", "IllegalStackError", "Internal", "JUXTAPOSE",
    "LabelFormatError", "Leaf", "ModelFormatError", "REDUCE", "SHIFT",
    "ScoreReport", "Token", "TreebankFormatError", "apply_action",
    "apply_sequence", "attach", "collapse_unary_chains", "decode_beam",
    "extract_brackets", "format_actions", "format_report", "gamma",
    "has_unary_chains", "is_legal_stack", "isr_apply", "iter_corpus",
    "juxtapose", "legal_actions", "load_corpus", "normalize",
    "oracle_action_sequence", "parse_bracketed", "phi", "project",
    "rightmost_chain", "score", "tokens_of", "train", "translate_action",
    "translate_sequence", "tree_equal", "write_bracketed", "xi",
}


def test_public_names_are_pinned():
    assert len(ajparse.__all__) == len(set(ajparse.__all__))
    assert set(ajparse.__all__) == PUBLIC
    for name in PUBLIC:
        getattr(ajparse, name)
