"""Strongly incremental constituency parsing toolkit.

Implements a transition system that builds a tree with exactly one action per
token (attach / juxtapose), its oracle, an equivalent in-order shift-reduce
view with an explicit bijection between the two state spaces, treebank I/O,
PARSEVAL scoring, and a linear-model action predictor with beam decoding.
"""

from .tree import (
    ConstituencyTree,
    EMPTY_TREE,
    Internal,
    Leaf,
    LabelFormatError,
    Token,
    collapse_unary_chains,
    has_unary_chains,
    rightmost_chain,
    tree_equal,
)
from .transition import (
    ATTACH,
    JUXTAPOSE,
    IllegalActionError,
    INITIAL_STATE,
    apply_action,
    apply_sequence,
    attach,
    format_actions,
    juxtapose,
    legal_actions,
)
from .oracle import oracle_action_sequence
from .isr import (
    EMPTY_STACK,
    IllegalStackError,
    REDUCE,
    SHIFT,
    gamma,
    is_legal_stack,
    isr_apply,
    phi,
    project,
    translate_action,
    translate_sequence,
    xi,
)
from .treebank import (
    CorpusEntry,
    DegenerateSentenceError,
    TreebankFormatError,
    iter_corpus,
    load_corpus,
    normalize,
    parse_bracketed,
    tokens_of,
    write_bracketed,
)
from .scoring import ScoreReport, extract_brackets, format_report, score
from .predictor import (
    ActionScorer,
    ModelFormatError,
    decode_beam,
    train,
)

__version__ = "0.1.0"

__all__ = [
    "ATTACH",
    "ActionScorer",
    "ConstituencyTree",
    "CorpusEntry",
    "DegenerateSentenceError",
    "EMPTY_STACK",
    "EMPTY_TREE",
    "INITIAL_STATE",
    "IllegalActionError",
    "IllegalStackError",
    "Internal",
    "JUXTAPOSE",
    "LabelFormatError",
    "Leaf",
    "ModelFormatError",
    "REDUCE",
    "SHIFT",
    "ScoreReport",
    "Token",
    "TreebankFormatError",
    "apply_action",
    "apply_sequence",
    "attach",
    "collapse_unary_chains",
    "decode_beam",
    "extract_brackets",
    "format_actions",
    "format_report",
    "gamma",
    "has_unary_chains",
    "is_legal_stack",
    "isr_apply",
    "iter_corpus",
    "juxtapose",
    "legal_actions",
    "load_corpus",
    "normalize",
    "oracle_action_sequence",
    "parse_bracketed",
    "phi",
    "project",
    "rightmost_chain",
    "score",
    "tokens_of",
    "train",
    "translate_action",
    "translate_sequence",
    "tree_equal",
    "write_bracketed",
    "xi",
]
