"""Strongly incremental constituency parsing toolkit.

Implements a transition system that builds a tree with exactly one action per
token (attach / juxtapose), its oracle, an equivalent in-order shift-reduce
view with an explicit bijection between the two state spaces, treebank I/O,
PARSEVAL scoring, and a linear-model action predictor with beam decoding.
"""

from types import ModuleType as _ModuleType

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

# Every name imported above; not the submodules those imports bind.
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, _ModuleType))
