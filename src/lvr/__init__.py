"""Lossless vocabulary reduction toolkit.

Convert an autoregressive language model over a vocabulary into an exactly
equivalent model over any sub-vocabulary, build maximal common vocabularies
across BPE tokenizers, ensemble the reduced models, and certify everything
against a brute-force text-distribution oracle.
"""

from .errors import (
    BudgetExceededError,
    EnsembleError,
    FileFormatError,
    LvrError,
    ModelError,
    ReductionError,
    TokenizationError,
    ZeroProductError,
)
from .tokenization import (
    Alphabet,
    BpeTokenizer,
    DeterministicTokenizer,
    GreedyTokenizer,
    NestedTokenizer,
    Vocabulary,
    byte_vocabulary,
)
from .model import LanguageModel, NgramModel, TableModel, train_ngram
from .reduction import (
    DEFAULT_TOP_K,
    CoverEntry,
    ReductionSession,
    RelativeCover,
    Step,
    SubTokenDistribution,
    decode,
    naive_restriction_dist,
)
from .mcv import McvResult, build_mcv, intersect_vocabs, restrict_merges
from .ensemble import (
    EnsembleSpec,
    ensemble_generate,
    moe_combine,
    poe_combine,
    union_baseline_dist,
    union_vocab,
)
from .oracle import (
    PrefixProbReport,
    lossless_check,
    minimal_cover,
    reduced_text_prefix_prob,
    text_prefix_prob,
    text_prefix_prob_exhaustive,
)

__version__ = "0.1.0"
