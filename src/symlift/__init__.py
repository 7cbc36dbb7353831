"""symlift: symmetric automorphisms of free products, reduction mod k,
kernel certificates and the tree complexes behind them."""

__version__ = "0.1.0"

from .words import (
    GroupContext,
    Word,
    WordError,
    free_context,
    torsion_context,
    parse_context,
    parse_word,
    format_word,
    normalize,
)
from .symaut import (
    GeneratorWord,
    SymmetricAut,
    NormalForm,
    parse_generator_word,
    eval_generator_word,
    outer_equal,
    semidirect_normal_form,
    check_relations,
)

__all__ = [
    "GroupContext",
    "Word",
    "WordError",
    "free_context",
    "torsion_context",
    "parse_context",
    "parse_word",
    "format_word",
    "normalize",
    "GeneratorWord",
    "SymmetricAut",
    "NormalForm",
    "parse_generator_word",
    "eval_generator_word",
    "outer_equal",
    "semidirect_normal_form",
    "check_relations",
]
