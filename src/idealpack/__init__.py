"""Translation-invariant ideals on groups: packing indices, large/small set
evidence, Folner averaging stages, and catalog completion.

The package works over four concrete carriers (a Z window with shift margin,
Z_N, a finite group given by its Cayley table, and the rank-2 free group
truncated at a word-length radius).  Sets are immutable bitsets built from a
small expression language; every verdict is produced at explicit finite
scale and reported with the bounds that were actually searched.
"""

from .bitops import bits_from_positions, mask, positions_from_bits
from .completion import CompletionTrace, iterate_completion
from .config import RunConfig, load_config, parse_config
from .errors import (
    AvoidanceNotFound,
    BudgetError,
    BudgetExceeded,
    IdealpackError,
    InvalidParam,
    KindMismatch,
    LengthBudgetTooSmall,
    NotFoundAtScale,
    PreconditionFailed,
    RangeExceedsMargin,
    ScaleMismatch,
    SetSyntaxError,
    ShiftOutOfBudget,
    UnknownName,
)
from .folner import (
    DensityProfile,
    FolnerCertificate,
    FolnerMeasure,
    avoid_translate,
    counting_bound_check,
    folner_set,
    measure_build,
    upper_density,
)
from .freegroup import f2_partition, family_disjoint, parse_translators, shipped_b_family
from .groups import (
    CayleyGroup,
    FreeGroup2,
    Group,
    MaterializedSet,
    Window,
    ZModGroup,
    ZWindowGroup,
    load_cayley_table,
)
from .ideals import (
    DensityZeroIdeal,
    FiniteSetsIdeal,
    GeneratedIdeal,
    Ideal,
    StageIdeal,
    TrivialIdeal,
    make_ideal,
)
from .largesmall import (
    LargeBounds,
    LargenessWitness,
    SmallBounds,
    SmallnessEvidence,
    is_ideal_small,
    is_large,
)
from .packing import PackingReport, pack_exact, pack_greedy
from .setexpr import (
    Catalog,
    SetExpr,
    default_catalog,
    load_catalog,
    materialize,
    parse_set_expr,
    symbolic_finiteness,
)
from .words import ball_size, invert_word, mul_words, word_at_rank, word_rank

__all__ = [
    "AvoidanceNotFound",
    "BudgetError",
    "BudgetExceeded",
    "Catalog",
    "CayleyGroup",
    "CompletionTrace",
    "DensityProfile",
    "DensityZeroIdeal",
    "FiniteSetsIdeal",
    "FolnerCertificate",
    "FolnerMeasure",
    "FreeGroup2",
    "GeneratedIdeal",
    "Group",
    "Ideal",
    "IdealpackError",
    "InvalidParam",
    "KindMismatch",
    "LargeBounds",
    "LargenessWitness",
    "LengthBudgetTooSmall",
    "MaterializedSet",
    "NotFoundAtScale",
    "PackingReport",
    "PreconditionFailed",
    "RangeExceedsMargin",
    "RunConfig",
    "ScaleMismatch",
    "SetExpr",
    "SetSyntaxError",
    "ShiftOutOfBudget",
    "SmallBounds",
    "SmallnessEvidence",
    "StageIdeal",
    "TrivialIdeal",
    "UnknownName",
    "Window",
    "ZModGroup",
    "ZWindowGroup",
    "avoid_translate",
    "ball_size",
    "bits_from_positions",
    "counting_bound_check",
    "default_catalog",
    "f2_partition",
    "family_disjoint",
    "folner_set",
    "invert_word",
    "is_ideal_small",
    "is_large",
    "iterate_completion",
    "load_catalog",
    "load_cayley_table",
    "load_config",
    "make_ideal",
    "mask",
    "materialize",
    "measure_build",
    "mul_words",
    "pack_exact",
    "pack_greedy",
    "parse_config",
    "parse_set_expr",
    "positions_from_bits",
    "parse_translators",
    "shipped_b_family",
    "symbolic_finiteness",
    "upper_density",
    "word_at_rank",
    "word_rank",
]
