"""Circuit constructions: compiled tables, enumerator, boosted assembly."""

from .lm_compile import distinguisher_to_rnn, lm_to_rnn
from .enumerator import case1_sample_time, window_sample_time
from .boosted import (
    ConstructionReport,
    boosted_hidden_formula,
    boosted_simple_size_formula,
    boosted_size_formula,
    boosted_time_formula,
    build_boosted_rnn,
    build_boosted_rnn_simple,
)
