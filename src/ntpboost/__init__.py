"""Exact desk-scale laboratory for distinguisher-driven boosting.

Dense probability tables over small alphabets, next-k-token
distinguishers and their advantage, the analytic boosting operator with
its KL-descent certificate, compilation of boosted models into
recurrent circuit graphs with exact size accounting, fixed-point
execution with quantization-error envelopes, and the self-boosting
loss-minimization loop -- every guarantee checked against brute-force
oracles.
"""

from .dist import (
    Alphabet,
    DivergenceReport,
    LanguageModel,
    TextDistribution,
    block_conditional,
    divergence_report,
    entropy,
    kl,
    lm_to_text,
    next_token_loss,
    text_to_lm,
    tv,
    uniform_lm,
    uniform_text,
)
from .distinguishers import (
    AdvantageReport,
    Distinguisher,
    advantage,
    complement,
    max_advantage_oracle,
    offset_decomposition,
    pinsker_bound,
)
from .boosting import BoostResult, boost_text, boosted_next_token, normalization_Z
from .errors import NtpboostError

__version__ = "0.1.0"
