"""Self-boosting loss minimization: the two-algorithm loop at desk scale.

The abstract "minimize the loss under size constraints" oracle is
realized constructively: starting from the uniform model, repeatedly
find the family member with the largest advantage and apply the
certified boost, until no member clears epsilon or the round's size
budget is exhausted.  This is exactly the mechanism behind the self-boosting
guarantee, and the trace records the substitution explicitly.

Schedules follow the algorithm statements: sizes 17(d+k) i^2, hidden
12(d+k) i, time (8 k |Sigma|^k)^(i-1) tau, plus bit budgets and
conditional floors for the bounded-bit variant.  Round-count logs are
natural (KL bookkeeping in nats); bit-count logs are base 2, ceiled.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

import numpy as np

from .boosting import boost_text
from .dist import Alphabet, TextDistribution, kl, next_token_loss, text_to_lm, uniform_text
from .distinguishers import Distinguisher, flat, position_gaps
from .errors import PreconditionError
from .construct.boosted import (
    boosted_hidden_formula,
    boosted_size_formula,
    boosted_time_formula,
)

PLAIN, BITS = "plain", "bits"


@dataclass(frozen=True)
class Schedule:
    """Per-index hyperparameters of the loss-minimization loop."""

    variant: str
    d_bound: int
    k: int
    tau: int
    epsilon: float
    alphabet: Alphabet
    b_d: int = 0
    _times: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.variant not in (PLAIN, BITS):
            raise PreconditionError(f"unknown variant {self.variant!r}")
        if not 0 < self.epsilon < 1:
            raise PreconditionError(f"need epsilon in (0,1), got {self.epsilon}")
        if min(self.d_bound, self.k, self.tau) < 1:
            raise PreconditionError("d_bound, k, tau must be positive")

    def size(self, i: int) -> int:
        return 17 * (self.d_bound + self.k) * i * i

    def hidden(self, i: int) -> int:
        return 12 * (self.d_bound + self.k) * i

    def time(self, i: int) -> int:
        # built once per index: at the starting indices the loop samples,
        # the exact integer has hundreds of thousands of bits
        t = self._times.get(i)
        if t is None:
            t = (8 * self.k * self.alphabet.size**self.k) ** (i - 1) * self.tau
            self._times[i] = t
        return t

    def bits(self, i: int) -> int:
        if self.variant != BITS:
            raise PreconditionError("bit budgets exist only in the bits variant")
        s, k, eps = self.alphabet.size, self.k, self.epsilon
        return math.ceil(
            self.b_d
            + 3 * k * math.log2(s) * i * i
            + i * math.log2(self.tau)
            + 772 * (k * k / eps**2 * math.log2(s) + math.log2(1 / eps))
        )

    def floor(self, i: int) -> float:
        if self.variant != BITS:
            raise PreconditionError("floors exist only in the bits variant")
        return 0.99 / (self.alphabet.size * 4.0 ** (i - 1))

    @property
    def stop_threshold(self) -> float:
        div = 4.0 if self.variant == PLAIN else 8.0
        return self.epsilon**2 / (div * self.k)

    def j0_range(self) -> tuple[int, int]:
        """Integer sampling range for the starting index, [ceil, floor]."""
        scale = 4.0 if self.variant == PLAIN else 16.0
        lo = scale * self.k * math.log(self.alphabet.size) / self.epsilon**2
        hi = 11.0 * lo
        return math.ceil(lo), math.floor(hi)

    @property
    def round_bound(self) -> float:
        scale = 4.0 if self.variant == PLAIN else 16.0
        return scale * self.k * math.log(self.alphabet.size) / self.epsilon**2


def make_schedule(
    variant: str,
    d_bound: int,
    k: int,
    tau: int,
    epsilon: float,
    alphabet: Alphabet,
    b_d: int = 0,
) -> Schedule:
    return Schedule(variant, d_bound, k, tau, epsilon, alphabet, b_d)


def sample_j0(schedule: Schedule, rng: random.Random) -> int:
    lo, hi = schedule.j0_range()
    if hi < lo:
        raise PreconditionError(f"empty starting-index range [{lo}, {hi}]")
    return rng.randint(lo, hi)


def bad_set_bound(l1: float, epsilon: float) -> float:
    """Cap |B_eps| <= L(q1) / eps on the number of bad schedule indices."""
    if l1 < 0 or epsilon <= 0:
        raise PreconditionError("need L1 >= 0 and epsilon > 0")
    return l1 / epsilon


# ---------------------------------------------------------------------------
# the constructive minimizer


@dataclass(frozen=True)
class SizeState:
    """Size/hidden/time accounting of the model built so far."""

    size: int = 1
    hidden: int = 1
    time: int = 1

    def after_boost(self, schedule: Schedule) -> "SizeState":
        # distinguishers are budgeted at the declared bound d
        d = schedule.d_bound
        return SizeState(
            size=boosted_size_formula(self.size, self.hidden, d, d, schedule.k),
            hidden=boosted_hidden_formula(self.hidden, d, schedule.k),
            time=boosted_time_formula(
                schedule.alphabet.size,
                schedule.k,
                max(self.time, schedule.tau),
                schedule.tau,
            ),
        )

    def fits(self, schedule: Schedule, i: int) -> bool:
        return (
            self.size <= schedule.size(i)
            and self.hidden <= schedule.hidden(i)
            and self.time <= schedule.time(i)
        )


@dataclass
class BoostStep:
    member_index: int
    alpha: float
    offset: int
    kl_before: float
    kl_after: float
    state: SizeState


@dataclass
class MinimizeResult:
    model: TextDistribution
    state: SizeState
    steps: list[BoostStep]
    certified: bool  # family advantage <= epsilon at exit
    final_advantage: float
    exhausted: bool  # stopped because the next boost would not fit


def best_member(
    family: list[Distinguisher], p: TextDistribution, q: TextDistribution
) -> tuple[int, float]:
    """Index and signed advantage of the member with largest |advantage|.

    All members' flattened tables are stacked and multiplied once by the
    flattened gaps; ties go to the lowest index.
    """
    if not family:
        raise PreconditionError("empty distinguisher family")
    k = family[0].k
    if any(d.k != k or d.n != p.n for d in family):
        raise PreconditionError(f"family members must share k={k} and n={p.n}")
    gaps = flat(position_gaps(p, q, k))
    bits = np.stack([flat(d.tables(p.alphabet.size)) for d in family])
    values = bits @ gaps / p.n
    best = int(np.argmax(np.abs(values)))
    return best, float(values[best])


def minimize_loss_constrained(
    p: TextDistribution,
    schedule: Schedule,
    index: int,
    family: list[Distinguisher],
    start: TextDistribution | None = None,
    start_state: SizeState | None = None,
) -> MinimizeResult:
    """Boost against the best family member while budget and advantage allow.

    Budget exhaustion yields an explicit partial result, never a silent
    truncation.
    """
    if not family:
        raise PreconditionError("empty distinguisher family")
    q = start if start is not None else uniform_text(p.alphabet, p.n)
    state = start_state if start_state is not None else SizeState()
    eps = schedule.epsilon
    steps: list[BoostStep] = []
    while True:
        idx, val = best_member(family, p, q)
        if abs(val) <= eps:
            return MinimizeResult(q, state, steps, True, abs(val), False)
        nxt = state.after_boost(schedule)
        if not nxt.fits(schedule, index):
            return MinimizeResult(q, state, steps, False, abs(val), True)
        res = boost_text(p, q, family[idx])
        steps.append(
            BoostStep(
                member_index=idx,
                alpha=res.alpha,
                offset=res.offset,
                kl_before=res.kl_before,
                kl_after=res.kl_after,
                state=nxt,
            )
        )
        q = res.q_boosted
        state = nxt


# ---------------------------------------------------------------------------
# the outer loop


@dataclass
class RoundRecord:
    index: int
    budget_size: int
    budget_hidden: int
    budget_time: int
    loss: float
    kl: float
    boosts: int
    best_advantage: float
    certified: bool
    exhausted: bool
    compiled: bool = False


@dataclass
class SelfBoostTrace:
    variant: str
    j0: int
    epsilon: float
    k: int
    rounds: list[RoundRecord] = field(default_factory=list)
    termination: str = ""
    final_round_index: int = -1
    final_advantage: float = float("nan")

    @property
    def losses(self) -> list[float]:
        return [r.loss for r in self.rounds]


def run_algorithm(
    variant: str,
    p: TextDistribution,
    family: list[Distinguisher],
    epsilon: float,
    k: int,
    tau: int,
    d_bound: int,
    rng: random.Random,
    alphabet: Alphabet | None = None,
    b_d: int = 0,
    max_rounds: int | None = None,
    compile_hook=None,
) -> tuple[TextDistribution, SelfBoostTrace]:
    """Iterate schedule indices from j0 + 1 until the loss stops dropping.

    Returns the previous round's model once the decrease falls below
    eps^2/4k (eps^2/8k for the bits variant).  ``compile_hook``, when
    given, is called with (round_record, previous_model, boost_steps)
    after each round so circuit-level checks can piggyback.
    """
    alphabet = alphabet or p.alphabet
    schedule = make_schedule(variant, d_bound, k, tau, epsilon, alphabet, b_d)
    j0 = sample_j0(schedule, rng)
    trace = SelfBoostTrace(variant=variant, j0=j0, epsilon=epsilon, k=k)
    bound = schedule.round_bound + 1
    limit = max_rounds if max_rounds is not None else math.ceil(bound) + 2

    prev_model: TextDistribution | None = None
    prev_loss = float("inf")
    model = None
    state = None
    i = j0
    for r in range(limit):
        i += 1
        result = minimize_loss_constrained(
            p, schedule, i, family, start=model, start_state=state
        )
        model, state = result.model, result.state
        loss = next_token_loss(p, text_to_lm(model))
        rec = RoundRecord(
            index=i,
            budget_size=schedule.size(i),
            budget_hidden=schedule.hidden(i),
            budget_time=schedule.time(i),
            loss=loss,
            kl=kl(p, model),
            boosts=len(result.steps),
            best_advantage=result.final_advantage,
            certified=result.certified,
            exhausted=result.exhausted,
        )
        if compile_hook is not None:
            rec.compiled = bool(compile_hook(rec, prev_model, result.steps))
        trace.rounds.append(rec)
        if r >= 1 and prev_loss - loss < schedule.stop_threshold:
            trace.termination = "loss_plateau"
            trace.final_round_index = trace.rounds[-2].index
            trace.final_advantage = trace.rounds[-2].best_advantage
            return prev_model, trace
        prev_model, prev_loss = model, loss
    trace.termination = "round_limit"
    trace.final_round_index = trace.rounds[-1].index
    trace.final_advantage = trace.rounds[-1].best_advantage
    return model, trace


# ---------------------------------------------------------------------------
# empirical bad-set accounting


def reference_trajectory(
    p: TextDistribution, schedule: Schedule, family: list[Distinguisher]
) -> list[tuple[SizeState, float]]:
    """Unbudgeted boost sequence from uniform: states and losses.

    The scratch minimizer at any budget is a prefix of this sequence, so
    per-index losses follow by truncation.
    """
    q = uniform_text(p.alphabet, p.n)
    state = SizeState()
    out = [(state, next_token_loss(p, text_to_lm(q)))]
    while True:
        idx, val = best_member(family, p, q)
        if abs(val) <= schedule.epsilon:
            return out
        res = boost_text(p, q, family[idx])
        q = res.q_boosted
        state = state.after_boost(schedule)
        out.append((state, next_token_loss(p, text_to_lm(q))))


def scratch_loss_at(
    trajectory: list[tuple[SizeState, float]], schedule: Schedule, index: int
) -> tuple[float, bool]:
    """(min loss, certified?) of the scratch minimizer at one budget."""
    loss, certified = trajectory[0][1], len(trajectory) == 1
    for step, (state, l) in enumerate(trajectory):
        if state.fits(schedule, index):
            loss = l
            certified = step == len(trajectory) - 1
        else:
            break
    return loss, certified


def empirical_bad_set(
    trajectory: list[tuple[SizeState, float]],
    schedule: Schedule,
    indices: range,
) -> set[int]:
    """Indices whose scratch run is cut off before certification."""
    return {
        j
        for j in indices
        if not scratch_loss_at(trajectory, schedule, j)[1]
    }
