"""The procedure ``EXPLO(N)`` of Section 2.

``EXPLO(N)`` lasts exactly ``T(EXPLO(N)) = 2 * L`` rounds, where ``L``
is the length of the exploration sequence for size ``N``:

* the *effective part* (first ``L`` rounds) follows the universal
  exploration sequence and visits every node of any graph of size at
  most ``N``;
* the *backtrack part* (last ``L`` rounds) retraces the traversed
  edges in reverse order, returning the agent to its starting node.

The generator below is written against :class:`~repro.sim.agent.
AgentContext` only — it steers by the observed degree and entry port,
never by node identity, exactly as the model allows.  Both halves are
emitted as *walk plans* (offset-rule steps for the effective part,
absolute entry ports for the backtrack): the plan is a pure function
of information the agent legitimately has, and the scheduler's segment
fast path merely executes it without a per-edge generator resume.
"""

from __future__ import annotations

from ..sim.agent import AgentContext, intern_plan, walk
from ..sim.ops import Watch
from .uxs import UXSProvider


class ExploStats:
    """Statistics of one EXPLO execution.

    ``min_curcard`` is the smallest ``CurCard`` observed during the
    execution — the quantity lines 17 and 24 of Algorithm 4
    (``Communicate``) read off.
    """

    __slots__ = ("min_curcard", "rounds")

    def __init__(self, min_curcard: int, rounds: int) -> None:
        self.min_curcard = min_curcard
        self.rounds = rounds


def explo(
    ctx: AgentContext,
    provider: UXSProvider,
    n: int,
    watch: Watch | None = None,
    limit: int | None = None,
):
    """Execute ``EXPLO(n)`` (optionally only its first ``limit`` rounds).

    A ``limit`` smaller than ``2 * L`` truncates the instruction stream
    mid-procedure (the agent may end away from its start); this is how
    ``TZ`` executes "for D_i consecutive rounds".

    Raises :class:`~repro.sim.agent.WatchTriggered` as soon as the
    watch fires on any arrival observation.
    """
    plan = provider.walk_plan(n)
    length = len(plan)
    total = 2 * length if limit is None else min(limit, 2 * length)
    min_card = ctx.curcard()
    effective = min(length, total)
    # Effective part: one precomputed UXS walk plan; the scheduler runs
    # every interaction-free stretch of it as a single event.  The
    # route cache keys chased routes by plan identity, so the full
    # plan goes as the provider's canonical tuple and a truncated one
    # is interned.
    if effective < length:
        plan = intern_plan(plan[:effective])
    forward = yield from walk(ctx, plan, watch)
    if forward.min_card is not None and forward.min_card < min_card:
        min_card = forward.min_card
    remaining = total - effective
    if remaining > 0:
        # Backtrack part: the recorded entry ports, absolute, reversed
        # — a plan memoized on the forward walk's route.
        back = yield from walk(ctx, forward.backtrack(remaining), watch)
        if back.min_card is not None and back.min_card < min_card:
            min_card = back.min_card
    return ExploStats(min_card, total)
