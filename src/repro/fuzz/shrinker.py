"""Delta-debugging shrinker for failing fuzz programs.

Given a program + initial memory and a predicate "still fails", the
shrinker greedily applies reduction passes until a fixpoint (or the
evaluation budget runs out), in the classic ddmin spirit but
specialized to the action-table representation:

1. **drop step chunks** — halves first, then single steps;
2. **neutralize processors** — replace a processor's action with the
   empty action (no reads, no writes) one at a time;
3. **drop reads** — remove read addresses one at a time;
4. **drop writes** — remove a processor's second write slot;
5. **simplify values** — zero initial-memory cells and constants.

Every candidate is validated before evaluation (dropping a processor's
writes can never break exclusivity, so candidates are valid by
construction — validation is a belt-and-braces guard), and the
predicate is re-checked on the *reduced* program, so the result is a
genuine minimal reproduction under the same adversary/lane.
"""

from __future__ import annotations

from typing import Callable, List, Sequence, Tuple

from repro.fuzz.generator import GeneratedProgram, ProcessorAction

#: Predicate: does (program, initial) still reproduce the failure?
FailurePredicate = Callable[[GeneratedProgram, List[int]], bool]


def _with_steps(
    program: GeneratedProgram,
    steps: Sequence[Tuple[ProcessorAction, ...]],
) -> GeneratedProgram:
    return GeneratedProgram(
        width=program.width,
        memory_size=program.memory_size,
        steps=tuple(steps),
        name=program.name.rstrip("~") + "~",
    )


def _is_valid(program: GeneratedProgram) -> bool:
    try:
        program.validate()
    except ValueError:
        return False
    return True


class _Budget:
    def __init__(self, limit: int) -> None:
        self.limit = limit
        self.spent = 0

    def take(self) -> bool:
        if self.spent >= self.limit:
            return False
        self.spent += 1
        return True


def _try(
    candidate: GeneratedProgram,
    initial: List[int],
    is_failing: FailurePredicate,
    budget: _Budget,
) -> bool:
    if not budget.take():
        return False
    return _is_valid(candidate) and is_failing(candidate, initial)


def _shrink_steps(
    program: GeneratedProgram,
    initial: List[int],
    is_failing: FailurePredicate,
    budget: _Budget,
) -> GeneratedProgram:
    """Remove contiguous chunks of steps, largest chunks first."""
    steps = list(program.steps)
    chunk = max(1, len(steps) // 2)
    while chunk >= 1:
        start = 0
        while start < len(steps) and len(steps) > 1:
            candidate_steps = steps[:start] + steps[start + chunk:]
            if not candidate_steps:
                start += 1
                continue
            candidate = _with_steps(program, candidate_steps)
            if _try(candidate, initial, is_failing, budget):
                steps = candidate_steps
            else:
                start += 1
        chunk //= 2
    return _with_steps(program, steps)


def _shrink_actions(
    program: GeneratedProgram,
    initial: List[int],
    is_failing: FailurePredicate,
    budget: _Budget,
) -> GeneratedProgram:
    """Neutralize whole actions, then drop individual reads/writes."""
    steps = [list(actions) for actions in program.steps]
    empty = ProcessorAction()
    for s, actions in enumerate(steps):
        for i, action in enumerate(actions):
            if action == empty:
                continue
            actions[i] = empty
            candidate = _with_steps(program, [tuple(a) for a in steps])
            if not _try(candidate, initial, is_failing, budget):
                actions[i] = action
    for s, actions in enumerate(steps):
        for i in range(len(actions)):
            action = actions[i]
            for k in range(len(action.reads) - 1, -1, -1):
                slimmer = ProcessorAction(
                    reads=action.reads[:k] + action.reads[k + 1:],
                    writes=action.writes,
                    op=action.op,
                    constant=action.constant,
                )
                actions[i] = slimmer
                candidate = _with_steps(program, [tuple(a) for a in steps])
                if _try(candidate, initial, is_failing, budget):
                    action = slimmer
                else:
                    actions[i] = action
            if len(action.writes) == 2:
                slimmer = ProcessorAction(
                    reads=action.reads,
                    writes=action.writes[:1],
                    op=action.op,
                    constant=action.constant,
                )
                actions[i] = slimmer
                candidate = _with_steps(program, [tuple(a) for a in steps])
                if not _try(candidate, initial, is_failing, budget):
                    actions[i] = action
    return _with_steps(program, [tuple(a) for a in steps])


def _shrink_values(
    program: GeneratedProgram,
    initial: List[int],
    is_failing: FailurePredicate,
    budget: _Budget,
) -> Tuple[GeneratedProgram, List[int]]:
    """Zero initial cells and action constants where the failure
    survives."""
    memory = list(initial)
    for address in range(len(memory)):
        if memory[address] == 0:
            continue
        saved, memory[address] = memory[address], 0
        if not _try(program, memory, is_failing, budget):
            memory[address] = saved
    steps = [list(actions) for actions in program.steps]
    for actions in steps:
        for i, action in enumerate(actions):
            if action.constant == 0:
                continue
            actions[i] = ProcessorAction(
                reads=action.reads, writes=action.writes,
                op=action.op, constant=0,
            )
            candidate = _with_steps(program, [tuple(a) for a in steps])
            if not _try(candidate, memory, is_failing, budget):
                actions[i] = action
    return _with_steps(program, [tuple(a) for a in steps]), memory


def shrink(
    program: GeneratedProgram,
    initial: Sequence[int],
    is_failing: FailurePredicate,
    max_evaluations: int = 250,
    max_rounds: int = 8,
) -> Tuple[GeneratedProgram, List[int]]:
    """Reduce ``(program, initial)`` while ``is_failing`` holds.

    The inputs themselves must satisfy ``is_failing`` (raises
    ``ValueError`` otherwise — a shrinker running on a non-failure
    would "minimize" to noise).  Returns the reduced pair; the original
    is never mutated.
    """
    initial = list(initial)
    if not is_failing(program, initial):
        raise ValueError(
            "shrink() needs a failing input: the predicate rejected the "
            "starting program"
        )
    budget = _Budget(max_evaluations)
    for _round in range(max_rounds):
        before = (program.to_json(), list(initial))
        program = _shrink_steps(program, initial, is_failing, budget)
        program = _shrink_actions(program, initial, is_failing, budget)
        program, initial = _shrink_values(
            program, initial, is_failing, budget
        )
        if (program.to_json(), list(initial)) == before:
            break
        if budget.spent >= budget.limit:
            break
    return program, initial
