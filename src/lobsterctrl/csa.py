"""Staged leader-set assembly for lobsters (critical-set algorithm).

The run walks a fixed pipeline: collect twin pairs, collect quad patterns,
check controllability; if short, collect spine-run patterns and check again;
if still short, add every fallback vertex (an unloaded spine vertex next to
a loaded one, or one end of a bare path) and check once more, then prune:
fallback vertices are dropped again, latest first, wherever the set stays
controllable without them, found with `bisect` since controllability only
grows with the leader set.  Every check goes through one local
`controllable` routine, which asks about each leader set once per run, so
step 5 re-checks only a set that step 4 changed.  Leaders are chosen either
one-per-critical-set ("per-set", the literal pipeline) or as a minimum
hitting set over everything found so far ("hitting-set", the default, which
matches the minimal-leader counting).

A run that ends controllable reports status "found"; exhausting the
pipeline without controllability is the normal negative outcome
("cant_find"), not an error.  Found reports are certified by the exact
rational oracle whenever the follower block is small enough.
"""
from __future__ import annotations

import bisect
import json
import random
from dataclasses import dataclass

from .control import (
    controllable_certified,
    kalman_controllable_exact,
    minimum_hitting_set,
)
from .graph import AttachmentProfile, Graph, GraphError, attachment_profile, find_spine
from .mpcs import CriticalRecord, detect_quads, detect_spine_patterns, detect_twins

__all__ = [
    "CsaStep",
    "LeaderReport",
    "run_csa",
    "step6_fallback_vertices",
    "report_to_json",
]

EXACT_CERTIFY_FOLLOWER_CAP = 30


@dataclass(frozen=True, eq=False, slots=True)
class CsaStep:
    """One entry of the audit log: what was found and what was chosen."""

    step: int
    origin: str  # detector name, "hitting-set", "fallback", or "fallback-prune"
    subject: tuple[int, ...]  # the critical set, the fallback vertices, or the pruned ones
    chosen: tuple[int, ...]  # leaders selected at this entry


@dataclass(frozen=True, eq=False)
class LeaderReport:
    leaders: frozenset[int]
    steps: tuple[CsaStep, ...]
    status: str  # "found" | "cant_find"
    verdict_float: bool
    verdict_exact: bool | None
    mode: str
    seed: int | None
    n: int

    def sorted_leaders(self) -> list[int]:
        return sorted(self.leaders)


def step6_fallback_vertices(profile: AttachmentProfile) -> list[int]:
    """Unloaded spine vertices with a loaded spine neighbour, in spine order.

    Each one directly follows a loaded vertex in one of the two spine
    orientations.  When no spine vertex is loaded the lobster is a bare
    path, and its first end alone is returned: one end leader controls a
    path.
    """
    spine = profile.spine
    loaded = [profile.load(i) > 0 for i in range(len(spine))]
    if not any(loaded):
        return [spine[0]]
    return [v for i, v in enumerate(spine) if not loaded[i] and any(loaded[max(i - 1, 0) : i + 2])]


def run_csa(
    g: Graph,
    mode: str = "hitting-set",
    seed: int | None = None,
    enable_step6: bool = True,
    strict_step6: bool = False,
) -> LeaderReport:
    """Assemble and certify a leader set for a lobster.

    mode "per-set" takes one vertex from every critical set as it is found
    (lowest id, or seeded-uniform when a seed is given); mode "hitting-set"
    re-covers everything found so far with a minimum hitting set before each
    controllability check.

    Step 6 adds every fallback vertex in one "fallback" entry and checks the
    set once.  If it is controllable, the fallback vertices are dropped
    again, latest first, wherever the set stays controllable without them,
    and the dropped ones are logged in one "fallback-prune" entry.  Leaders
    chosen before step 6 are always kept, so the step-6 additions that
    remain are inclusion-minimal.  strict_step6 skips the prune.
    """
    if mode not in ("per-set", "hitting-set"):
        raise GraphError(f"unknown mode {mode!r}")
    profile = attachment_profile(g, find_spine(g))  # rejects non-lobsters
    rng = random.Random(seed) if seed is not None else None

    steps: list[CsaStep] = []
    catalog: list[CriticalRecord] = []
    leaders: set[int] = set()

    def choose(vertices: frozenset[int]) -> int:
        if rng is None:
            return min(vertices)
        return rng.choice(sorted(vertices))

    def record(step_id: int, found: list[CriticalRecord]) -> None:
        for rec in found:
            catalog.append(rec)
            if mode == "per-set":
                v = choose(rec.vertices)
                leaders.add(v)
                steps.append(CsaStep(step_id, rec.origin, tuple(rec.sorted_vertices()), (v,)))
            else:
                steps.append(CsaStep(step_id, rec.origin, tuple(rec.sorted_vertices()), ()))

    def cover(step_id: int) -> None:
        # Hitting-set mode re-assembles the leader set over the full catalog.
        if mode != "hitting-set" or not catalog:
            return
        hit = minimum_hitting_set([r.vertices for r in catalog], count_optimal=False)
        leaders.clear()
        leaders.update(hit.chosen)
        steps.append(CsaStep(step_id, "hitting-set", (), tuple(sorted(leaders))))

    verdicts: dict[frozenset[int], bool] = {}  # each leader set is asked about once

    def controllable(vertices) -> bool:
        # An empty set counts as uncontrollable; borderline float verdicts
        # escalate to the exact oracle inside controllable_certified.
        key = frozenset(vertices)
        if key not in verdicts:
            verdicts[key] = bool(key) and controllable_certified(g, key).controllable
        return verdicts[key]

    record(1, detect_twins(g))
    record(2, detect_quads(g))
    cover(3)
    found = controllable(leaders)
    if not found:
        record(4, detect_spine_patterns(g, profile))
        cover(5)
        found = controllable(leaders)
    fallback = step6_fallback_vertices(profile) if enable_step6 and not found else []
    if fallback:
        base = frozenset(leaders)
        leaders.update(fallback)
        steps.append(CsaStep(6, "fallback", tuple(fallback), tuple(fallback)))
        found = controllable(leaders)
    unpruned = len(leaders)
    if found and fallback and not strict_step6:
        # Drop fallback vertices, latest first, whenever the set stays
        # controllable without them; leaders chosen before step 6 are kept.
        # By monotonicity that greedy pass drops the longest run of
        # candidates whose joint removal keeps control, found by bisection,
        # then keeps the next one, so each kept vertex costs one bisection.
        candidates = [v for v in reversed(fallback) if v not in base]
        while candidates:
            drop = bisect.bisect_left(
                range(len(candidates)),
                True,
                key=lambda j: not controllable(leaders.difference(candidates[: j + 1])),
            )
            leaders.difference_update(candidates[:drop])
            candidates = candidates[drop + 1 :]  # candidates[drop] stays
        dropped = base.union(fallback).difference(leaders)
        steps.append(CsaStep(6, "fallback-prune", tuple(sorted(dropped)), ()))

    verdict_exact = None
    # The cap is judged on the set before pruning, so the prune never
    # withdraws an exact certificate the unpruned set would have received.
    if found and g.n - unpruned <= EXACT_CERTIFY_FOLLOWER_CAP:
        verdict_exact = kalman_controllable_exact(g, leaders).controllable
        if verdict_exact != found:
            raise RuntimeError(
                "float and exact controllability verdicts disagree on a found leader set"
            )
    return LeaderReport(
        leaders=frozenset(leaders),
        steps=tuple(steps),
        status="found" if found else "cant_find",
        verdict_float=found,
        verdict_exact=verdict_exact,
        mode=mode,
        seed=seed,
        n=g.n,
    )


def report_to_json(report: LeaderReport) -> str:
    """Full report including the step log, for scripted audits."""
    return json.dumps(
        {
            "status": report.status,
            "leaders": report.sorted_leaders(),
            "mode": report.mode,
            "seed": report.seed,
            "n": report.n,
            "verdict_float": report.verdict_float,
            "verdict_exact": report.verdict_exact,
            "steps": [
                {
                    "step": s.step,
                    "origin": s.origin,
                    "subject": list(s.subject),
                    "chosen": list(s.chosen),
                }
                for s in report.steps
            ],
        },
        indent=2,
    )
