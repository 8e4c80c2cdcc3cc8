import itertools
import json
import random
import sys

import pytest

import lobsterctrl.control
import lobsterctrl.csa
from lobsterctrl.control import (
    controllable_certified,
    kalman_controllable_exact,
    min_leader_bruteforce,
)
from lobsterctrl.csa import report_to_json, run_csa, step6_fallback_vertices
from lobsterctrl.graph import (
    BASE_CONFIGS,
    Graph,
    GraphError,
    LobsterSpec,
    attachment_profile,
    build_lobster,
    find_spine,
    random_lobster,
)
from lobsterctrl.mpcs import enumerate_mpcs_bruteforce

from .conftest import path_graph


class TestRunCsaBenchmark:
    def test_three_leaders(self, fig_graph):
        report = run_csa(fig_graph)
        assert report.status == "found"
        leaders = report.leaders
        assert len(leaders) == 3
        assert len(leaders & {1, 3}) == 1
        assert len(leaders & {5, 6, 7}) == 2
        assert report.verdict_float and report.verdict_exact

    def test_per_set_mode(self, fig_graph):
        report = run_csa(fig_graph, mode="per-set")
        assert report.status == "found"
        assert report.leaders == frozenset({1, 5, 6})  # lowest-id choices

    def test_leader_count_matches_bruteforce(self, fig_graph):
        assert len(run_csa(fig_graph).leaders) == min_leader_bruteforce(fig_graph, 4).k_min


class TestRunCsaPaths:
    def test_bare_path_found_by_one_end(self):
        # no detector fires on a bare path, so step 6 falls back to one end,
        # which alone controls a path
        p10 = path_graph(10)
        report = run_csa(p10)
        assert report.status == "found"
        assert report.leaders == frozenset({1})
        assert report.verdict_float and report.verdict_exact is True
        assert len(report.leaders) == min_leader_bruteforce(p10, 1).k_min

    def test_p5_found_via_quad(self, p5):
        report = run_csa(p5)
        assert report.status == "found"
        assert len(report.leaders) == 1
        assert min_leader_bruteforce(p5, 2).k_min == 1


class TestDeterminism:
    def test_identical_reports(self):
        g = build_lobster(random_lobster(12, seed=88))
        a = report_to_json(run_csa(g, mode="hitting-set", seed=4))
        b = report_to_json(run_csa(g, mode="hitting-set", seed=4))
        assert a == b

    def test_seed_changes_per_set_choices(self):
        g = build_lobster(LobsterSpec.make(4, [(), (1, 1), (1, 1), ()]))
        default = run_csa(g, mode="per-set").leaders
        seeded = {frozenset(run_csa(g, mode="per-set", seed=s).leaders) for s in range(8)}
        assert frozenset(default) in seeded or len(seeded) > 1


class TestStepSix:
    def test_fallback_vertices_both_orientations(self):
        g = build_lobster(LobsterSpec.make(5, [(), (1,), (), (), ()]))
        assert step6_fallback_vertices(attachment_profile(g, find_spine(g))) == [1, 3]

    def test_fully_loaded_interior_leaves_only_ends(self):
        # ends of a longest path are leaves and can never carry attachments,
        # so a maximally loaded lobster still exposes exactly the two ends
        g = build_lobster(LobsterSpec.make(6, [(), (1,), (1,), (1,), (1,), ()]))
        spine = find_spine(g)
        assert step6_fallback_vertices(attachment_profile(g, spine)) == [spine[0], spine[-1]]

    def test_bare_path_falls_back_to_first_end(self, p5):
        assert step6_fallback_vertices(attachment_profile(p5, [1, 2, 3, 4, 5])) == [1]

    def test_ablation_only_weakens(self):
        rng = random.Random(5)
        for _ in range(15):
            g = build_lobster(random_lobster(rng.randint(6, 14), seed=rng.randrange(10**6)))
            on = run_csa(g).status == "found"
            off = run_csa(g, enable_step6=False).status == "found"
            assert on or not off  # off success implies on success

    def test_strict_mode_adds_all_at_once(self):
        # this lobster reaches step 6 with several fallback vertices
        g = build_lobster(random_lobster(20, seed=1))
        strict = run_csa(g, strict_step6=True)
        pruned = run_csa(g)
        strict_six = [s for s in strict.steps if s.step == 6]
        added = [s for s in pruned.steps if s.origin == "fallback"]
        assert len(strict_six) == 1 and len(strict_six[0].chosen) > 1
        assert [(s.subject, s.chosen) for s in added] == [
            (strict_six[0].subject, strict_six[0].chosen)
        ]
        assert strict.status == pruned.status == "found"
        assert pruned.leaders < strict.leaders


class TestFallbackPrune:
    @staticmethod
    def _step6(report):
        """Leaders before step 6, fallback additions, and pruned vertices, read off the log."""
        before: set[int] = set()
        added: set[int] = set()
        pruned: set[int] = set()
        for s in report.steps:
            if s.origin == "hitting-set":
                before = set(s.chosen)
            elif s.origin == "fallback":
                added.update(s.chosen)
            elif s.origin == "fallback-prune":
                pruned.update(s.subject)
        return before, added, pruned

    def test_kept_walk_vertices_are_each_needed(self):
        rng = random.Random(21)
        checked = 0
        for _ in range(60):
            g = build_lobster(random_lobster(rng.randint(6, 30), seed=rng.randrange(10**6)))
            report = run_csa(g)
            if report.status != "found" or not any(s.step == 6 for s in report.steps):
                continue
            before, added, pruned = self._step6(report)
            assert report.leaders == frozenset((before | added) - pruned)
            assert not pruned & before
            for v in (added - before) & report.leaders:
                rest = report.leaders - {v}  # an empty set counts as uncontrollable
                assert not rest or not kalman_controllable_exact(g, rest).controllable, v
            checked += 1
        assert checked >= 10

    def test_spine_ten_sets_are_minimum(self):
        # brute force stays cheap on the smaller spine-10 lobsters
        rng = random.Random(10)
        checked = 0
        while checked < 3:
            g = build_lobster(random_lobster(10, seed=rng.randrange(10**6)))
            if g.n > 17:
                continue
            report = run_csa(g)
            if report.status != "found" or not any(s.step == 6 for s in report.steps):
                continue
            assert len(report.leaders) == min_leader_bruteforce(g, len(report.leaders)).k_min
            checked += 1


class TestOnePassMatchesWalk:
    """Step 6 in one pass leaves the leaders of the earlier two-stage step 6:
    a walk to the first controllable prefix of the fallback list, then the
    latest-first prune of the walk's vertices."""

    @staticmethod
    def walk(g, mode, strict):
        def ok(vertices):
            return bool(vertices) and controllable_certified(g, vertices).controllable

        before = set(run_csa(g, mode=mode, enable_step6=False).leaders)
        if ok(before):
            return "found", before, before
        fallback = step6_fallback_vertices(attachment_profile(g, find_spine(g)))
        if strict:
            leaders = before.union(fallback)
            return ("found" if ok(leaders) else "cant_find"), leaders, before
        k = next((k for k in range(1, len(fallback) + 1) if ok(before.union(fallback[:k]))), None)
        if k is None:
            return "cant_find", before.union(fallback), before
        leaders = before.union(fallback[:k])
        for v in reversed(fallback[: k - 1]):
            if v not in before and ok(leaders - {v}):
                leaders.discard(v)
        return "found", leaders, before

    @staticmethod
    def lobsters():
        configs = [c for c in BASE_CONFIGS if sum(c) <= 2]
        patterns = list(itertools.product(configs, repeat=4))[::8]
        for pattern in patterns:
            yield build_lobster(LobsterSpec.make(6, [()] + list(pattern) + [()]))
        rng = random.Random(26)
        for i in range(30):
            spec = random_lobster(rng.randint(6, 40), rng.randrange(10**6), max_load=2 + 2 * (i % 2))
            yield build_lobster(spec)

    def test_same_leaders_and_status(self):
        step6_runs = 0
        for g in self.lobsters():
            for mode, strict in itertools.product(("hitting-set", "per-set"), (False, True)):
                report = run_csa(g, mode=mode, strict_step6=strict)
                status, leaders, before = self.walk(g, mode, strict)
                assert (report.status, report.leaders) == (status, leaders), (mode, strict, g)
                added = [s for s in report.steps if s.origin == "fallback"]
                if not added:
                    continue
                step6_runs += 1
                pruned = [s.subject for s in report.steps if s.origin == "fallback-prune"]
                assert len(added) == 1 and len(pruned) == (0 if strict else report.status == "found")
                assert report.leaders == before.union(added[0].chosen).difference(*pruned)
        assert step6_runs >= 40


class TestChecksAskedOnce:
    def test_no_leader_set_is_checked_twice(self, monkeypatch):
        original = lobsterctrl.control.controllable_certified
        calls: list[frozenset[int]] = []

        def counting(g, leaders):
            calls.append(frozenset(leaders))
            return original(g, leaders)

        # Patch every package namespace that holds the function, so no
        # check can bypass the count.
        for name, module in list(sys.modules.items()):
            if name.startswith("lobsterctrl") and getattr(
                module, "controllable_certified", None
            ) is original:
                monkeypatch.setattr(module, "controllable_certified", counting)
        fallback = lobsterctrl.csa.step6_fallback_vertices
        checks_before_step6: list[int] = []

        def marking(*args):
            checks_before_step6.append(len(calls))
            return fallback(*args)

        monkeypatch.setattr(lobsterctrl.csa, "step6_fallback_vertices", marking)
        rng = random.Random(16)
        no_spine_run = 0
        for _ in range(30):
            g = build_lobster(random_lobster(rng.randint(10, 160), seed=rng.randrange(10**6)))
            for mode in ("hitting-set", "per-set"):
                calls.clear()
                checks_before_step6.clear()
                report = run_csa(g, mode=mode)
                assert len(calls) == len(set(calls)), (mode, sorted(g.edges))
                early = [s.step for s in report.steps if s.step < 6]
                if checks_before_step6 and early and 4 not in early:
                    # steps 1-2 chose leaders, step 3 rejected them and step 4
                    # found no spine run: step 5 must not ask again
                    assert checks_before_step6 == [1], (mode, sorted(g.edges))
                    no_spine_run += 1
        assert no_spine_run >= 5


class TestReportContracts:
    def test_hitting_property(self):
        rng = random.Random(6)
        for _ in range(10):
            g = build_lobster(random_lobster(rng.randint(5, 12), seed=rng.randrange(10**6)))
            report = run_csa(g)
            if report.status != "found":
                continue
            for step in report.steps:
                if step.origin in ("twin", "quad", "spine8", "spine4n"):
                    assert report.leaders & set(step.subject), step

    def test_found_reports_pass_exact_oracle(self):
        rng = random.Random(8)
        for _ in range(10):
            g = build_lobster(random_lobster(rng.randint(5, 10), seed=rng.randrange(10**6)))
            report = run_csa(g)
            if report.status == "found":
                assert kalman_controllable_exact(g, report.leaders).controllable

    def test_size_quality_when_detectors_complete(self):
        rng = random.Random(14)
        checked = 0
        for _ in range(30):
            g = build_lobster(random_lobster(rng.randint(4, 7), seed=rng.randrange(10**6)))
            if g.n > 14:
                continue
            report = run_csa(g)
            if report.status != "found":
                continue
            detected = {
                frozenset(s.subject)
                for s in report.steps
                if s.origin in ("twin", "quad", "spine8", "spine4n")
            }
            if detected != enumerate_mpcs_bruteforce(g).vertex_sets():
                continue  # detectors incomplete on this fixture
            checked += 1
            assert len(report.leaders) == min_leader_bruteforce(g, g.n).k_min
        assert checked >= 5

    def test_json_round_trip_fields(self, fig_graph):
        payload = json.loads(report_to_json(run_csa(fig_graph)))
        assert payload["status"] == "found"
        assert payload["n"] == 7
        assert sorted(payload["leaders"]) == payload["leaders"]
        assert all({"step", "origin", "subject", "chosen"} == set(s) for s in payload["steps"])

    def test_rejects_non_tree(self):
        cycle = Graph.from_edges(4, [(1, 2), (2, 3), (3, 4), (1, 4)])
        with pytest.raises(GraphError):
            run_csa(cycle)

    def test_rejects_non_lobster_tree(self):
        spider = Graph.from_edges(
            10,
            [(1, 2), (2, 3), (3, 4), (1, 5), (5, 6), (6, 7), (1, 8), (8, 9), (9, 10)],
        )
        with pytest.raises(GraphError, match="lobster"):
            run_csa(spider)

    def test_rejects_unknown_mode(self, fig_graph):
        with pytest.raises(GraphError, match="mode"):
            run_csa(fig_graph, mode="greedy")
