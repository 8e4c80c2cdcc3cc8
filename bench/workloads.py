"""The benchmark's workloads: inputs drawn from the seed, one timed call per
item, and checks of every output.

Each workload object is built from the imported lobsterctrl modules and the
run's seed.  ``setup`` draws the inputs that must exist before timing and
runs one untimed warm-up item, ``item(i)`` returns a zero-argument call for
item i (its input is built before the call is timed), and ``check`` returns
a list of problems found in the outputs (empty when all is well).
The program receives only the generated graphs and leader sets.
"""
from __future__ import annotations

import itertools
import random

import numpy as np

from checkers import (
    check_uncontrollable_witness,
    controllable_mod_p,
    laplacian_from_edges,
    twin_violations,
)


def _rng(*key) -> random.Random:
    """A generator keyed on a tuple; str seeds are hashed with sha512."""
    return random.Random(":".join(map(str, key)))


def _stratified(lo: int, hi: int, i: int, *key) -> int:
    """The i-th value of rounds that each visit lo..hi once in a seeded order.

    Every run then holds nearly the same mix of sizes, so its figures do not
    hang on how many large inputs the seed happened to draw.
    """
    order = list(range(lo, hi + 1))
    round_no, pos = divmod(i, len(order))
    _rng(*key, "round", round_no).shuffle(order)
    return order[pos]


# Relative eigenvalue gaps: below JOIN, neighbours chain into one cluster;
# a cluster spreading over more than EQUAL is not one repeated value.  The
# package groups at 1e-8 and checks residuals at 1e-9, inside this margin.
JOIN, EQUAL = 1e-7, 1e-10


def near_degenerate(values) -> bool:
    """Whether sorted eigenvalues hold a cluster that is close but not equal.

    Exact multiplicities (spread at rounding level) and well-separated
    values are not near-degenerate.
    """
    values = np.asarray(values, dtype=float)
    scale = np.maximum(1.0, np.abs(values))
    start = 0
    for k in range(1, len(values) + 1):
        if k == len(values) or values[k] - values[k - 1] > JOIN * scale[k]:
            if values[k - 1] - values[start] > EQUAL * scale[k - 1]:
                return True
            start = k
    return False


def _near_degenerate_graph(g) -> bool:
    """Whether g's Laplacian has a near-degenerate eigenvalue cluster.

    On such a graph ``spectral.eigen_decompose`` raises every time (see the
    FOUND line on it in CHANGES.md).  About one random lobster in 10 000 at
    these sizes is such, so ``sweep`` and ``large`` redraw them before
    timing; otherwise the share of failed items would depend on the seed.
    """
    return near_degenerate(np.linalg.eigvalsh(laplacian_from_edges(g.n, g.edges)))


def _relabel(g, rng: random.Random, graph_cls):
    """The graph under a random permutation of its vertex ids, and the map."""
    perm = list(range(1, g.n + 1))
    rng.shuffle(perm)
    relabel = dict(zip(range(1, g.n + 1), perm))
    edges = [(relabel[u], relabel[w]) for u, w in g.edges]
    return graph_cls.from_edges(g.n, edges), relabel


def _check_leader_set(pkg, g, leaders, controllable: bool, what: str, float_verdict=None) -> list[str]:
    """Problems with a leader set whose verdict the program reported.

    A positive verdict needs full Kalman rank modulo a prime and a set that
    respects the twin classes; a negative one needs a PBH witness, taken
    from the package's float route, that passes the independent eigenvector
    check.  ``float_verdict`` is that route's verdict when the caller wants
    it compared; negative verdicts always compute it for the witness.
    """
    edges = sorted(g.edges)
    if not leaders:
        # CSA can give up with no leaders at all (a bare path has no critical
        # set and no loaded spine vertex); an empty set leaves nothing to check.
        return [] if not controllable else [f"{what}: empty leader set called controllable"]
    if float_verdict is None and not controllable:
        float_verdict = pkg.control.pbh_controllable(g, sorted(leaders))
    problems = []
    if float_verdict is not None and float_verdict.controllable != controllable:
        problems.append(f"{what}: float verdict {float_verdict.controllable}, exact {controllable}")
    if controllable:
        if not controllable_mod_p(g.n, edges, leaders)[0]:
            problems.append(f"{what}: controllable verdict not confirmed by the modular rank")
        if twin_violations(g.n, edges, leaders):
            problems.append(f"{what}: controllable leader set misses two vertices of a twin class")
    elif float_verdict.witness is not None:
        witness = float_verdict.witness
        reason = check_uncontrollable_witness(g.n, edges, leaders, witness.value, witness.vector)
        if reason:
            problems.append(f"{what}: uncontrollable verdict with a bad witness: {reason}")
    return problems


class Sweep:
    """``experiments.run_sweep(..., ablate=True)`` over a miniature C09 grid."""

    SPINES = tuple(range(10, 101, 10))
    TRIALS = 2
    AUDIT_FRACTION = 0.05
    SLOPE_BAND = (0.1, 0.5)  # C09(b)
    PROPORTION_CAP = 0.25  # C09(c)

    def __init__(self, pkg, seed: int, seconds: float):
        self.pkg = pkg
        self.seed = seed
        self.trials_run = 0

    def _config(self, i: int, spines, trials: int):
        """The sweep of item i (0 is the warm-up), with its own base seed.

        The program derives trial seeds as base ^ n ^ trial, which only
        touches the low 7 bits for n <= 100 and trial < 128.  Bases that
        differ above bit 7 therefore never build the same lobster.  A base
        whose grid holds a near-degenerate lobster is redrawn (bits 24 up);
        the lobsters are built by run_sweep's own helpers.
        """
        exp, graph = self.pkg.experiments, self.pkg.graph
        for redraw in itertools.count():
            cfg = exp.SweepConfig(
                n_values=spines,
                trials=trials,
                base_seed=((self.seed << 32) + (redraw << 24) + i) << 7,
                audit_fraction=self.AUDIT_FRACTION,
                jobs=1,
            )
            lobsters = (
                graph.build_lobster(exp._spec_for(cfg, n, exp._trial_seed(cfg.base_seed, n, t)))
                for n in spines
                for t in range(trials)
            )
            if not any(map(_near_degenerate_graph, lobsters)):
                return cfg

    def setup(self) -> None:
        self.pkg.experiments.run_sweep(self._config(0, self.SPINES[:3], 1), ablate=True)

    def item(self, i: int):
        cfg = self._config(i + 1, self.SPINES, self.TRIALS)
        self.trials_run += len(self.SPINES) * self.TRIALS
        return lambda: self.pkg.experiments.run_sweep(cfg, ablate=True)

    def check(self, outputs) -> list[str]:
        problems = []
        leaders = {n: 0.0 for n in self.SPINES}
        proportions = {n: 0.0 for n in self.SPINES}
        found = {n: 0 for n in self.SPINES}
        for k, res in enumerate(outputs):
            if [r.n for r in res.rows] != list(self.SPINES):
                problems.append(f"item {k}: rows {[r.n for r in res.rows]}")
                continue
            for r in res.rows:
                if r.trials != self.TRIALS or r.step6_off_rate is None:
                    problems.append(f"item {k}, spine {r.n}: malformed row")
                elif r.success_rate < r.step6_off_rate:
                    problems.append(f"item {k}, spine {r.n}: step 6 lowered the success rate")
                if r.successes:
                    leaders[r.n] += r.mean_leaders * r.successes
                    proportions[r.n] += r.mean_proportion * r.successes
                    found[r.n] += r.successes
            if res.audited < 1 or res.audit_passes != res.audited:
                problems.append(f"item {k}: {res.audit_passes} of {res.audited} audited sets pass")
        fitted = [n for n in self.SPINES if found[n]]
        if len(fitted) < 2:
            return problems + ["fewer than two spine lengths with a found leader set"]
        means = {n: leaders[n] / found[n] for n in fitted}
        x_mean = sum(fitted) / len(fitted)
        y_mean = sum(means.values()) / len(fitted)
        slope = sum((n - x_mean) * (means[n] - y_mean) for n in fitted) / sum(
            (n - x_mean) ** 2 for n in fitted
        )
        if not self.SLOPE_BAND[0] <= slope <= self.SLOPE_BAND[1]:
            problems.append(f"pooled leader-count slope {slope:.4f} outside {self.SLOPE_BAND}")
        worst = max(proportions[n] / found[n] for n in fitted)
        if worst > self.PROPORTION_CAP:
            problems.append(f"pooled mean leader proportion {worst:.4f} above {self.PROPORTION_CAP}")
        return problems


class Large:
    """``csa.run_csa`` on a fresh random lobster with a long spine.

    Spine lengths run through SPINE in seeded rounds (see _stratified).
    A near-degenerate lobster is redrawn (see _near_degenerate_graph).
    """

    SPINE = (120, 160)

    def __init__(self, pkg, seed: int, seconds: float):
        self.pkg = pkg
        self.seed = seed

    def _lobster(self, key, spine: int):
        rng = _rng("large", self.seed, key)
        spec = self.pkg.graph.random_lobster(spine, rng.getrandbits(64))
        return self.pkg.graph.build_lobster(spec)

    def setup(self) -> None:
        # A small lobster: the warm-up only has to reach every code path.
        self.pkg.csa.run_csa(self._lobster("warmup", 30))

    def item(self, i: int):
        spine = _stratified(*self.SPINE, i, "large", self.seed)
        for redraw in itertools.count():
            g = self._lobster((i, redraw) if redraw else i, spine)
            if not _near_degenerate_graph(g):
                return lambda: (g, self.pkg.csa.run_csa(g))

    def check(self, outputs) -> list[str]:
        problems = []
        for k, (g, report) in enumerate(outputs):
            found = report.status == "found"
            if report.verdict_float != found:
                problems.append(f"item {k}: status {report.status} with float verdict {report.verdict_float}")
            if report.verdict_exact is not None and report.verdict_exact != report.verdict_float:
                problems.append(f"item {k}: float and exact verdicts disagree")
            problems += _check_leader_set(self.pkg, g, report.leaders, found, f"item {k}")
            if not found and twin_violations(g.n, sorted(g.edges), report.leaders):
                problems.append(f"item {k}: leader set misses two vertices of a twin class")
        return problems


class Minimality:
    """``csa.run_csa`` plus ``control.min_leader_bruteforce`` on small lobsters.

    Spine-6 lobsters with load at most 2 have 4**4 = 256 attachment
    patterns, each as likely under ``random_lobster``.  Rounds visit all of
    them in a seeded order (see _stratified), so every run covers the whole
    distribution; each item gets a fresh random relabelling, redrawn until
    no earlier item of the run has the same graph.
    """

    SPINE = 6
    MIN_EQUAL_SHARE = 0.98  # the paper's claim
    MIN_SHARE_BASE = 100  # lobsters; a 35-s run times about 770
    WARMUP_PATTERN = ((1,), (1, 1), (2,), (1,))  # a fixed, cheap warm-up

    def __init__(self, pkg, seed: int, seconds: float):
        self.pkg = pkg
        self.seed = seed
        self.seen: set = set()
        configs = [c for c in pkg.graph.BASE_CONFIGS if sum(c) <= 2]
        self.patterns = list(itertools.product(configs, repeat=self.SPINE - 2))

    def _graph(self, pattern, *key):
        graph = self.pkg.graph
        attach = [()] + list(pattern) + [()]
        g = graph.build_lobster(graph.LobsterSpec.make(self.SPINE, attach))
        rng = _rng("minimality", self.seed, "label", *key)
        while True:
            h, _ = _relabel(g, rng, graph.Graph)
            if h.edges not in self.seen:
                self.seen.add(h.edges)
                return h

    def setup(self) -> None:
        g = self._graph(self.WARMUP_PATTERN, "warmup")
        report = self.pkg.csa.run_csa(g)
        self.pkg.control.min_leader_bruteforce(g, len(report.leaders))

    def item(self, i: int):
        k = _stratified(0, len(self.patterns) - 1, i, "minimality", self.seed)
        g = self._graph(self.patterns[k], i)

        def run():
            report = self.pkg.csa.run_csa(g)
            return g, report, self.pkg.control.min_leader_bruteforce(g, len(report.leaders))

        return run

    def check(self, outputs) -> list[str]:
        problems = []
        equal = 0
        for k, (g, report, best) in enumerate(outputs):
            found = report.status == "found"
            size = len(report.leaders)
            what = f"item {k}"
            if found and (best.k_min is None or size < best.k_min):
                problems.append(f"{what}: CSA found {size} leaders, brute force k_min {best.k_min}")
            equal += found and best.k_min == size
            float_verdict = (
                self.pkg.control.pbh_controllable(g, sorted(report.leaders)) if report.leaders else None
            )
            problems += _check_leader_set(self.pkg, g, report.leaders, found, what, float_verdict)
            if best.k_min is not None and best.sets:
                if not controllable_mod_p(g.n, sorted(g.edges), best.sets[0])[0]:
                    problems.append(f"{what}: a brute-force minimum set is not controllable mod p")
        share = equal / len(outputs) if outputs else 0.0
        # Each round holds one lobster CSA cannot solve (see CHANGES.md), so
        # the share is judged only where one miss cannot decide it.
        if len(outputs) >= self.MIN_SHARE_BASE and share < self.MIN_EQUAL_SHARE:
            problems.append(f"CSA matched k_min on {equal} of {len(outputs)} lobsters")
        return problems


WORKLOADS = {w.__name__.lower(): w for w in (Sweep, Large, Minimality)}
