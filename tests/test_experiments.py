import functools
import math
import os
import pathlib
import random
import subprocess
import sys

import pytest

import lobsterctrl.csa
import lobsterctrl.experiments
import lobsterctrl.spectral
from lobsterctrl.control import kalman_controllable_exact
from lobsterctrl.csa import run_csa
from lobsterctrl.experiments import (
    SweepConfig,
    _found_without_step6,
    read_csv,
    run_success_probability,
    run_sweep,
    write_csv,
    write_svg,
)
from lobsterctrl.graph import GraphError, LobsterSpec, build_lobster, random_lobster
from lobsterctrl.mpcs import graph_decomposition


def tiny_cfg(**overrides) -> SweepConfig:
    base = dict(
        n_values=(6, 8), trials=3, base_seed=1, audit_fraction=0.0, jobs=1
    )
    base.update(overrides)
    return SweepConfig(**base)


class TestSweepBasics:
    def test_single_trial_rate_is_zero_or_one(self):
        res = run_sweep(tiny_cfg(trials=1))
        for row in res.rows:
            assert row.success_rate in (0.0, 1.0)

    def test_reproducible(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_csv(run_success_probability(tiny_cfg()), str(a))
        write_csv(run_success_probability(tiny_cfg()), str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_jobs_do_not_change_results(self, tmp_path):
        serial, parallel = tmp_path / "s.csv", tmp_path / "p.csv"
        write_csv(run_sweep(tiny_cfg(jobs=1)), str(serial))
        write_csv(run_sweep(tiny_cfg(jobs=2)), str(parallel))
        assert serial.read_bytes() == parallel.read_bytes()

    def test_import_leaves_process_pool_unloaded(self):
        # Only jobs > 1 needs the pool, so importing the package must not
        # pull in concurrent.futures.process and multiprocessing.
        src = pathlib.Path(__file__).resolve().parent.parent / "src"
        code = "import sys, lobsterctrl; assert 'concurrent.futures.process' not in sys.modules"
        proc = subprocess.run(
            [sys.executable, "-c", code],
            env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr

    def test_mean_total_at_least_spine(self):
        res = run_sweep(tiny_cfg(trials=5))
        for row in res.rows:
            assert row.mean_total >= row.n

    def test_ablation_rates_ordered(self):
        res = run_success_probability(tiny_cfg(n_values=(8, 12), trials=5))
        for row in res.rows:
            assert row.step6_off_rate is not None
            assert row.success_rate >= row.step6_off_rate

    def test_audit_counts_successes(self):
        res = run_sweep(tiny_cfg(trials=4, audit_fraction=0.5))
        assert res.audited >= 1
        assert res.audit_passes == res.audited

    def test_rejects_zero_trials(self):
        with pytest.raises(GraphError):
            tiny_cfg(trials=0)

    def test_sweep_entry_points_share_engine(self):
        plain = run_sweep(tiny_cfg())
        ablated = run_success_probability(tiny_cfg())
        assert [r.n for r in plain.rows] == [r.n for r in ablated.rows]
        assert [(r.successes, r.mean_total) for r in plain.rows] == [
            (r.successes, r.mean_total) for r in ablated.rows
        ]
        assert all(r.step6_off_rate is None for r in plain.rows)
        assert all(r.step6_off_rate is not None for r in ablated.rows)

    def test_zero_success_rows_flagged_and_off_fit(self, monkeypatch):
        # without step 6 bare paths always end cant_find, so every n lands
        # in the flag list
        monkeypatch.setattr(
            lobsterctrl.experiments, "run_csa", functools.partial(run_csa, enable_step6=False)
        )
        res = run_sweep(tiny_cfg(force_config=()))
        assert res.flagged_ns == (6, 8)
        assert math.isnan(res.fit_slope)
        for row in res.rows:
            assert row.successes == 0 and math.isnan(row.mean_leaders)


class TestOneRunPerTrial:
    def test_ablated_audited_sweep_runs_csa_and_decomposes_once_per_trial(self, monkeypatch):
        calls = {"run_csa": 0, "eigen_decompose": 0}

        def counting(name, original):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            return wrapper

        # Patch every package namespace that holds each function.
        for home, name in ((lobsterctrl.csa, "run_csa"), (lobsterctrl.spectral, "eigen_decompose")):
            original = getattr(home, name)
            wrapper = counting(name, original)
            for mod_name, module in list(sys.modules.items()):
                if mod_name.startswith("lobsterctrl") and getattr(module, name, None) is original:
                    monkeypatch.setattr(module, name, wrapper)
        graph_decomposition.cache_clear()
        cfg = tiny_cfg(n_values=(10, 20, 30), trials=4, audit_fraction=1.0)
        res = run_sweep(cfg, ablate=True)
        trials = len(cfg.n_values) * cfg.trials
        assert res.audited == sum(r.successes for r in res.rows) > 0
        assert calls == {"run_csa": trials, "eigen_decompose": trials}

    def test_derived_step6_off_verdict_matches_a_run_without_step6(self):
        rng = random.Random(8)
        cases = [(rng.randint(6, 100), rng.randrange(10**6)) for _ in range(58)]
        graphs = [build_lobster(random_lobster(spine, seed)) for spine, seed in cases]
        graphs += [build_lobster(LobsterSpec.make(n, [()] * n)) for n in (6, 12)]  # bare paths
        reached_step6 = 0
        for i, g in enumerate(graphs):
            mode = ("hitting-set", "per-set")[i % 2]
            report = run_csa(g, mode=mode)
            reached_step6 += any(s.step == 6 for s in report.steps)
            off = run_csa(g, mode=mode, enable_step6=False)
            assert _found_without_step6(report) == (off.status == "found")
        assert reached_step6 >= 10


class TestDegenerateConfig:
    def test_all_loaded_lobster_needs_one_leader_per_spine_vertex(self):
        # interior spine vertices carry pendant twin pairs; the two old
        # spine ends are themselves pendants of their neighbors, forming
        # pendant triples that need two leaders each; the total is exactly
        # the spine length, certified by the exact oracle
        n = 10
        entries = [()] + [(1, 1)] * (n - 2) + [()]
        g = build_lobster(LobsterSpec.make(n, entries))
        report = run_csa(g)
        assert report.status == "found"
        assert len(report.leaders) == n
        assert kalman_controllable_exact(g, report.leaders).controllable
        assert g.n == 3 * n - 4  # proportion approaches one third

    def test_forced_config_slope_is_one(self):
        cfg = tiny_cfg(n_values=(6, 8, 10, 12), trials=2, force_config=(1, 1))
        res = run_sweep(cfg)
        assert res.fit_slope == pytest.approx(1.0, abs=1e-9)
        assert res.fit_intercept == pytest.approx(0.0, abs=1e-9)
        for row in res.rows:
            assert row.mean_leaders == row.n
            assert row.mean_proportion == pytest.approx(
                row.n / (3 * row.n - 4), abs=1e-12
            )


class TestCsv:
    def test_header_only_for_empty_rows(self, tmp_path):
        res = run_sweep(tiny_cfg())
        empty = type(res)(
            rows=(),
            fit_slope=math.nan,
            fit_intercept=math.nan,
            flagged_ns=(),
            audited=0,
            audit_passes=0,
        )
        path = tmp_path / "empty.csv"
        write_csv(empty, str(path))
        assert path.read_text() == "n,trials,successes,success_rate,mean_leaders,mean_N,mean_proportion\n"

    def test_two_line_file_for_single_n(self, tmp_path):
        res = run_sweep(tiny_cfg(n_values=(6,)))
        path = tmp_path / "one.csv"
        write_csv(res, str(path))
        lines = path.read_text().splitlines()
        assert len(lines) == 2 and lines[0].startswith("n,trials")

    def test_round_trip(self, tmp_path):
        res = run_success_probability(tiny_cfg(trials=4))
        path = tmp_path / "sweep.csv"
        write_csv(res, str(path))
        rows = read_csv(str(path))
        assert [r.n for r in rows] == [r.n for r in res.rows]
        for parsed, orig in zip(rows, res.rows):
            assert parsed.successes == orig.successes
            assert parsed.success_rate == pytest.approx(orig.success_rate, abs=1e-6)
            assert parsed.step6_off_rate == pytest.approx(orig.step6_off_rate, abs=1e-6)

    def test_ablation_column_present_only_when_ablated(self, tmp_path):
        plain, ablated = tmp_path / "p.csv", tmp_path / "a.csv"
        write_csv(run_sweep(tiny_cfg()), str(plain))
        write_csv(run_sweep(tiny_cfg(), ablate=True), str(ablated))
        assert "step6_off_rate" not in plain.read_text().splitlines()[0]
        assert ablated.read_text().splitlines()[0].endswith(",step6_off_rate")

    def test_lf_line_endings(self, tmp_path):
        path = tmp_path / "lf.csv"
        write_csv(run_sweep(tiny_cfg()), str(path))
        assert b"\r" not in path.read_bytes()


class TestSvg:
    def test_well_formed_and_deterministic(self, tmp_path):
        res = run_sweep(tiny_cfg(trials=4))
        a, b = tmp_path / "a.svg", tmp_path / "b.svg"
        write_svg(res, str(a))
        write_svg(res, str(b))
        text = a.read_text()
        assert text.startswith("<svg") and text.rstrip().endswith("</svg>")
        assert a.read_bytes() == b.read_bytes()

    def test_metric_selection(self, tmp_path):
        res = run_sweep(tiny_cfg(trials=2))
        path = tmp_path / "m.svg"
        write_svg(res, str(path), metric="mean_leaders")
        assert "mean_leaders" in path.read_text()
