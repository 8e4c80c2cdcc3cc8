import json
import random

import pytest

from lobsterctrl.cli import main
from lobsterctrl.graph import (
    Graph,
    GraphError,
    attachment_profile,
    build_lobster,
    find_spine,
    parse_graph,
    random_lobster,
    serialize_graph,
)
from lobsterctrl.mpcs import catalog_to_json, detect_quads, detect_spine_patterns, detect_twins

from .conftest import random_connected_graph

FIG_JSON = json.dumps(
    {"n": 7, "edges": [[1, 2], [2, 3], [2, 4], [4, 5], [4, 6], [4, 7]]}
)


@pytest.fixture
def fig_file(tmp_path):
    path = tmp_path / "fig.graph.json"
    path.write_text(FIG_JSON)
    return str(path)


@pytest.fixture
def p10_file(tmp_path):
    path = tmp_path / "p10.graph.json"
    path.write_text(json.dumps({"n": 10, "edges": [[i, i + 1] for i in range(1, 10)]}))
    return str(path)


class TestGen:
    def test_deterministic_files(self, tmp_path, capsys):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["gen", "--spine", "10", "--seed", "1", "-o", str(out1)]) == 0
        assert main(["gen", "--spine", "10", "--seed", "1", "-o", str(out2)]) == 0
        assert (tmp_path / "a.graph.json").read_bytes() == (tmp_path / "b.graph.json").read_bytes()
        assert (tmp_path / "a.lobster.json").read_bytes() == (tmp_path / "b.lobster.json").read_bytes()

    def test_rejects_short_spine(self, tmp_path, capsys):
        assert main(["gen", "--spine", "1", "--seed", "0", "-o", str(tmp_path / "x")]) == 2

    def test_vertex_budget(self, tmp_path):
        assert main(["gen", "--spine", "100", "--seed", "7", "-o", str(tmp_path / "big")]) == 0
        g = parse_graph((tmp_path / "big.graph.json").read_text())
        assert g.n <= 300  # load cap 2 bounds attachments by 2 per spine vertex


class TestAnalyze:
    def test_uncontrollable_with_rank(self, fig_file, capsys):
        code = main(["analyze", fig_file, "--leaders", "1,4,6", "--exact", "--json"])
        out = json.loads(capsys.readouterr().out)
        assert code == 1
        assert out["controllable"] is False and out["rank"] == 3

    def test_controllable(self, fig_file, capsys):
        code = main(["analyze", fig_file, "--leaders", "1,5,6", "--exact"])
        assert code == 0
        assert "controllable" in capsys.readouterr().out

    def test_missing_file(self, tmp_path):
        assert main(["analyze", str(tmp_path / "nope.json"), "--leaders", "1"]) == 2

    def test_bad_leader_list(self, fig_file):
        assert main(["analyze", fig_file, "--leaders", "1,x"]) == 2

    @pytest.mark.parametrize(
        "text",
        [
            '{"n": 3, "edges": [[1,2,3]]}',
            '{"n": "x", "edges": [[1,2]]}',
            '{"n": 3, "edges": [["a",2]]}',
            '{"n": 3, "edges": 5}',
            '{"n": 3, "edges": [[1.5,2]]}',
            "graph 1 -- 2",
            '{"n": 3, "edges": [[true, 2], [2, 3]]}',
            '{"n": true, "edges": []}',
            "graph { 1 -- 2 -- 3 }",
            "graph { 1.5 -- 2; 2 -- 3 }",
            "graph { 1 -- 2; 3; }",
        ],
    )
    def test_malformed_graph_is_usage_error(self, tmp_path, capsys, text):
        path = tmp_path / "bad.graph"
        path.write_text(text)
        assert main(["analyze", str(path), "--leaders", "1"]) == 2
        assert capsys.readouterr().err.startswith("error: ")


class TestMpcs:
    def test_brute_catalog(self, fig_file, capsys):
        code = main(["mpcs", fig_file, "--brute", "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert sorted(item["vertices"] for item in payload) == [
            [1, 3], [5, 6], [5, 7], [6, 7],
        ]

    def test_detect_matches_brute(self, fig_file, capsys):
        main(["mpcs", fig_file, "--brute", "--json"])
        brute = {tuple(i["vertices"]) for i in json.loads(capsys.readouterr().out)}
        main(["mpcs", fig_file, "--detect", "--json"])
        detected = {tuple(i["vertices"]) for i in json.loads(capsys.readouterr().out)}
        assert detected == brute

    @staticmethod
    def detector_union(g: Graph) -> list:
        records = detect_twins(g)
        if not g.is_tree():
            return records
        try:
            profile = attachment_profile(g, find_spine(g))
        except GraphError:
            return records  # not a lobster: twins only
        return records + detect_quads(g) + detect_spine_patterns(g, profile)

    def test_detect_json_is_sorted_detector_union(self, tmp_path, capsys):
        spider = Graph.from_edges(  # three legs of length 3: a tree, not a lobster
            10, [(1, 2), (2, 3), (3, 4), (1, 5), (5, 6), (6, 7), (1, 8), (8, 9), (9, 10)]
        )
        k4 = Graph.from_edges(4, [(i, j) for i in range(1, 5) for j in range(i + 1, 5)])
        graphs = [
            build_lobster(random_lobster(spine, seed))
            for spine, seed in [(6, 1), (12, 4), (30, 7), (45, 2), (60, 3), (80, 11)]
        ]
        graphs += [spider, random_connected_graph(12, random.Random(3), extra_edges=4), k4]
        origins = set()
        for i, g in enumerate(graphs):
            path = tmp_path / f"g{i}.graph.json"
            path.write_text(serialize_graph(g))
            main(["mpcs", str(path), "--detect", "--json", "-"])
            expected = sorted(
                self.detector_union(g), key=lambda r: (len(r.vertices), r.sorted_vertices())
            )
            assert len({r.vertices for r in expected}) == len(expected)
            assert capsys.readouterr().out == catalog_to_json(expected) + "\n"
            origins.update(r.origin for r in expected)
        assert {"twin", "quad", "spine8"} <= origins

    def test_brute_refuses_large(self, tmp_path, capsys):
        big = tmp_path / "big.graph.json"
        big.write_text(json.dumps({"n": 17, "edges": [[i, i + 1] for i in range(1, 17)]}))
        assert main(["mpcs", str(big), "--brute"]) == 2

    def test_json_file_output(self, fig_file, tmp_path, capsys):
        out = tmp_path / "catalog.json"
        assert main(["mpcs", fig_file, "--brute", "--json", str(out)]) == 0
        assert len(json.loads(out.read_text())) == 4


class TestCsa:
    def test_benchmark_three_leaders(self, fig_file, capsys):
        code = main(["csa", fig_file])
        report = json.loads(capsys.readouterr().out)
        assert code == 0
        assert report["status"] == "found" and len(report["leaders"]) == 3

    def test_bare_path_negative_exit(self, p10_file, capsys):
        # only the fallback step finds a leader for a bare path
        code = main(["csa", p10_file, "--no-step6"])
        report = json.loads(capsys.readouterr().out)
        assert code == 1 and report["status"] == "cant_find"

    def test_non_tree_usage_error(self, tmp_path):
        cyc = tmp_path / "cycle.graph.json"
        cyc.write_text(json.dumps({"n": 3, "edges": [[1, 2], [2, 3], [1, 3]]}))
        assert main(["csa", str(cyc)]) == 2

    def test_mode_and_seed_flags(self, fig_file, capsys):
        code = main(["csa", fig_file, "--mode", "per-set", "--seed", "3"])
        report = json.loads(capsys.readouterr().out)
        assert code == 0 and report["mode"] == "per-set" and report["seed"] == 3


class TestLeaders:
    def test_benchmark(self, fig_file, capsys):
        code = main(["leaders", fig_file, "--kmax", "4", "--json"])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["k_min"] == 3 and out["count"] == 6
        assert out["probability"] == pytest.approx(0.1714, abs=5e-5)

    def test_k2(self, tmp_path, capsys):
        path = tmp_path / "k2.graph.json"
        path.write_text(json.dumps({"n": 2, "edges": [[1, 2]]}))
        code = main(["leaders", str(path), "--kmax", "2", "--json"])
        out = json.loads(capsys.readouterr().out)
        assert code == 0 and out["k_min"] == 1 and out["count"] == 2

    def test_refuses_large_graph(self, tmp_path):
        path = tmp_path / "p30.graph.json"
        path.write_text(json.dumps({"n": 30, "edges": [[i, i + 1] for i in range(1, 30)]}))
        assert main(["leaders", str(path), "--kmax", "2"]) == 2

    def test_negative_kmax_usage_error(self, fig_file, capsys):
        assert main(["leaders", fig_file, "--kmax", "-2"]) == 2
        assert "no controllable leader set" not in capsys.readouterr().out


class TestExperiment:
    def write_config(self, tmp_path, **overrides):
        cfg = dict(n_values=[6, 8], trials=2, base_seed=1, audit_fraction=0.0)
        cfg.update(overrides)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        return str(path)

    def test_deterministic_csv(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["experiment", "--sweep", "scaling", "--config", cfg, "-o", str(a)]) == 0
        assert main(["experiment", "--sweep", "scaling", "--config", cfg, "-o", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_success_sweep_has_ablation_column(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path)
        out = tmp_path / "s.csv"
        assert main(["experiment", "--sweep", "success", "--config", cfg, "-o", str(out)]) == 0
        assert out.read_text().splitlines()[0].endswith(",step6_off_rate")

    def test_ablate_flag_adds_column(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path)
        out = tmp_path / "a.csv"
        code = main(
            ["experiment", "--sweep", "proportion", "--config", cfg, "-o", str(out), "--ablate-step6"]
        )
        assert code == 0
        assert "step6_off_rate" in out.read_text().splitlines()[0]

    def test_svg_output(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path)
        out, svg = tmp_path / "o.csv", tmp_path / "o.svg"
        code = main(
            ["experiment", "--sweep", "success", "--config", cfg, "-o", str(out), "--svg", str(svg)]
        )
        assert code == 0 and svg.read_text().startswith("<svg")

    def test_malformed_config(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["experiment", "--sweep", "success", "--config", str(path), "-o", "x.csv"]) == 2

    @pytest.mark.parametrize(
        "overrides",
        [
            {"n_values": [10.9]},
            {"n_values": [6, True]},
            {"trials": 2.7},
            {"base_seed": True},
            {"max_load": 2.5},
            {"audit_fraction": "0.5"},
            {"audit_fraction": False},
            {"audit_fraction": -1},
            {"audit_fraction": float("nan")},
            {"audit_fraction": 7},
        ],
    )
    def test_bad_config_numbers_are_usage_errors(self, tmp_path, capsys, overrides):
        cfg = self.write_config(tmp_path, **overrides)
        out = tmp_path / "x.csv"
        assert main(["experiment", "--sweep", "success", "--config", cfg, "-o", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    def test_missing_keys(self, tmp_path):
        path = tmp_path / "short.json"
        path.write_text(json.dumps({"trials": 2}))
        assert main(["experiment", "--sweep", "success", "--config", str(path), "-o", "x.csv"]) == 2


class TestUsage:
    def test_no_command(self):
        assert main([]) == 2

    def test_unknown_command(self):
        assert main(["frobnicate"]) == 2
