"""Command-line surface for scripted reproduction.

Exit codes: 0 for success / controllable / found, 1 for a negative domain
verdict (uncontrollable, cant_find, nothing found), 2 for usage or input
errors.  Negative domain results are never conflated with usage errors so
shell pipelines can branch on controllability.
"""
from __future__ import annotations

import argparse
import json
import sys

from . import experiments
from .control import (
    count_to_probability,
    kalman_controllable_exact,
    min_leader_bruteforce,
    pbh_controllable,
)
from .csa import report_to_json, run_csa
from .graph import (
    Graph,
    GraphError,
    _json_int,
    attachment_profile,
    build_lobster,
    find_spine,
    parse_graph,
    random_lobster,
    serialize_graph,
    serialize_lobster_spec,
)
from .mpcs import (
    BRUTEFORCE_N_CAP,
    catalog_to_json,
    detect_quads,
    detect_spine_patterns,
    detect_twins,
    enumerate_mpcs_bruteforce,
    graph_decomposition,
)

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2


def _load_graph(path: str) -> Graph:
    try:
        with open(path) as fh:
            return parse_graph(fh.read())
    except OSError as exc:
        raise GraphError(f"cannot read {path}: {exc}") from exc


def _parse_leaders(text: str) -> list[int]:
    try:
        return [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise GraphError(f"bad leader list {text!r}: {exc}") from exc


def _json_number(value) -> float:
    """A number read from config JSON; booleans and strings are not numbers here."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"{value!r} is not a number")
    return float(value)


def cmd_gen(args) -> int:
    spec = random_lobster(args.spine, args.seed, args.max_load)
    g = build_lobster(spec)
    base = args.out
    for suffix in (".lobster.json", ".graph.json"):
        if base.endswith(suffix):
            base = base[: -len(suffix)]
    spec_path = base + ".lobster.json"
    graph_path = base + ".graph.json"
    with open(spec_path, "w", newline="\n") as fh:
        fh.write(serialize_lobster_spec(spec) + "\n")
    with open(graph_path, "w", newline="\n") as fh:
        fh.write(serialize_graph(g) + "\n")
    print(f"wrote {spec_path} ({spec.spine_len} spine vertices)")
    print(f"wrote {graph_path} ({g.n} vertices)")
    return EXIT_OK


def cmd_analyze(args) -> int:
    g = _load_graph(args.graph)
    leaders = _parse_leaders(args.leaders)
    verdict = pbh_controllable(g, leaders)
    gaps = graph_decomposition(g).near_miss_gaps
    if gaps:
        print(
            f"warning: {len(gaps)} eigenvalue gap(s) in the near-degenerate band; "
            "prefer --exact",
            file=sys.stderr,
        )
    out = {
        "leaders": sorted(leaders),
        "controllable": verdict.controllable,
        "method": verdict.method,
    }
    if verdict.witness is not None:
        out["witness_eigenvalue"] = verdict.witness.value
        # round() takes a tiny negative entry to -0.0; adding 0.0 prints 0.0
        out["witness_vector"] = [round(float(x), 12) + 0.0 for x in verdict.witness.vector]
    if args.exact:
        exact = kalman_controllable_exact(g, leaders)
        if exact.controllable != verdict.controllable:
            raise RuntimeError("float and exact controllability verdicts disagree")
        out["rank"] = exact.rank
        out["followers"] = g.n - len(set(leaders))
    if args.json:
        print(json.dumps(out, indent=2))
    else:
        word = "controllable" if verdict.controllable else "NOT controllable"
        print(f"leader set {sorted(leaders)}: {word}")
        if "rank" in out:
            print(f"exact Kalman rank {out['rank']} of {out['followers']} followers")
        if verdict.witness is not None:
            print(
                f"witness eigenvector at eigenvalue {verdict.witness.value:.6g} "
                "vanishes on every leader"
            )
    return EXIT_OK if verdict.controllable else EXIT_NEGATIVE


def cmd_mpcs(args) -> int:
    g = _load_graph(args.graph)
    if args.brute:
        if g.n > BRUTEFORCE_N_CAP:
            raise GraphError(f"--brute refuses n > {BRUTEFORCE_N_CAP} (got n={g.n})")
        records = list(enumerate_mpcs_bruteforce(g).records)
    else:
        records = detect_twins(g)
        if g.is_tree():
            try:
                profile = attachment_profile(g, find_spine(g))
            except GraphError:
                pass  # tree but not a lobster: twins only
            else:
                # Twins, quads and spine runs have sizes 2, 4 and 8 or more,
                # so the three detectors never emit the same set.
                records += detect_quads(g)
                records += detect_spine_patterns(g, profile)
        records.sort(key=lambda r: (len(r.vertices), r.sorted_vertices()))
    payload = catalog_to_json(records)
    if args.json is not None:
        if args.json == "-":
            print(payload)
        else:
            with open(args.json, "w", newline="\n") as fh:
                fh.write(payload + "\n")
            print(f"wrote {args.json} ({len(records)} sets)")
    else:
        print(f"{len(records)} critical sets")
        for rec in records:
            lam = rec.witness.value if rec.witness else float("nan")
            print(f"  {rec.sorted_vertices()}  origin={rec.origin}  eigenvalue={lam:.6g}")
    return EXIT_OK if records else EXIT_NEGATIVE


def cmd_csa(args) -> int:
    g = _load_graph(args.graph)
    report = run_csa(
        g,
        mode=args.mode,
        seed=args.seed,
        enable_step6=not args.no_step6,
        strict_step6=args.strict_step6,
    )
    print(report_to_json(report))
    return EXIT_OK if report.status == "found" else EXIT_NEGATIVE


def cmd_leaders(args) -> int:
    g = _load_graph(args.graph)
    result = min_leader_bruteforce(g, args.kmax)
    if result.k_min is None:
        print(f"no controllable leader set up to size {args.kmax} (k_min >= {result.lower_bound})")
        return EXIT_NEGATIVE
    prob = count_to_probability(result.count, g.n, result.k_min)
    if args.json:
        print(
            json.dumps(
                {
                    "k_min": result.k_min,
                    "count": result.count,
                    "probability": prob,
                    "sets": [sorted(s) for s in result.sets] if result.sets else None,
                },
                indent=2,
            )
        )
    else:
        print(f"k_min = {result.k_min}")
        print(f"count = {result.count}")
        print(f"probability = {prob}")
    return EXIT_OK


def cmd_experiment(args) -> int:
    try:
        with open(args.config) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise GraphError(f"cannot read {args.config}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise GraphError(f"malformed config {args.config}: {exc}") from exc
    try:
        cfg = experiments.SweepConfig(
            n_values=tuple(_json_int(x) for x in raw["n_values"]),
            trials=_json_int(raw["trials"]),
            base_seed=_json_int(raw["base_seed"]),
            mode=raw.get("mode", "hitting-set"),
            max_load=_json_int(raw.get("max_load", 2)),
            audit_fraction=_json_number(
                raw.get("audit_fraction", experiments.DEFAULT_AUDIT_FRACTION)
            ),
            jobs=args.jobs,
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise GraphError(f"malformed config {args.config}: {exc}") from exc
    ablate = args.sweep == "success" or args.ablate_step6
    result = experiments.run_sweep(cfg, ablate=ablate)
    experiments.write_csv(result, args.out)
    print(f"wrote {args.out} ({len(result.rows)} rows)")
    if args.svg:
        metric = {
            "success": "success_rate",
            "scaling": "mean_leaders",
            "proportion": "mean_proportion",
        }[args.sweep]
        experiments.write_svg(result, args.svg, metric=metric)
        print(f"wrote {args.svg}")
    if result.audited:
        print(f"audited {result.audit_passes}/{result.audited} successes with the exact oracle")
    if not (result.fit_slope != result.fit_slope):  # not NaN
        print(f"leader fit: {result.fit_slope:.4f} * n + {result.fit_intercept:.4f}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lobster-ctrl",
        description="Leader selection and critical-set analysis for lobster networks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a random lobster")
    p.add_argument("--spine", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--max-load", type=int, default=2)
    p.add_argument("-o", "--out", required=True, help="output base path")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("analyze", help="controllability of a leader set")
    p.add_argument("graph")
    p.add_argument("--leaders", required=True, help="comma-separated vertex ids")
    p.add_argument("--exact", action="store_true", help="also run the exact rational oracle")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("mpcs", help="critical-set catalog")
    p.add_argument("graph")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--brute", action="store_true", help="complete catalog (small n only)")
    group.add_argument("--detect", action="store_true", help="structural detectors (default)")
    p.add_argument(
        "--json",
        nargs="?",
        const="-",
        default=None,
        metavar="FILE",
        help="emit catalog JSON to FILE (or stdout when bare)",
    )
    p.set_defaults(func=cmd_mpcs)

    p = sub.add_parser("csa", help="run the staged leader-assembly algorithm")
    p.add_argument("graph")
    p.add_argument("--mode", choices=("hitting-set", "per-set"), default="hitting-set")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--strict-step6", action="store_true", help="add all fallbacks, skip the prune")
    p.add_argument("--no-step6", action="store_true", help="ablation: skip the fallback step")
    p.set_defaults(func=cmd_csa)

    p = sub.add_parser("leaders", help="brute-force minimum leader search")
    p.add_argument("graph")
    p.add_argument("--kmax", type=int, required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_leaders)

    p = sub.add_parser("experiment", help="Monte Carlo sweep to CSV")
    p.add_argument("--sweep", choices=("success", "scaling", "proportion"), required=True)
    p.add_argument("--config", required=True)
    p.add_argument("-o", "--out", required=True)
    p.add_argument("--ablate-step6", action="store_true")
    p.add_argument("--svg", default=None)
    p.add_argument("--jobs", type=int, default=experiments.default_jobs())
    p.set_defaults(func=cmd_experiment)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return args.func(args)
    except GraphError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
