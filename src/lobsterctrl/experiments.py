"""Monte Carlo sweeps over random lobsters: success rate, leader scaling,
leader proportion.

Each (spine length, trial) pair derives its seed from the base seed, so the
sweep is reproducible byte-for-byte regardless of worker count.  Success
statistics are computed over all trials; leader-count statistics only over
successful trials (a negative run yields no leader count).  A configurable
fraction of successful runs has its leader set re-certified by the exact
rational oracle; any disagreement with the float verdict aborts the sweep.
Each trial runs CSA once: the step-6 ablation and the audit read its report.
"""
from __future__ import annotations

import math
import os
from dataclasses import dataclass

from .control import kalman_controllable_exact
from .csa import LeaderReport, run_csa
from .graph import GraphError, LobsterSpec, build_lobster, random_lobster

__all__ = [
    "SweepConfig",
    "SweepRow",
    "SweepResult",
    "run_sweep",
    "run_success_probability",
    "write_csv",
    "read_csv",
    "write_svg",
]

DEFAULT_AUDIT_FRACTION = 0.05


@dataclass(frozen=True)
class SweepConfig:
    """Sweep parameters; defaults follow the experiment setup of the study
    this package reproduces (spine lengths 10..100, load cap 2)."""

    n_values: tuple[int, ...]
    trials: int
    base_seed: int
    mode: str = "hitting-set"
    max_load: int = 2
    force_config: tuple[int, ...] | None = None  # fixed attachment for every interior vertex
    audit_fraction: float = DEFAULT_AUDIT_FRACTION
    jobs: int = 1

    def __post_init__(self) -> None:
        if self.trials < 1:
            raise GraphError("trials must be >= 1")
        if not self.n_values:
            raise GraphError("n_values must be nonempty")
        if not 0 <= self.audit_fraction <= 1:  # NaN fails too
            raise GraphError(f"audit_fraction must be in [0, 1], got {self.audit_fraction}")


@dataclass(frozen=True, eq=False)
class SweepRow:
    n: int
    trials: int
    successes: int
    success_rate: float
    mean_leaders: float  # nan when no trial succeeded
    mean_total: float  # mean vertex count of the generated lobsters
    mean_proportion: float  # nan when no trial succeeded
    step6_off_rate: float | None = None


@dataclass(frozen=True, eq=False)
class SweepResult:
    rows: tuple[SweepRow, ...]
    fit_slope: float  # least squares on per-n mean leader counts vs spine length
    fit_intercept: float
    flagged_ns: tuple[int, ...]  # spine lengths with zero successes, excluded from fit
    audited: int
    audit_passes: int


def _trial_seed(base: int, n: int, trial: int) -> int:
    return base ^ n ^ trial


def _spec_for(cfg: SweepConfig, n: int, seed: int) -> LobsterSpec:
    if cfg.force_config is not None:
        entries = [()] + [tuple(cfg.force_config)] * (n - 2) + [()]
        return LobsterSpec.make(n, entries)
    return random_lobster(n, seed, cfg.max_load)


def _found_without_step6(report: LeaderReport) -> bool:
    """Whether the run would have ended "found" with step 6 switched off.

    Steps 1-5 never depend on step 6, so that is a run found before step 6
    logged anything.
    """
    return report.status == "found" and all(s.step != 6 for s in report.steps)


def _run_trial(args: tuple[SweepConfig, int, int, bool]) -> tuple:
    cfg, n, trial, ablate = args
    seed = _trial_seed(cfg.base_seed, n, trial)
    g = build_lobster(_spec_for(cfg, n, seed))
    report = run_csa(g, mode=cfg.mode)
    return (
        n,
        trial,
        report.status == "found",
        len(report.leaders),
        g.n,
        _found_without_step6(report) if ablate else None,
        report.sorted_leaders(),
    )


def run_sweep(cfg: SweepConfig, ablate: bool = False) -> SweepResult:
    """Run the full (n, trial) grid and aggregate per spine length."""
    tasks = [(cfg, n, t, ablate) for n in cfg.n_values for t in range(cfg.trials)]
    if cfg.jobs > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=cfg.jobs) as pool:
            raw = list(pool.map(_run_trial, tasks, chunksize=8))
    else:
        raw = [_run_trial(t) for t in tasks]
    by_key = {(rec[0], rec[1]): rec for rec in raw}

    rows = []
    for n in cfg.n_values:
        recs = [by_key[(n, t)] for t in range(cfg.trials)]
        successes = sum(1 for r in recs if r[2])
        leader_counts = [r[3] for r in recs if r[2]]
        totals = [r[4] for r in recs]
        proportions = [r[3] / r[4] for r in recs if r[2]]
        off_rate = None
        if ablate:
            off_rate = sum(1 for r in recs if r[5]) / cfg.trials
        rows.append(
            SweepRow(
                n=n,
                trials=cfg.trials,
                successes=successes,
                success_rate=successes / cfg.trials,
                mean_leaders=(sum(leader_counts) / successes) if successes else math.nan,
                mean_total=sum(totals) / cfg.trials,
                mean_proportion=(sum(proportions) / successes) if successes else math.nan,
                step6_off_rate=off_rate,
            )
        )

    fitted = [(r.n, r.mean_leaders) for r in rows if r.successes > 0]
    flagged = tuple(r.n for r in rows if r.successes == 0)
    if len(fitted) >= 2:
        xs = [p[0] for p in fitted]
        ys = [p[1] for p in fitted]
        x_mean = sum(xs) / len(xs)
        y_mean = sum(ys) / len(ys)
        denom = sum((x - x_mean) ** 2 for x in xs)
        slope = sum((x - x_mean) * (y - y_mean) for x, y in fitted) / denom
        intercept = y_mean - slope * x_mean
    else:
        slope = intercept = math.nan

    audited = passes = 0
    if cfg.audit_fraction > 0:
        found_keys = sorted((n, t) for (n, t), rec in by_key.items() if rec[2])
        stride = max(1, int(1.0 / cfg.audit_fraction))
        for n, t in found_keys[::stride]:
            g = build_lobster(_spec_for(cfg, n, _trial_seed(cfg.base_seed, n, t)))
            audited += 1
            if kalman_controllable_exact(g, by_key[(n, t)][6]).controllable:
                passes += 1
            else:
                raise RuntimeError(
                    f"exact oracle rejected a leader set the float route accepted "
                    f"(spine {n}, trial {t})"
                )
    return SweepResult(
        rows=tuple(rows),
        fit_slope=slope,
        fit_intercept=intercept,
        flagged_ns=flagged,
        audited=audited,
        audit_passes=passes,
    )


def run_success_probability(cfg: SweepConfig) -> SweepResult:
    """Success-rate sweep including the step-6 ablation baseline."""
    return run_sweep(cfg, ablate=True)


# ---------------------------------------------------------------------------
# CSV / SVG emission
# ---------------------------------------------------------------------------

_BASE_HEADER = "n,trials,successes,success_rate,mean_leaders,mean_N,mean_proportion"


def write_csv(result: SweepResult, path: str) -> None:
    """Deterministic CSV: fixed header, 6 decimal places, LF line endings."""
    ablated = any(r.step6_off_rate is not None for r in result.rows)
    header = _BASE_HEADER + (",step6_off_rate" if ablated else "")
    lines = [header]
    for r in result.rows:
        cells = [
            str(r.n),
            str(r.trials),
            str(r.successes),
            f"{r.success_rate:.6f}",
            f"{r.mean_leaders:.6f}",
            f"{r.mean_total:.6f}",
            f"{r.mean_proportion:.6f}",
        ]
        if ablated:
            cells.append(f"{r.step6_off_rate:.6f}")
        lines.append(",".join(cells))
    try:
        with open(path, "w", newline="\n") as fh:
            fh.write("\n".join(lines) + "\n")
    except OSError as exc:
        raise GraphError(f"cannot write CSV to {path}: {exc}") from exc


def read_csv(path: str) -> list[SweepRow]:
    with open(path) as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    header = lines[0].split(",")
    ablated = "step6_off_rate" in header
    rows = []
    for ln in lines[1:]:
        cells = ln.split(",")
        rows.append(
            SweepRow(
                n=int(cells[0]),
                trials=int(cells[1]),
                successes=int(cells[2]),
                success_rate=float(cells[3]),
                mean_leaders=float(cells[4]),
                mean_total=float(cells[5]),
                mean_proportion=float(cells[6]),
                step6_off_rate=float(cells[7]) if ablated else None,
            )
        )
    return rows


def write_svg(result: SweepResult, path: str, metric: str = "success_rate") -> None:
    """Plain-text SVG line/scatter plot of one per-n metric."""
    points = [(r.n, getattr(r, metric)) for r in result.rows]
    points = [(x, y) for x, y in points if y is not None and not math.isnan(y)]
    width, height, margin = 480, 320, 40
    if points:
        xs, ys = zip(*points)
        x_lo, x_hi = min(xs), max(xs)
        y_lo, y_hi = min(min(ys), 0.0), max(max(ys), 1e-9)
        x_span = (x_hi - x_lo) or 1.0
        y_span = (y_hi - y_lo) or 1.0

        def sx(x):
            return margin + (x - x_lo) / x_span * (width - 2 * margin)

        def sy(y):
            return height - margin - (y - y_lo) / y_span * (height - 2 * margin)

        poly = " ".join(f"{sx(x):.1f},{sy(y):.1f}" for x, y in points)
        marks = "".join(
            f'<circle cx="{sx(x):.1f}" cy="{sy(y):.1f}" r="3" fill="#1f6fb2"/>'
            for x, y in points
        )
        body = (
            f'<polyline points="{poly}" fill="none" stroke="#1f6fb2" stroke-width="1.5"/>'
            + marks
        )
    else:
        body = ""
    svg = (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">'
        f'<rect width="{width}" height="{height}" fill="white"/>'
        f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" '
        f'y2="{height - margin}" stroke="black"/>'
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" y2="{height - margin}" stroke="black"/>'
        f'<text x="{width // 2}" y="{height - 8}" text-anchor="middle" '
        f'font-size="12">spine length</text>'
        f'<text x="12" y="{height // 2}" font-size="12" '
        f'transform="rotate(-90 12 {height // 2})" text-anchor="middle">{metric}</text>'
        f"{body}</svg>"
    )
    try:
        with open(path, "w", newline="\n") as fh:
            fh.write(svg + "\n")
    except OSError as exc:
        raise GraphError(f"cannot write SVG to {path}: {exc}") from exc


def default_jobs() -> int:
    """Worker count from the environment, used as the CLI default."""
    try:
        return max(1, int(os.environ.get("LOBSTER_CTRL_JOBS", "1")))
    except ValueError:
        return 1
