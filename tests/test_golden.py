"""Golden output digest over fixed-seed lobsters.

One sha256 over the public outputs that must stay byte-identical across
refactors of the hot path: the CSA report JSON, the three detector catalogs,
the spine, and the PBH verdict (with its witness rounded to 12 digits, as
``lobster-ctrl analyze`` prints it) on the CSA leader set minus its smallest
vertex, which sits just below controllability.  C10 only compares two runs
of the same code; this digest pins the outputs of the code as it was when
the digest was taken.  A second digest does the same for sweep output: the
CSV bytes and the fit and audit figures of a few fixed-seed sweeps.

Floats are rounded to 12 decimals before hashing: the BLAS thread count
moves eigenvalues in their last bits, which is not a change of the program.
Witness signs are hashed as the program prints them.  The eigensolver may
return an eigenvector with either sign, and `Witness.scaled` makes the first
entry above ZERO_TOL positive, so the digest checks that rule too.
"""
import hashlib
import json

from lobsterctrl.control import pbh_controllable
from lobsterctrl.csa import report_to_json, run_csa
from lobsterctrl.experiments import SweepConfig, run_sweep, write_csv
from lobsterctrl.graph import attachment_profile, build_lobster, find_spine, random_lobster
from lobsterctrl.mpcs import catalog_to_json, detect_quads, detect_spine_patterns, detect_twins

GOLDEN_COUNT = 60
GOLDEN_SPINES = (6, 140)
GOLDEN_SEED_BASE = 0x60D
GOLDEN_DIGEST = "b72ef2958ed32908515f70e35fc197c6f25ac20a93d7c447e0509a43bf8b62a9"

# (config overrides, ablate) per sweep: both modes, bare paths, a forced
# attachment, audit fractions from 0.2 to 1.0, and ablation on and off.
SWEEP_CASES = (
    (dict(), True),
    (dict(), False),
    (dict(mode="per-set", base_seed=0x51), True),
    (dict(audit_fraction=0.2, base_seed=0x2000), True),
    (dict(audit_fraction=0.5, base_seed=0x2000), False),
    (dict(force_config=()), True),
    (dict(force_config=()), False),
    (dict(force_config=(2,), n_values=(6, 9, 12)), True),
)
SWEEP_DIGEST = "31749e4cde5e94d6f09ef8cdc1bdff8f01810a609a0385439ad89ad52db0f45d"


def _canonical(obj):
    """JSON value with floats rounded to 12 decimals and no negative zeros."""
    if isinstance(obj, float):
        return round(obj, 12) + 0.0
    if isinstance(obj, list):
        return [_canonical(x) for x in obj]
    if isinstance(obj, dict):
        return {k: _canonical(v) for k, v in obj.items()}
    return obj


def golden_cases():
    lo, hi = GOLDEN_SPINES
    for i in range(GOLDEN_COUNT):
        yield lo + (hi - lo) * i // (GOLDEN_COUNT - 1), GOLDEN_SEED_BASE + i


def golden_outputs(spine_len: int, seed: int) -> list[str]:
    g = build_lobster(random_lobster(spine_len, seed))
    spine = find_spine(g)
    profile = attachment_profile(g, spine)
    report = run_csa(g)
    texts = [
        json.dumps(spine),
        report_to_json(report),
        catalog_to_json(detect_twins(g)),
        catalog_to_json(detect_quads(g)),
        catalog_to_json(detect_spine_patterns(g, profile)),
    ]
    out = [json.dumps(_canonical(json.loads(t))) for t in texts]
    short = report.sorted_leaders()[1:]
    if short:
        verdict = pbh_controllable(g, short)
        check = {"controllable": verdict.controllable, "method": verdict.method}
        if verdict.witness is not None:
            check["witness_eigenvalue"] = _canonical(verdict.witness.value)
            check["witness_vector"] = _canonical([float(x) for x in verdict.witness.vector])
        out.append(json.dumps(check))
    return out


def golden_digest() -> str:
    h = hashlib.sha256()
    for spine_len, seed in golden_cases():
        h.update(f"# spine {spine_len} seed {seed}\n".encode())
        for text in golden_outputs(spine_len, seed):
            h.update(text.encode())
            h.update(b"\n")
    return h.hexdigest()


def sweep_digest(tmp_path) -> str:
    h = hashlib.sha256()
    for i, (overrides, ablate) in enumerate(SWEEP_CASES):
        fields = dict(n_values=(6, 10, 20, 30, 40), trials=4, base_seed=0xBEEF, audit_fraction=1.0)
        fields.update(overrides)
        result = run_sweep(SweepConfig(**fields), ablate=ablate)
        path = tmp_path / f"sweep{i}.csv"
        write_csv(result, str(path))
        h.update(path.read_bytes())
        figures = (
            result.fit_slope,
            result.fit_intercept,
            result.flagged_ns,
            result.audited,
            result.audit_passes,
        )
        h.update(repr(figures).encode() + b"\n")
    return h.hexdigest()


def test_golden_digest():
    assert golden_digest() == GOLDEN_DIGEST


def test_sweep_digest(tmp_path):
    assert sweep_digest(tmp_path) == SWEEP_DIGEST
