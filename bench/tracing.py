"""Spans around the package's public functions, installed from outside it.

Each traced function is replaced, in every lobsterctrl module namespace that
holds it, by a wrapper that records a span: the function, its start and end
on the monotonic clock, and the span that was open when it was called.
Calls made through module globals (``csa`` calling ``find_spine``,
``controllable_certified`` calling ``kalman_controllable_exact``) are
therefore seen, and each span knows its caller.  Spans stay in compact
arrays until the run ends.  A function that a later version of the package
renames or removes is simply not traced; its metrics then read 0.
"""
from __future__ import annotations

import sys
import time
from array import array

import numpy as np

# Layer (module) -> traced public functions.  cli is left out: it only
# parses files and formats JSON around these calls.
TRACED = {
    "graph": ("find_spine", "attachment_profile"),
    "spectral": ("eigen_decompose", "vanishing_subspace"),
    "mpcs": ("detect_twins", "detect_quads", "detect_spine_patterns", "verify_mpcs"),
    "control": (
        "controllable_certified",
        "kalman_controllable_exact",
        "min_leader_bruteforce",
        "minimum_hitting_set",
    ),
    "csa": ("run_csa",),
    "experiments": ("run_sweep",),
}
LAYERS = tuple(TRACED)
# Per-graph decomposition caches whose misses are read from cache_info().
CACHES = {
    "mpcs.graph_decomposition": ("mpcs", "graph_decomposition"),
    "control.decomposition_cache": ("control", "_decomposition"),
}


class Tracer:
    """Records spans for the functions in TRACED once installed."""

    def __init__(self, modules: dict):
        self.modules = modules  # layer name -> imported lobsterctrl module
        self.namespaces = [
            m for name, m in sys.modules.items()
            if name == "lobsterctrl" or name.startswith("lobsterctrl.")
        ]
        self.names = [f"{layer}.{fn}" for layer, fns in TRACED.items() for fn in fns]
        self.layer_of = [LAYERS.index(name.split(".")[0]) for name in self.names]
        self._installed: list[tuple[object, str, object]] = []
        self._stack = [-1]
        self.reset()

    def reset(self) -> None:
        """Forget every span and outcome recorded so far."""
        self.fn = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.verify_accepted = 0
        self.csa_step6 = 0
        self._misses0 = self._cache_misses()

    def _cache_misses(self) -> dict[str, int]:
        out = {}
        for key, (layer, attr) in CACHES.items():
            info = getattr(getattr(self.modules[layer], attr, None), "cache_info", None)
            out[key] = info().misses if info else 0
        return out

    def _observe(self, name: str, result) -> None:
        if name == "mpcs.verify_mpcs":
            self.verify_accepted += bool(isinstance(result, tuple) and result[0])
        elif any(getattr(s, "step", None) == 6 for s in getattr(result, "steps", ())):
            self.csa_step6 += 1

    def _wrap(self, fid: int, original):
        name = self.names[fid]
        observed = name in ("mpcs.verify_mpcs", "csa.run_csa")
        clock = time.perf_counter
        stack = self._stack

        def traced(*args, **kwargs):
            idx = len(self.fn)
            self.fn.append(fid)
            self.parent.append(stack[-1])
            self.end.append(0.0)
            stack.append(idx)
            self.start.append(clock())
            try:
                result = original(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                stack.pop()
            if observed:
                self._observe(name, result)
            return result

        traced.__wrapped__ = original
        traced.__name__ = original.__name__
        return traced

    def install(self) -> None:
        """Replace each traced function in every module that holds it."""
        for fid, name in enumerate(self.names):
            layer, attr = name.split(".")
            original = getattr(self.modules[layer], attr, None)
            if original is None:
                continue
            wrapper = self._wrap(fid, original)
            for module in self.namespaces:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self._installed.append((module, key, original))

    def uninstall(self) -> None:
        for module, key, original in reversed(self._installed):
            setattr(module, key, original)
        self._installed.clear()

    def save(self, path: str) -> None:
        """Write the spans (name, start, end, parent index) to an .npz file."""
        np.savez(
            path,
            names=np.array(self.names),
            fn=np.frombuffer(self.fn, dtype=np.uint16),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            parent=np.frombuffer(self.parent, dtype=np.int64),
        )

    def summary(self, runs_per_trial_base: int) -> dict[str, float]:
        """Per-layer and per-function metrics over the recorded spans.

        A layer's time counts only its outermost spans, so a call nested in a
        call of the same layer is not counted twice; self time is a span's
        duration minus the time of the spans it called.
        ``runs_per_trial_base`` is the number of sweep trials run, the base
        of ``experiments.csa_runs_per_trial``.
        """
        count = len(self.fn)
        fn, parent = self.fn, self.parent
        dur = [e - s for s, e in zip(self.start, self.end)]
        child = [0.0] * count
        in_layer = [0] * count  # bit mask of the layers of a span's ancestors
        in_csa = [False] * count
        in_sweep = [False] * count
        csa_id = self.names.index("csa.run_csa")
        sweep_id = self.names.index("experiments.run_sweep")
        certified_id = self.names.index("control.controllable_certified")
        exact_id = self.names.index("control.kalman_controllable_exact")
        for i in range(count):
            p = parent[i]
            if p >= 0:  # a parent is always recorded before its children
                child[p] += dur[i]
                in_layer[i] = in_layer[p] | (1 << self.layer_of[fn[p]])
                in_csa[i] = in_csa[p] or fn[p] == csa_id
                in_sweep[i] = in_sweep[p] or fn[p] == sweep_id

        per_fn = {name: [0, 0.0, 0.0] for name in self.names}  # calls, s, self_s
        per_layer = {layer: [0, 0.0, 0.0] for layer in LAYERS}
        escalations = checks_in_csa = csa_in_sweep = 0
        for i in range(count):
            f = fn[i]
            layer = self.layer_of[f]
            own = dur[i] - child[i]
            acc = per_fn[self.names[f]]
            acc[0] += 1
            acc[1] += dur[i]
            acc[2] += own
            lay = per_layer[LAYERS[layer]]
            lay[0] += 1
            lay[2] += own
            if not in_layer[i] >> layer & 1:
                lay[1] += dur[i]
            if f == exact_id and parent[i] >= 0:
                escalations += fn[parent[i]] == certified_id
            elif f == certified_id:
                checks_in_csa += in_csa[i]
            elif f == csa_id:
                csa_in_sweep += in_sweep[i]

        out: dict[str, float] = {}
        for layer, (calls, total, own) in per_layer.items():
            out[f"{layer}.calls"] = calls
            out[f"{layer}.s"] = total
            out[f"{layer}.self_s"] = own
        for name, (calls, total, own) in per_fn.items():
            out[f"{name}.calls"] = calls
            out[f"{name}.s"] = total
            out[f"{name}.self_s"] = own
        verify_calls = per_fn["mpcs.verify_mpcs"][0]
        csa_calls = per_fn["csa.run_csa"][0]
        out["mpcs.verify_mpcs.accepted_ratio"] = self.verify_accepted / verify_calls if verify_calls else 0.0
        out["control.escalations"] = escalations
        out["csa.step6_share"] = self.csa_step6 / csa_calls if csa_calls else 0.0
        out["csa.checks_per_run"] = checks_in_csa / csa_calls if csa_calls else 0.0
        out["experiments.csa_runs_per_trial"] = (
            csa_in_sweep / runs_per_trial_base if runs_per_trial_base else 0.0
        )
        misses = self._cache_misses()
        for key, before in self._misses0.items():
            out[f"{key}.misses"] = misses[key] - before
        out["experiments.trials"] = runs_per_trial_base
        out["trace.spans"] = count
        return out
