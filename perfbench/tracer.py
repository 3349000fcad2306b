"""Spans around the calls into authdist's modules, recorded from outside.

``Tracer.install`` replaces module attributes with timing wrappers, in every
authdist module that holds a reference, so calls between modules (for
example ``sim_binary.stream`` or ``cli.region_slice``) are caught too; no
file under ``src/`` changes.  ``Tracer.uninstall`` puts the originals back.

A span is ``[name, start, end, parent, job]``: ``parent`` indexes the
enclosing span (-1 for none) and ``job`` is shared by every span of one CLI
job.  Spans stay in memory until ``write``.  A span's self time is its
duration minus the time covered by its child spans; calls are sequential,
so children never overlap.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import defaultdict

# (module, attribute, span name); ``Class.method`` patches a class attribute
TARGETS = (
    ("cli", "main", "cli.main"),
    ("cli", "_run_pk_trials", "cli.pk_trials"),
    ("sim_common", "stream", "sim_common.stream"),
    ("sim_binary", "build_codebook", "sim_binary.build_codebook"),
    ("sim_binary", "run_reference_trials", "sim_binary.trials"),
    ("sim_binary", "run_attack_trials", "sim_binary.trials"),
    ("sim_gaussian", "build_gauss_codebook", "sim_gaussian.build_codebook"),
    ("sim_gaussian", "run_gauss_trials", "sim_gaussian.trials"),
    ("pubkey", "pk_encode", "pubkey.pk_encode"),
    ("pubkey", "pk_decode", "pubkey.pk_decode"),
    ("pubkey", "TestDoubleScheme.sign", "pubkey.sign"),
    ("regions_binary", "optimize_rate_fn", "regions_binary.optimize"),
    ("regions_binary", "minimize", "regions_binary.slsqp"),
    ("regions_binary", "boundary", "regions_binary.boundary"),
    ("regions_binary", "qe_boundary", "regions_binary.qe_boundary"),
    ("regions_layered", "region_slice", "regions_layered.region_slice"),
    ("regions_layered", "fine_feasibility_margin", "regions_layered.margin"),
    ("regions_gaussian", "envelope_dr", "regions_gaussian.envelope"),
    ("core", "binary_entropy", "core.binary_entropy"),
)

PACKAGE = "authdist"
MODULES = ("cli", "sim_common", "sim_binary", "sim_gaussian", "pubkey",
           "regions_binary", "regions_layered", "regions_gaussian", "core")

# per-layer metric name -> unit; every traced run reports all of them, with
# 0 for layers its workload does not reach
LAYER_UNITS = {
    "sim_common.stream.calls": "count",
    "sim_common.stream.self_s": "s",
    "sim_binary.build_codebook.s": "s",
    "sim_binary.codebook_bytes": "bytes",
    "sim_binary.trials.self_s": "s",
    "sim_binary.scan_bytes": "bytes",
    "sim_binary.useful_ratio": "ratio",
    "sim_gaussian.build_codebook.s": "s",
    "sim_gaussian.trials.self_s": "s",
    "sim_gaussian.scan_flops": "flop",
    "sim_gaussian.gflops": "Gflop/s",
    "sim_gaussian.score_matrix_bytes": "bytes",
    "pubkey.pk_encode.self_s": "s",
    "pubkey.pk_decode.self_s": "s",
    "pubkey.sign.calls": "count",
    "regions_binary.optimize.calls": "count",
    "regions_binary.optimize.self_s": "s",
    "regions_binary.slsqp.calls": "count",
    "regions_binary.slsqp.s": "s",
    "regions_binary.slsqp.nit": "count",
    "regions_binary.slsqp.nfev": "count",
    "regions_binary.slsqp.success_ratio": "ratio",
    "regions_binary.boundary.s": "s",
    "regions_binary.qe_boundary.s": "s",
    "regions_layered.region_slice.s": "s",
    "regions_layered.margin.calls": "count",
    "regions_layered.margin.s": "s",
    "regions_gaussian.envelope.s": "s",
    "core.binary_entropy.calls": "count",
    "cli.self_s": "s",
    "cli.pk_trials.self_s": "s",
    **{f"{m}.module_self_s": "s" for m in MODULES},
    "trace.spans": "count",
    "trace.overhead_s": "s",
}


class Tracer:
    """Records spans and counters while installed; one per traced run."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.job = 0
        self.counts: dict[str, float] = defaultdict(float)
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _wrap(self, name, fn, after):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        sig = inspect.signature(fn) if after else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1, self.job]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if after:
                after(self.counts, sig.bind(*args, **kwargs).arguments, result)
            return result
        return wrapper

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items()
                   if n == PACKAGE or n.startswith(PACKAGE + ".")]
        for mod_name, attr, span in TARGETS:
            mod = sys.modules[f"{PACKAGE}.{mod_name}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                owner = getattr(mod, cls_name)
                self._patch(owner, meth, self._wrap(span, getattr(owner, meth), AFTER.get(attr)))
                continue
            fn = getattr(mod, attr)
            wrapped = self._wrap(span, fn, AFTER.get(attr))
            # a function of the package is patched wherever it was imported;
            # a foreign one (scipy's minimize) only in the module named
            owners = modules if getattr(fn, "__module__", "").startswith(PACKAGE) else [mod]
            for owner in owners:
                for key, value in list(vars(owner).items()):
                    if value is fn:
                        self._patch(owner, key, wrapped)

    def _patch(self, owner, key, value) -> None:
        self._patches.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    # -- reporting ---------------------------------------------------------

    def write(self, path) -> None:
        """Spans as JSON lines, times in seconds from the first span."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, job in self.spans:
                fh.write(json.dumps([name, round(start - t0, 9), round(end - t0, 9),
                                     parent, job]) + "\n")

    def layer_metrics(self, passes: int, overhead_s: float) -> dict[str, float]:
        """Per-layer metrics per traced pass."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls: dict[str, int] = defaultdict(int)
        total: dict[str, float] = defaultdict(float)
        self_s: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            calls[name] += 1
            total[name] += end - start
            self_s[name] += end - start - child[i]
        c = self.counts
        slsqp_calls = calls["regions_binary.slsqp"]
        gauss_s = total["sim_gaussian.trials"]
        m = {
            "sim_common.stream.calls": calls["sim_common.stream"],
            "sim_common.stream.self_s": self_s["sim_common.stream"],
            "sim_binary.build_codebook.s": total["sim_binary.build_codebook"],
            "sim_binary.codebook_bytes": c["bin_codebook_bytes"],
            "sim_binary.trials.self_s": self_s["sim_binary.trials"],
            "sim_binary.scan_bytes": c["bin_scan_bytes"],
            "sim_binary.useful_ratio": (c["bin_useful"] / c["bin_trials"]
                                        if c["bin_trials"] else 0.0),
            "sim_gaussian.build_codebook.s": total["sim_gaussian.build_codebook"],
            "sim_gaussian.trials.self_s": self_s["sim_gaussian.trials"],
            "sim_gaussian.scan_flops": c["gauss_scan_flops"],
            "sim_gaussian.gflops": c["gauss_scan_flops"] / gauss_s / 1e9 if gauss_s else 0.0,
            "sim_gaussian.score_matrix_bytes": c["gauss_score_matrix_bytes"],
            "pubkey.pk_encode.self_s": self_s["pubkey.pk_encode"],
            "pubkey.pk_decode.self_s": self_s["pubkey.pk_decode"],
            "pubkey.sign.calls": calls["pubkey.sign"],
            "regions_binary.optimize.calls": calls["regions_binary.optimize"],
            "regions_binary.optimize.self_s": self_s["regions_binary.optimize"],
            "regions_binary.slsqp.calls": slsqp_calls,
            "regions_binary.slsqp.s": total["regions_binary.slsqp"],
            "regions_binary.slsqp.nit": c["slsqp_nit"],
            "regions_binary.slsqp.nfev": c["slsqp_nfev"],
            "regions_binary.slsqp.success_ratio": (c["slsqp_success"] / slsqp_calls
                                                   if slsqp_calls else 0.0),
            "regions_binary.boundary.s": total["regions_binary.boundary"],
            "regions_binary.qe_boundary.s": total["regions_binary.qe_boundary"],
            "regions_layered.region_slice.s": total["regions_layered.region_slice"],
            "regions_layered.margin.calls": calls["regions_layered.margin"],
            "regions_layered.margin.s": total["regions_layered.margin"],
            "regions_gaussian.envelope.s": total["regions_gaussian.envelope"],
            "core.binary_entropy.calls": calls["core.binary_entropy"],
            "cli.self_s": self_s["cli.main"],
            "cli.pk_trials.self_s": self_s["cli.pk_trials"],
            "trace.spans": len(self.spans),
        }
        for mod in MODULES:
            m[f"{mod}.module_self_s"] = sum(v for k, v in self_s.items()
                                            if k.split(".")[0] == mod)
        # sums are divided by the passes; ratios, rates and sizes are not sums
        m = {k: v if k.endswith(("_ratio", "gflops", "score_matrix_bytes")) else v / passes
             for k, v in m.items()}
        m["trace.overhead_s"] = overhead_s
        return {k: m[k] for k in LAYER_UNITS}


# -- counters computed from a call's arguments and result ------------------

def _words(n: int) -> int:
    return (n + 63) // 64


def _after_bin_codebook(c, a, cb):
    c["bin_codebook_bytes"] += cb.words.nbytes + cb.admissible.nbytes


def _bin_trials(c, config, cb, stats, attacked: bool):
    # every trial scans the admissible set to encode and the full codebook
    # to decode: trials x (|A| + |C|) x 8W bytes (computed, an upper bound)
    c["bin_scan_bytes"] += config.trials * (cb.n_admissible + cb.count) * 8 * _words(config.n)
    c["bin_trials"] += stats.trials_run
    c["bin_useful"] += stats.attack_trials if attacked else stats.matched + stats.wrong_codeword


def _after_reference(c, a, stats):
    _bin_trials(c, a["config"], a["codebook"], stats, attacked=False)


def _after_attack(c, a, stats):
    _bin_trials(c, a["config"], a["codebook"], stats, attacked=True)


def _after_pk_trials(c, a, result):
    _bin_trials(c, a["config"], a["cb"], result[0], attacked=bool(a["args"].attacker))


def _after_gauss_trials(c, a, stats):
    config, cb = a["config"], a["codebook"]
    chunk = sys.modules[f"{PACKAGE}.sim_gaussian"].CHUNK
    c["gauss_scan_flops"] += config.trials * 2 * config.n * (cb.n_admissible + cb.count)
    c["gauss_score_matrix_bytes"] = max(c["gauss_score_matrix_bytes"], chunk * cb.count * 8)


def _after_minimize(c, a, res):
    c["slsqp_nit"] += int(res.nit)
    c["slsqp_nfev"] += int(res.nfev)
    c["slsqp_success"] += bool(res.success)


AFTER = {
    "build_codebook": _after_bin_codebook,
    "run_reference_trials": _after_reference,
    "run_attack_trials": _after_attack,
    "_run_pk_trials": _after_pk_trials,
    "run_gauss_trials": _after_gauss_trials,
    "minimize": _after_minimize,
}
