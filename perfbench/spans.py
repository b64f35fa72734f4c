"""Call spans around privcell's public functions, recorded from outside.

A Tracer replaces each function in LAYERS, wherever a privcell module
holds a reference to it, with a wrapper that appends one span
[name, start, end, parent index, trial id] to an in-memory list and,
for a few functions, adds counts taken from the call's arguments or
result.  Nothing under src/ is changed; uninstalling restores every
reference.  Self time is a span's duration minus the time its direct
child spans cover.
"""

import functools
import json
import sys
from collections import Counter, defaultdict
from time import perf_counter

# (span name, module under privcell, attribute path in that module)
LAYERS = (
    ("harness.prepare", "harness", "prepare"),
    ("harness.run_trial", "harness", "run_trial"),
    ("channel.make_block", "channel", "make_block"),
    ("fw.run_fw", "fw", "run_fw"),
    ("fw.ap_residual", "fw", "ap_residual"),
    ("fw.ap_release_gram", "fw", "ap_release_gram"),
    ("fw.cpu_aggregate_eig", "fw", "cpu_aggregate_eig"),
    ("fw.ap_update", "fw", "ap_update"),
    ("svdmc.run_svd", "svdmc", "run_svd"),
    ("svdmc.trim", "svdmc", "trim"),
    ("svdmc.ap_release_gram", "svdmc", "ap_release_gram"),
    ("svdmc.cpu_topk", "svdmc", "cpu_topk"),
    ("svdmc.ap_complete", "svdmc", "ap_complete"),
    ("privacy.sample_hermitian_noise", "privacy", "sample_hermitian_noise"),
    ("linalg.hermitian_eig", "linalg", "hermitian_eig"),
    ("linalg.hermitize", "linalg", "hermitize"),
    ("estimation.estimate_channel", "estimation", "estimate_channel"),
    ("estimation.detect_local", "estimation", "detect_local"),
    ("estimation.pilot_only_detect_block", "estimation", "pilot_only_detect_block"),
    ("estimation.combine", "estimation", "combine"),
    ("protocol.send", "protocol", "Backhaul.send"),
    ("protocol.round_payloads", "protocol", "Backhaul.round_payloads"),
)


def _noise_counts(out, dim, scale, seed):
    # standard normals drawn: dim*(dim-1) off-diagonal parts plus dim diagonal
    return {"draws": dim * dim if scale else 0}


def _scan_counts(out, net, kind, round_index):
    return {"scanned": len(net.transcript)}


def _fw_counts(out, *args, **kwargs):
    return {"rounds": out.rounds, "clip_events": out.clip_events, "ap_rounds": out.masked_norms.size}


COUNTERS = {
    "privacy.sample_hermitian_noise": _noise_counts,
    "protocol.round_payloads": _scan_counts,
    "fw.run_fw": _fw_counts,
}


class Tracer:
    """Spans and counts for every call of the LAYERS functions while installed."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1, (cycle, point) or None]
        self.counts = Counter()  # "<span name>.<quantity>" -> total
        self.trial = None  # stamped on spans; the caller sets it around each trial
        self.missing = []  # LAYERS entries not found in this version of privcell
        self._stack = []
        self._patches = []  # (owner, attribute, original)

    def _wrap(self, name, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.trial]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if counter is not None:
                for quantity, value in counter(out, *args, **kwargs).items():
                    counts[f"{name}.{quantity}"] += value
            return out

        return traced

    def install(self):
        self.missing = []
        modules = [m for n, m in list(sys.modules.items()) if n == "privcell" or n.startswith("privcell.")]
        for name, module_name, path in LAYERS:
            owner = sys.modules.get(f"privcell.{module_name}")
            *parents, attr = path.split(".")
            for part in parents:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None)
            if original is None:
                self.missing.append(name)
                continue
            wrapper = self._wrap(name, original)
            if parents:  # a method: patch the class once
                self._patch(owner, attr, wrapper)
                continue
            for module in modules:  # every `from .x import f` binding too
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapper)

    def _patch(self, owner, attr, wrapper):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def totals(self):
        """Per span name: (calls, inclusive seconds, self seconds) over spans with a trial id."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, trial in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(lambda: [0, 0.0, 0.0])
        for i, (name, start, end, parent, trial) in enumerate(self.spans):
            if trial is None:
                continue
            row = out[name]
            row[0] += 1
            row[1] += end - start
            row[2] += end - start - child[i]
        return out

    def write(self, path):
        """One JSON array per span, after a header line naming the fields."""
        with open(path, "w") as fh:
            fh.write(json.dumps({"fields": ["name", "start", "end", "parent", "trial"]}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def layer_metrics(tracer, n_trials, backhaul_bytes):
    """Per-trial layer figures from a traced phase of n_trials trials.

    backhaul_bytes is (unicast, broadcast) summed over those trials, read
    from each trial's own ledger.
    """
    totals = tracer.totals()
    counts = tracer.counts
    out = {}
    for name, _module, _path in LAYERS:
        calls, incl, self_s = totals.get(name, (0, 0.0, 0.0))
        out[f"{name}.calls"] = calls / n_trials
        out[f"{name}.s"] = incl / n_trials
        out[f"{name}.self_s"] = self_s / n_trials
    # prepare runs once per sweep point, not per trial: report seconds per call
    prep = [end - start for name, start, end, _p, _t in tracer.spans if name == "harness.prepare"]
    out["harness.prepare.s"] = sum(prep) / len(prep) if prep else 0.0
    out["privacy.sample_hermitian_noise.draws"] = counts["privacy.sample_hermitian_noise.draws"] / n_trials
    out["protocol.round_payloads.scanned"] = counts["protocol.round_payloads.scanned"] / n_trials
    out["protocol.messages"] = out["protocol.send.calls"]
    out["fw.rounds"] = counts["fw.run_fw.rounds"] / n_trials
    ap_rounds = counts["fw.run_fw.ap_rounds"]
    out["fw.clip_ratio"] = counts["fw.run_fw.clip_events"] / ap_rounds if ap_rounds else 0.0
    out["protocol.bytes_unicast"] = backhaul_bytes[0] / n_trials
    out["protocol.bytes_broadcast"] = backhaul_bytes[1] / n_trials
    _calls, trial_s, trial_self = totals.get("harness.run_trial", (0, 0.0, 0.0))
    out["trace.coverage"] = 1.0 - trial_self / trial_s if trial_s else 0.0
    return out
