"""Per-layer self time from an obs::Tracer Chrome trace.

A span's self time is its duration minus the part of it that its child
spans on the same thread cover. Each span maps to a layer by its name;
a `device.launch` span is split in two: the window in which device workers
ran its blocks (the `device.exec` spans of that launch, on the worker
threads) goes to the kernel's layer (`tron` for the branch kernel, `admm`
for the other component kernels) and the remainder -- waking the workers
and waiting for the last one -- goes to `device`.

The benchmark's own spans around calls that descend into instrumented
layers (WRAPPERS) only group their children: their self time is time no
library span covers, and it is reported as `unattributed`, so layer
coverage measures the library's instrumentation. The `grid.*` spans wrap
single calls into the grid layer with nothing below them and count as grid.
"""

import bisect
import json
from collections import defaultdict

LAYERS = ("grid", "opf", "admm", "tron", "scenario", "device", "serve")
UNATTRIBUTED = "unattributed"
WRAPPERS = ("opf.run", "scenario.construct", "scenario.solve", "scenario.extract", "serve.submit")


def layer_of(name):
    if name in WRAPPERS:
        return UNATTRIBUTED
    if name.startswith("grid."):
        return "grid"
    if name == "tracking.period":
        return "opf"
    if name.startswith(("scenario.", "solver.", "fused.")):
        return "scenario"
    if name.startswith("serve."):
        return "serve"
    if name == "device.launch":
        return "device"
    return None


def load_spans(path):
    with open(path, encoding="utf-8") as handle:
        events = json.load(handle)["traceEvents"]
    spans = []
    for e in events:
        if e.get("ph") == "X":
            spans.append((float(e["ts"]), float(e["dur"]), e["name"], e["tid"], e.get("args", {})))
    return spans


def sweep(thread_spans):
    """Self time and parent of each span on one thread.

    Spans are (ts, dur, ...) tuples. Time at any instant belongs to the
    most recently started span still open, so nested spans get their
    exclusive time and partly overlapping ones share theirs sensibly.
    Returns (self_us, parent) lists indexed like `thread_spans`.
    """
    n = len(thread_spans)
    self_us = [0.0] * n
    parent = [-1] * n
    points = []
    for i, (ts, dur, *_rest) in enumerate(thread_spans):
        if dur <= 0.0:
            continue
        points.append((ts, 1, -dur, i))
        points.append((ts + dur, 0, -ts, i))
    points.sort()
    stack, ended = [], [False] * n
    last = None
    for t, is_start, _key, i in points:
        if stack and last is not None:
            self_us[stack[-1]] += t - last
        last = t
        if is_start:
            parent[i] = stack[-1] if stack else -1
            stack.append(i)
        else:
            ended[i] = True
            while stack and ended[stack[-1]]:
                stack.pop()
    return self_us, parent


def kernel_windows(spans):
    """Per launch (index into spans): the span of its device.exec blocks."""
    launches = defaultdict(list)  # dev -> [(ts, end, index)]
    for i, (ts, dur, name, _tid, args) in enumerate(spans):
        if name == "device.launch":
            launches[args.get("dev", 0)].append((ts, ts + dur, i))
    for dev in launches:
        launches[dev].sort()
    starts = {dev: [lo for lo, _hi, _i in rows] for dev, rows in launches.items()}
    window = {}
    for ts, dur, name, _tid, args in spans:
        if name != "device.exec":
            continue
        dev = args.get("dev", 0)
        rows = launches.get(dev)
        if not rows:
            continue
        k = bisect.bisect_right(starts[dev], ts) - 1
        if k < 0 or ts > rows[k][1]:
            continue
        i = rows[k][2]
        lo, hi = window.get(i, (ts, ts + dur))
        window[i] = (min(lo, ts), max(hi, ts + dur))
    return window


def attribute(spans, tids, branch_blocks=None, under=None):
    """Layer self times (seconds) over the spans of the given threads, and
    the UNATTRIBUTED self time of the benchmark's wrapper spans.

    branch_blocks: block count of the branch (TRON) kernel, used for launches
    outside a fused step (the single-scenario AdmmSolver path). under: when
    set, only spans inside a span of that name count.
    """
    window = kernel_windows(spans)
    totals = defaultdict(float)
    by_tid = defaultdict(list)
    for i, span in enumerate(spans):
        if span[3] in tids:
            by_tid[span[3]].append(i)
    for tid, indices in by_tid.items():
        rows = [spans[i] for i in indices]
        self_us, parent = sweep(rows)
        inside = [under is None] * len(rows)
        if under is not None:
            for j in range(len(rows)):
                k = j
                while k >= 0 and rows[k][2] != under:
                    k = parent[k]
                inside[j] = k >= 0
        for j, (ts, dur, name, _tid, args) in enumerate(rows):
            layer = layer_of(name)
            if layer is None or not inside[j]:
                continue
            if layer != "device":
                totals[layer] += self_us[j] * 1e-6
                continue
            lo, hi = window.get(indices[j], (ts, ts + dur))
            kernel = min(self_us[j], hi - lo)
            pname = rows[parent[j]][2] if parent[j] >= 0 else ""
            if pname.startswith("fused."):
                kernel_layer = "tron" if pname == "fused.branch" else "admm"
            else:
                kernel_layer = "tron" if args.get("blocks") == branch_blocks else "admm"
            totals[kernel_layer] += kernel * 1e-6
            totals["device"] += (self_us[j] - kernel) * 1e-6
    return {layer: totals.get(layer, 0.0) for layer in LAYERS + (UNATTRIBUTED,)}


def thread_of(spans, name):
    for _ts, _dur, span_name, tid, _args in spans:
        if span_name == name:
            return tid
    return None


def phase_totals(spans, tid):
    """Summed duration (seconds) and count of each fused.* phase span."""
    total, count = defaultdict(float), defaultdict(int)
    for _ts, dur, name, span_tid, _args in spans:
        if span_tid == tid and name.startswith("fused."):
            total[name[len("fused."):]] += dur * 1e-6
            count[name[len("fused."):]] += 1
    return total, count
