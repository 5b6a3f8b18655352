"""Fold a gprof flat profile into per-module self-time shares.

Each row of `gprof -b -p` output is attributed to the simulator module
named by the outermost `cdna::<module>::` in its demangled symbol:
parameter lists and function types are dropped first, then the match
with the fewest enclosing template brackets wins (leftmost on ties).  So
`cdna::sim::InplaceCallback<...>` thunks go to `sim`, and
`std::_Function_handler<void (cdna::mem::DmaResult), cdna::core::...>`
goes to `core`, the module whose lambda it runs.  Symbols outside the
simulator's modules (the benchmark's own code, libstdc++ templates not
instantiated on simulator types) fold into `host.other`.
"""

import re

MODULES = ("sim", "cpu", "mem", "nic", "core", "vmm", "os", "net", "workload")
OTHER = "host.other"

_ROW = re.compile(
    r"^\s*(?P<pct>[\d.]+)\s+(?P<cum>[\d.]+)\s+(?P<self>[\d.]+)\s+"
    r"(?:\d+\s+[\d.]+\s+[\d.]+\s+)?(?P<name>\S.*?)\s*$")
_MODULE = re.compile(r"(?<![\w:])cdna::(\w+)::")


def _strip_parens(symbol):
    """Drop every balanced (...) group: parameter lists, function types."""
    out, depth = [], 0
    for ch in symbol:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth = max(0, depth - 1)
        elif depth == 0:
            out.append(ch)
    return "".join(out)


def module_of(symbol):
    """The module a demangled symbol's self time is charged to."""
    text = _strip_parens(symbol)
    best = None
    for m in _MODULE.finditer(text):
        prefix = text[:m.start()]
        depth = prefix.count("<") - prefix.count(">")
        if best is None or depth < best[0]:
            best = (depth, m.group(1))
    if best is None or best[1] not in MODULES:
        return OTHER
    return best[1]


def parse_flat(listing):
    """(self_seconds, symbol) for every row of a `gprof -b -p` listing."""
    rows = []
    for line in listing.splitlines():
        m = _ROW.match(line)
        if m:
            rows.append((float(m.group("self")), m.group("name")))
    return rows


def fold(listing):
    """Per-module share of sampled self time, in percent (sums to 100).

    Returns a dict with one entry per module in MODULES plus OTHER.
    Raises ValueError when the listing holds no sampled time.
    """
    seconds = {name: 0.0 for name in MODULES + (OTHER,)}
    for self_s, symbol in parse_flat(listing):
        seconds[module_of(symbol)] += self_s
    total = sum(seconds.values())
    if total <= 0:
        raise ValueError("gprof listing has no sampled self time")
    return {name: 100.0 * s / total for name, s in seconds.items()}
