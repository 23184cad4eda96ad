"""Span tracing from outside the program, for the per-layer run.

``Tracer.install`` replaces every public function of the socksort layer
modules at every module-level binding in ``socksort.*``, so calls between
modules are captured as well as calls from the benchmark.  ``cli`` is not
a layer: its time is what no wrapped call covers.  Each wrapped call
records a span (name, start, end, parent, run id).  A generator's span
runs from the call to exhaustion, but it is busy only while resumed, so
its busy time counts only those resumptions.  A span's self time is its
busy time minus the busy time of its child spans; summed over all spans,
self times add up to the root span's wall time exactly.

Spans are kept in flat arrays while the run lasts, written to a file when
it ends, and analysed from that file.
"""

from __future__ import annotations

import inspect
import json
import math
import sys
import time
import types
from array import array
from collections import Counter
from collections.abc import Mapping
from pathlib import Path

LAYER_MODULES = (
    "core",
    "patterns",
    "stack_machine",
    "image_membership",
    "preimage_fertility",
    "multipattern",
)
ROOT_NAME = "cli"
NO_PARENT = -1

# name, array typecode; one entry per span in each array
FIELDS = (
    ("name", "H"),
    ("parent", "i"),
    ("run", "i"),
    ("start", "d"),
    ("end", "d"),
    ("busy", "d"),
    ("size", "q"),  # socks in the first argument, or raw arrangements
    ("count", "q"),  # items yielded, or preimages found
    ("failed", "b"),
)


def _socks(args, kwargs) -> int:
    first = args[0] if args else None
    return len(first) if isinstance(first, (tuple, list)) else 0


def raw_arrangements(socks) -> int:
    """n! / prod(c_i!) for a sock multiset given as a mapping or iterable."""
    counts = Counter(dict(socks)) if isinstance(socks, Mapping) else Counter(socks)
    total = math.factorial(sum(counts.values()))
    for c in counts.values():
        total //= math.factorial(c)
    return total


def _arrangement_size(args, kwargs) -> int:
    socks = args[0] if args else kwargs["socks"]
    return raw_arrangements(socks)


def _preimages_found(result) -> int:
    return result.count


SIZE_OF = {"core.enumerate_multiset_arrangements": _arrangement_size}
COUNT_OF = {"preimage_fertility.preimages_of": _preimages_found}
RECORD_ARGS = ("stack_machine.phi",)


def layer_functions(package) -> dict[str, object]:
    """Public functions defined in each layer module, by 'module.name'."""
    found = {}
    for short in LAYER_MODULES:
        module = sys.modules[f"{package.__name__}.{short}"]
        for attr, value in vars(module).items():
            if attr.startswith("_"):
                continue
            is_function = isinstance(value, types.FunctionType) or hasattr(value, "cache_info")
            if is_function and getattr(value, "__module__", None) == module.__name__:
                found[f"{short}.{attr}"] = value
    return found


class Tracer:
    """Records spans for one traced run.  Not reentrant across threads."""

    def __init__(self) -> None:
        self.names: list[str] = [ROOT_NAME]
        self.arrays = {field: array(code) for field, code in FIELDS}
        self.stack: list[int] = []
        self.run_id = 0
        self.recorded: dict[str, list] = {name: [] for name in RECORD_ARGS}
        self._saved: list[tuple[object, str, object]] = []

    # -- installing ---------------------------------------------------------

    def install(self, package) -> int:
        """Wrap every layer function at every socksort binding; returns the
        number of bindings replaced."""
        targets = layer_functions(package)
        wrappers = {}
        for name, fn in targets.items():
            self.names.append(name)
            nid = len(self.names) - 1
            if inspect.isgeneratorfunction(fn):
                wrappers[id(fn)] = self._wrap_generator(nid, name, fn)
            else:
                wrappers[id(fn)] = self._wrap_call(nid, name, fn)
        prefix = package.__name__ + "."
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == package.__name__ or mod_name.startswith(prefix)):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._saved.append((module, attr, value))
                    setattr(module, attr, wrapper)
        return len(self._saved)

    def restore(self) -> None:
        """Put every replaced binding back."""
        for module, attr, value in reversed(self._saved):
            setattr(module, attr, value)
        self._saved.clear()

    # -- spans --------------------------------------------------------------

    def _open(self, nid: int, size: int) -> int:
        a = self.arrays
        i = len(a["start"])
        a["name"].append(nid)
        a["parent"].append(self.stack[-1] if self.stack else NO_PARENT)
        a["run"].append(self.run_id)
        a["end"].append(0.0)
        a["busy"].append(0.0)
        a["size"].append(size)
        a["count"].append(0)
        a["failed"].append(0)
        a["start"].append(time.perf_counter())
        return i

    def begin_root(self) -> None:
        """Open the root span; everything until end_root runs inside it."""
        self.stack.append(self._open(0, 0))

    def end_root(self) -> None:
        root = self.stack[0]
        t = time.perf_counter()
        a = self.arrays
        a["end"][root] = t
        a["busy"][root] = t - a["start"][root]
        del self.stack[:]

    def _wrap_call(self, nid: int, name: str, fn):
        a = self.arrays
        end, busy, count, failed = a["end"], a["busy"], a["count"], a["failed"]
        stack = self.stack
        clock = time.perf_counter
        open_ = self._open
        size_of = SIZE_OF.get(name, _socks)
        count_of = COUNT_OF.get(name)
        recorded = self.recorded.get(name)

        def wrapper(*args, **kwargs):
            depth = len(stack)
            i = open_(nid, size_of(args, kwargs))
            stack.append(i)
            t0 = a["start"][i]
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                failed[i] = 1
                raise
            finally:
                t1 = clock()
                del stack[depth:]
                end[i] = t1
                busy[i] = t1 - t0
            if count_of is not None:
                count[i] = count_of(result)
            if recorded is not None:
                recorded.append((args, kwargs))
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def _wrap_generator(self, nid: int, name: str, fn):
        a = self.arrays
        end, busy, count, failed = a["end"], a["busy"], a["count"], a["failed"]
        stack = self.stack
        clock = time.perf_counter
        open_ = self._open
        size_of = SIZE_OF.get(name, _socks)

        def drive(i: int, gen):
            yielded = 0
            active = 0.0
            try:
                while True:
                    depth = len(stack)
                    stack.append(i)
                    t0 = clock()
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    except BaseException:
                        failed[i] = 1
                        raise
                    finally:
                        active += clock() - t0
                        del stack[depth:]
                    yielded += 1
                    yield item
            finally:
                end[i] = clock()
                busy[i] = active
                count[i] = yielded

        def wrapper(*args, **kwargs):
            i = open_(nid, size_of(args, kwargs))
            return drive(i, fn(*args, **kwargs))

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    # -- output -------------------------------------------------------------

    def save(self, path: Path, meta: dict) -> None:
        """Header line (JSON), then each array's raw bytes in FIELDS order."""
        n = len(self.arrays["start"])
        if any(len(arr) != n for arr in self.arrays.values()):
            raise RuntimeError("span arrays out of step")
        header = {"names": self.names, "spans": n,
                  "fields": [list(f) for f in FIELDS], "meta": meta}
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for field, _ in FIELDS:
                self.arrays[field].tofile(fh)


def load(path: Path) -> tuple[dict, dict[str, array]]:
    """Read a spans file written by Tracer.save."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        arrays = {}
        for field, code in header["fields"]:
            arr = array(code)
            arr.fromfile(fh, header["spans"])
            arrays[field] = arr
    return header, arrays


class Spans:
    """Analysis of a loaded span set."""

    def __init__(self, names: list[str], arrays: dict[str, array]) -> None:
        self.names = names
        self.a = arrays
        parent, busy, nm = arrays["parent"], arrays["busy"], arrays["name"]
        self.self_time = array("d", busy)
        self.by_name: dict[str, list[int]] = {name: [] for name in names}
        self.roots: list[int] = []
        for i, p in enumerate(parent):
            self.by_name[names[nm[i]]].append(i)
            if p == NO_PARENT:
                self.roots.append(i)
            else:
                self.self_time[p] -= busy[i]

    def outermost(self, name: str) -> list[int]:
        """Spans of name not opened inside a span of the same name, so a
        recursive call counts once."""
        nm, parent = self.a["name"], self.a["parent"]
        return [i for i in self.by_name.get(name, ())
                if parent[i] == NO_PARENT or nm[parent[i]] != nm[i]]

    def self_s(self, name: str) -> float:
        return sum(self.self_time[i] for i in self.by_name.get(name, ()))

    def calls(self, name: str) -> int:
        return len(self.outermost(name))

    def total(self, name: str, field: str) -> int:
        """Sum of a field over the outermost spans of name."""
        arr = self.a[field]
        return sum(arr[i] for i in self.outermost(name))

    def failed(self, name: str) -> int:
        return self.total(name, "failed")

    def wall_s(self) -> float:
        return sum(self.a["busy"][i] for i in self.roots)

    def children_of(self, parent_name: str, child_name: str) -> list[int]:
        nm, parent = self.a["name"], self.a["parent"]
        return [i for i in self.by_name.get(child_name, ())
                if parent[i] != NO_PARENT and self.names[nm[parent[i]]] == parent_name]

    def growth(self, name: str, family_of: dict[int, str]) -> float:
        """Busy time per sock at the largest input length divided by that at
        the smallest, over outermost calls, maximised over families.  Runs
        missing from family_of form one family.  0 when no family has two
        lengths."""
        groups: dict[str, dict[int, list[float]]] = {}
        for i in self.outermost(name):
            size = self.a["size"][i]
            if size <= 0:
                continue
            family = family_of.get(self.a["run"][i], "all")
            acc = groups.setdefault(family, {}).setdefault(size, [0.0, 0])
            acc[0] += self.a["busy"][i]
            acc[1] += size
        best = 0.0
        for by_len in groups.values():
            if len(by_len) < 2:
                continue
            lo, hi = by_len[min(by_len)], by_len[max(by_len)]
            if lo[0] > 0:
                best = max(best, (hi[0] / hi[1]) / (lo[0] / lo[1]))
        return best


# ---------------------------------------------------------------------------
# per-layer metrics

IMAGE_FUNCTIONS = (
    "in_image_cons",
    "in_image_aba",
    "phi_cons_via_sandwich",
    "phi_aba_via_decomposition",
)

# (metric, unit); the traced run prints exactly these, in this order
PER_LAYER = (
    ("core.enumerate_standardized.self_s", "s"),
    ("core.enumerate_standardized.yielded", "count"),
    ("core.enumerate_multiset_arrangements.self_s", "s"),
    ("core.enumerate_multiset_arrangements.yielded", "count"),
    ("core.enumerate_multiset_arrangements.yield_ratio", "ratio"),
    ("core.standardize.calls", "count"),
    ("core.standardize.self_s", "s"),
    ("patterns.legality_checks", "count"),
    ("stack_machine.phi.calls", "count"),
    ("stack_machine.phi.socks", "count"),
    ("stack_machine.phi.self_s", "s"),
    ("stack_machine.phi.us_per_sock", "us"),
    ("stack_machine.phi_iterate.self_s", "s"),
    *(
        (f"image_membership.{f}.{stat}", unit)
        for f in IMAGE_FUNCTIONS
        for stat, unit in (("self_s", "s"), ("socks", "count"), ("failed", "count"),
                           ("growth", "ratio"))
    ),
    ("image_membership.sandwich_decompose.self_s", "s"),
    ("image_membership.aba_decompose.self_s", "s"),
    ("preimage_fertility.preimages_of.calls", "count"),
    ("preimage_fertility.preimages_of.self_s", "s"),
    ("preimage_fertility.preimages_of.hit_ratio", "ratio"),
    ("multipattern.count_one_stack_sortable.self_s", "s"),
    ("multipattern.mode_combination_survey.self_s", "s"),
    ("multipattern.unsortable_witness.self_s", "s"),
    ("cli.self_s", "s"),
    ("trace.other_self_s", "s"),
    ("trace.wall_s", "s"),
    ("trace.overhead_ratio", "ratio"),
)


def ratio(num: float, den: float) -> float:
    """num / den, or 0 when nothing was attempted."""
    return num / den if den else 0.0


def legality_checks(recorded, phi_trace) -> int:
    """Push-legality checks done by the recorded phi calls, replayed with
    phi_trace: one per push attempt plus one per forced pop (pops before
    the last push; the final flush checks nothing)."""
    uses: Counter = Counter()
    for args, kwargs in recorded:
        p = args[0] if args else kwargs["p"]
        pats = args[1] if len(args) > 1 else kwargs["pats"]
        uses[(tuple(p), frozenset(pats))] += 1
    total = 0
    for (p, pats), times in uses.items():
        kinds = [ev.kind for ev in phi_trace(p, pats).events]
        last_push = max((i for i, k in enumerate(kinds) if k == "push"), default=-1)
        forced = sum(1 for k in kinds[:last_push] if k == "pop")
        total += (len(p) + forced) * times
    return total


def layer_metrics(spans: Spans, family_of: dict[int, str], checks: int,
                  untraced_wall_s: float, bench_failed: Counter) -> dict[str, dict]:
    """Every PER_LAYER metric from a span set.  bench_failed counts calls
    per function whose result failed the benchmark's reference check."""
    values: dict[str, float] = {}
    listed_self = ["cli"]
    for fn in ("core.enumerate_standardized", "core.enumerate_multiset_arrangements"):
        values[f"{fn}.self_s"] = spans.self_s(fn)
        values[f"{fn}.yielded"] = spans.total(fn, "count")
        listed_self.append(fn)
    arr = "core.enumerate_multiset_arrangements"
    values[f"{arr}.yield_ratio"] = ratio(spans.total(arr, "count"), spans.total(arr, "size"))
    values["core.standardize.calls"] = spans.calls("core.standardize")
    values["core.standardize.self_s"] = spans.self_s("core.standardize")
    values["patterns.legality_checks"] = checks
    phi = "stack_machine.phi"
    values[f"{phi}.calls"] = spans.calls(phi)
    values[f"{phi}.socks"] = spans.total(phi, "size")
    values[f"{phi}.self_s"] = spans.self_s(phi)
    values[f"{phi}.us_per_sock"] = 1e6 * ratio(spans.self_s(phi), spans.total(phi, "size"))
    values["stack_machine.phi_iterate.self_s"] = spans.self_s("stack_machine.phi_iterate")
    listed_self += ["core.standardize", phi, "stack_machine.phi_iterate"]
    for f in IMAGE_FUNCTIONS:
        name = f"image_membership.{f}"
        values[f"{name}.self_s"] = spans.self_s(name)
        values[f"{name}.socks"] = spans.total(name, "size")
        values[f"{name}.failed"] = spans.failed(name) + bench_failed[f]
        values[f"{name}.growth"] = spans.growth(name, family_of)
        listed_self.append(name)
    for name in ("image_membership.sandwich_decompose", "image_membership.aba_decompose"):
        values[f"{name}.self_s"] = spans.self_s(name)
        listed_self.append(name)
    pre = "preimage_fertility.preimages_of"
    candidates = sum(spans.a["count"][i]
                     for i in spans.children_of(pre, "core.enumerate_multiset_arrangements"))
    values[f"{pre}.calls"] = spans.calls(pre)
    values[f"{pre}.self_s"] = spans.self_s(pre)
    values[f"{pre}.hit_ratio"] = ratio(spans.total(pre, "count"), candidates)
    listed_self.append(pre)
    for f in ("count_one_stack_sortable", "mode_combination_survey", "unsortable_witness"):
        values[f"multipattern.{f}.self_s"] = spans.self_s(f"multipattern.{f}")
        listed_self.append(f"multipattern.{f}")
    values["cli.self_s"] = spans.self_s("cli")
    wall = spans.wall_s()
    values["trace.other_self_s"] = wall - sum(spans.self_s(n) for n in listed_self)
    values["trace.wall_s"] = wall
    values["trace.overhead_ratio"] = ratio(wall, untraced_wall_s)
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}
