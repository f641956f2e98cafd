"""Per-layer tracing from outside the library.

``install`` wraps every public function and public method of the
quadgames modules, and the LAPACK-backed ``numpy.linalg`` entry points
that the library calls, in spans.  Nothing inside ``src/`` changes: the
wrappers are rebound in every module namespace that holds the original,
so calls between modules and inside one module are both seen.

A span records its call count, inclusive time, self time (inclusive time
minus the time of the spans it caused) and "entry" time (inclusive time
counted only when the caller is in another layer, so a layer's entry
times sum without double counting).  Spans are aggregated per scope:
one scope per benchmark op, and one for the answer checks, so oracle
work never leaks into an op's counts.  LAPACK spans also add up the
floating-point operations implied by their operand shapes.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

LAYERS = ("cli", "linalg", "game", "sphere", "minmax", "quadratic", "oracle")
LAPACK = ("svd", "eigvalsh", "eigvals", "eigh", "solve")

# Slots of one aggregate record.
CALLS, TOTAL, SELF, ENTRY, FLOP = range(5)


class Tracer:
    """Span stack plus the aggregate of the scope being recorded.

    ``scope`` is None while tracing is paused; wrappers then call
    straight through.
    """

    def __init__(self):
        self.scope: dict | None = None
        self.stack: list[list] = []

    def start(self) -> dict:
        self.scope = {}
        return self.scope

    def stop(self) -> None:
        self.scope = None


def _flop(name: str, args, kwargs) -> float:
    """Floating-point operations of one LAPACK call, from its operand
    shapes (textbook counts, Golub & Van Loan; computed, not measured)."""
    a = args[0] if args else kwargs.get("a")
    shape = getattr(a, "shape", ())
    if len(shape) < 2:
        return 0.0
    batch = 1
    for k in shape[:-2]:
        batch *= k
    m, n = shape[-2], shape[-1]
    if name == "svd":
        big, small = max(m, n), min(m, n)
        compute_uv = kwargs.get("compute_uv", args[2] if len(args) > 2 else True)
        if compute_uv:
            f = 4 * big * big * small + 8 * big * small * small + 9 * small**3
        else:
            f = 4 * big * small * small - 4 * small**3 / 3
    elif name == "eigvalsh":
        f = 4 * n**3 / 3
    elif name == "eigh":
        f = 9 * n**3
    elif name == "eigvals":
        f = 10 * n**3
    else:  # solve
        b = args[1] if len(args) > 1 else kwargs.get("b")
        bshape = getattr(b, "shape", (n,))
        rhs = 1 if len(bshape) <= len(shape) - 1 else bshape[-1]
        f = 2 * n**3 / 3 + 2 * n * n * rhs
    return float(batch * f)


def _wrap(fn, name: str, layer: str, tracer: Tracer, lapack: bool = False):
    clock = time.perf_counter_ns

    @functools.wraps(fn)
    def span(*args, **kwargs):
        scope = tracer.scope
        if scope is None:
            return fn(*args, **kwargs)
        stack = tracer.stack
        parent_layer = stack[-1][1] if stack else None
        frame = [0, layer]
        stack.append(frame)
        t0 = clock()
        try:
            return fn(*args, **kwargs)
        finally:
            dt = clock() - t0
            stack.pop()
            if stack:
                stack[-1][0] += dt
            rec = scope.get(name)
            if rec is None:
                rec = scope[name] = [0, 0, 0, 0, 0.0]
            rec[CALLS] += 1
            rec[TOTAL] += dt
            rec[SELF] += dt - frame[0]
            if parent_layer != layer:
                rec[ENTRY] += dt
            if lapack:
                rec[FLOP] += _flop(fn.__name__, args, kwargs)

    span.__wrapped_by_bench__ = True
    return span


def install(tracer: Tracer) -> None:
    """Wrap the public API of every quadgames layer and numpy.linalg.

    Call after ``quadgames`` (and ``quadgames.cli``, if it is used) is
    imported; layers not yet imported are left alone.
    """
    import numpy as np

    replace: dict[int, object] = {}
    loaded = [layer for layer in LAYERS if f"quadgames.{layer}" in sys.modules]
    modules = [sys.modules[f"quadgames.{layer}"] for layer in loaded]
    for layer, mod in zip(loaded, modules):
        for attr, obj in list(vars(mod).items()):
            if attr.startswith("_"):
                continue
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                replace[id(obj)] = _wrap(obj, f"{layer}.{attr}", layer, tracer)
            elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                for meth, fn in list(vars(obj).items()):
                    if meth.startswith("_") or not inspect.isfunction(fn):
                        continue
                    setattr(
                        obj,
                        meth,
                        _wrap(fn, f"{layer}.{obj.__name__}.{meth}", layer, tracer),
                    )
    for mod in modules + [sys.modules["quadgames"]]:
        for attr, obj in list(vars(mod).items()):
            if id(obj) in replace:
                setattr(mod, attr, replace[id(obj)])
    for name in LAPACK:
        fn = getattr(np.linalg, name)
        if getattr(fn, "__wrapped_by_bench__", False):
            continue
        setattr(np.linalg, name, _wrap(fn, f"lapack.{name}", "lapack", tracer, True))


def merge(into: dict, scope: dict) -> dict:
    for name, rec in scope.items():
        acc = into.get(name)
        if acc is None:
            into[name] = list(rec)
        else:
            for i, v in enumerate(rec):
                acc[i] += v
    return into


def lapack_counts(scope: dict) -> tuple[int, ...]:
    """The per-function LAPACK call counts of one scope, as a tuple."""
    return tuple(scope.get(f"lapack.{name}", (0,))[CALLS] for name in LAPACK)


# ----------------------------------------------------------------------
# python -X importtime


def parse_importtime(stderr: str) -> list:
    """Import tree from ``-X importtime`` lines: [name, self_us, cum_us, children]."""
    stack: list = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        self_part, cum_part, label = line.split("|", 2)
        self_us = int(self_part.split(":", 1)[1])
        # The label is one space, then two spaces per nesting level.
        name = label[1:].rstrip()
        level = (len(name) - len(name.lstrip(" "))) // 2
        node = [name.strip(), self_us, int(cum_part), [], level]
        while stack and stack[-1][4] > level:
            node[3].append(stack.pop())
        stack.append(node)
    return stack


def import_profile(stderr: str, entry: str) -> dict:
    """Split the import of ``entry`` into numpy, scipy and quadgames' own
    share.  Each module's self time goes to its nearest ancestor (or
    itself) in one of those packages, so stdlib modules that numpy pulls
    in count as numpy.  Times in milliseconds."""
    roots = parse_importtime(stderr)
    shares = {"numpy": 0, "scipy": 0, "quadgames": 0, "other": 0}
    total = 0

    def group_of(name: str, inherited: str) -> str:
        top = name.split(".", 1)[0]
        return top if top in ("numpy", "scipy", "quadgames") else inherited

    def walk(node, inherited):
        group = group_of(node[0], inherited)
        shares[group] += node[1]
        for child in node[3]:
            walk(child, group)

    for root in roots:
        if root[0] == entry or root[0].split(".", 1)[0] == entry.split(".", 1)[0]:
            total += root[2]
            walk(root, "other")
    return {
        "import_ms": total / 1000.0,
        "import_numpy_ms": shares["numpy"] / 1000.0,
        "import_scipy_ms": shares["scipy"] / 1000.0,
        "import_self_ms": shares["quadgames"] / 1000.0,
    }
