"""Per-layer tracing of jetsym from outside the package.

Every public function of each layer module is replaced by a wrapper in
every ``jetsym.*`` namespace that bound it by name (``from .expr import
normalize`` makes a binding of its own), so calls through any of them
are seen.  ``backend`` is the public face of the polynomial kernel: its
functions are rebound in ``backend`` (which ``expr`` reaches as
``_k.poly_mul``) and in the modules that imported them, never inside the
kernel implementation.  Methods are wrapped on their class.

Self time uses a stack: each call's duration is added to its caller's
child time, and a call's self time is its duration minus that child
time, which stays correct under recursion (``normalize -> _rf_of ->
normalize``).  Spans (name, start, end, parent span, task id) are kept
in memory for the layers above the kernel; ``backend`` and ``_gcd`` run
about 10^5 times per file, so they only update counters.

Usage, in place of ``python -m jetsym.cli``::

    python perfbench/tracer.py OUT.json [jetsym arguments ...]

OUT.json receives the per-function counters and the spans.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
import types

LAYERS = ("parsing", "problemfile", "expr", "backend", "_gcd", "jets",
          "prolong", "symmetry", "gauge", "cli")
COUNTER_ONLY = ("backend", "_gcd")
METHODS = {"jets": ("JetVectorField.apply",)}
KERNEL_IMPLS = ("jetsym._kernel_py", "jetsym._kernel_cy")


class Tracer:
    def __init__(self):
        # one frame per active wrapped call: [child seconds, span id]
        self.stack = [[0.0, None]]
        self.stats = {}  # qualified name -> [calls, self seconds, active depth]
        self.extra = {}  # "<name>.<stat>" -> accumulated value
        self.spans = []
        self.task = None

    def add(self, key, value):
        self.extra[key] = self.extra.get(key, 0) + value

    def wrap(self, name, fn, *, spans, post=None, task_arg=False):
        stack = self.stack
        stat = self.stats.setdefault(name, [0, 0.0, 0])
        span_list = self.spans
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            parent = stack[-1]
            sid = parent[1]
            if spans:
                sid = len(span_list)
                span_list.append(None)
            frame = [0.0, sid]
            stack.append(frame)
            stat[2] += 1
            if task_arg:
                tracer.task = args[1].task_id
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                stat[2] -= 1
                dur = end - start
                parent[0] += dur
                stat[0] += 1
                stat[1] += dur - frame[0]
                if spans:
                    span_list[sid] = (name, start, end, parent[1], tracer.task)
                if task_arg:
                    tracer.task = None
            if post is not None:
                post(args, result, stat[2] == 0)
            return result

        return traced

    def report(self) -> dict:
        out = {}
        for name, (calls, self_s, _active) in self.stats.items():
            out[f"{name}.calls"] = calls
            out[f"{name}.self_s"] = self_s
        out.update(self.extra)
        return out


def _post_hooks(tracer, jetsym_expr, verdict_probably):
    one = {(): (1, 1)}

    def total_derivative(args, result, _outer):
        tracer.add("jets.total_derivative.out_terms", len(jetsym_expr._rf_of(result)[0]))

    def normalize(args, result, _outer):
        tracer.add("expr.normalize.noop", 1 if result is args[0] else 0)

    def poly_mul(args, result, _outer):
        tracer.add("backend.poly_mul.term_products", len(args[0]) * len(args[1]))

    def poly_gcd(args, result, _outer):
        tracer.add("_gcd.poly_gcd.nontrivial", 0 if result == one else 1)

    def zero_verdict(args, result, _outer):
        tracer.add("expr.zero_verdict.probably", 1 if result is verdict_probably else 0)

    def to_string(args, result, outer):
        # nested calls render parts of the same text; count printed text once
        if outer:
            tracer.add("expr.to_string.chars", len(result))

    return {
        "jets.total_derivative": total_derivative,
        "expr.normalize": normalize,
        "backend.poly_mul": poly_mul,
        "_gcd.poly_gcd": poly_gcd,
        "expr.zero_verdict": zero_verdict,
        "expr.to_string": to_string,
    }


def _public_functions(module):
    for attr, value in sorted(vars(module).items()):
        if attr.startswith("_") or not callable(value) or isinstance(value, type):
            continue
        if isinstance(value, types.ModuleType):
            continue
        if module.__name__.endswith(".backend"):
            owner = getattr(value, "__module__", None) or ""
            if owner in KERNEL_IMPLS or isinstance(value, types.BuiltinFunctionType):
                yield attr, value
        elif getattr(value, "__module__", None) == module.__name__:
            yield attr, value


def install(tracer: Tracer) -> None:
    """Wrap every layer's public functions and the listed methods."""
    for layer in LAYERS:
        importlib.import_module(f"jetsym.{layer}")
    jetsym_expr = sys.modules["jetsym.expr"]
    posts = _post_hooks(tracer, jetsym_expr, jetsym_expr.Verdict.PROBABLY)
    namespaces = [m for n, m in sorted(sys.modules.items())
                  if (n == "jetsym" or n.startswith("jetsym.")) and n not in KERNEL_IMPLS]
    for layer in LAYERS:
        module = sys.modules[f"jetsym.{layer}"]
        for attr, fn in list(_public_functions(module)):
            name = f"{layer}.{attr}"
            wrapper = tracer.wrap(
                name, fn, spans=layer not in COUNTER_ONLY, post=posts.get(name),
                task_arg=(name == "cli.run_task"),
            )
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is fn:
                        setattr(ns, key, wrapper)
        for qual in METHODS.get(layer, ()):
            cls_name, meth = qual.split(".")
            cls = getattr(module, cls_name)
            setattr(cls, meth, tracer.wrap(f"{layer}.{qual}", getattr(cls, meth), spans=True))


def main(argv) -> int:
    out_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    install(tracer)
    cli = sys.modules["jetsym.cli"]
    try:
        code = cli.main(cli_args)
    finally:
        with open(out_path, "w", encoding="utf-8") as handle:
            json.dump({"stats": tracer.report(), "spans": tracer.spans}, handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
