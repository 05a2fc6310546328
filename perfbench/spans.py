"""In-memory span tracing of gadic's layers, for the benchmark's traced run.

`Tracer.install` replaces each public function listed in `LAYERS` by a
wrapper that records one span (layer name, start, end, parent span) per
call.  A module-level function is replaced in every gadic module namespace
that bound it by name (`verifier.count_reps_digitdp`, `cli.verify_theorem1`,
the package re-exports, ...); a method is replaced on its class.
`Tracer.uninstall` puts the originals back.  Spans stay in compact arrays
until `write` dumps them once, after measuring.
"""
from __future__ import annotations

import functools
import importlib
import sys
from array import array
from pathlib import Path
from time import perf_counter


def _enumerate_ints(args, kwargs):
    return args[1] if len(args) > 1 else kwargs["N"]


def _sumset_shifts(args, kwargs):
    mask, N = args[0], args[1]
    return (mask & ((1 << (N + 1)) - 1)).bit_count()


def _dp_positions(args, kwargs):
    n = args[1]
    return 0 if n.is_zero() else n.max_index() + 1


# (metric prefix, defining module, attribute; dotted for a method,
#  optional (counter name, work counter taking the call's args and kwargs))
LAYERS = [
    ("core.represent", "gadic.core", "GadicSequence.represent", None),
    ("core.leading_index", "gadic.core", "GadicSequence.leading_index", None),
    ("core.evaluate", "gadic.core", "GadicSequence.evaluate", None),
    ("partition.detect_interval_families", "gadic.partition",
     "detect_interval_families", None),
    ("basis.enumerate", "gadic.basis", "BasisSpec.enumerate",
     ("ints", _enumerate_ints)),
    ("repcount.hfold_sumset_window", "gadic.repcount", "hfold_sumset_window",
     ("shifts", _sumset_shifts)),
    ("repcount.count_reps_digitdp", "gadic.repcount", "count_reps_digitdp",
     ("positions", _dp_positions)),
    ("repcount.check_prefix_inequality", "gadic.repcount",
     "check_prefix_inequality", None),
    ("verifier.verify_theorem1", "gadic.verifier", "verify_theorem1", None),
    ("verifier.verify_theorem2", "gadic.verifier", "verify_theorem2", None),
    ("verifier.removability_scan", "gadic.verifier", "removability_scan", None),
    ("verifier.verify_minimality", "gadic.verifier", "verify_minimality", None),
    ("verifier.construct_witness", "gadic.verifier", "construct_witness", None),
    ("verifier.verify_witness", "gadic.verifier", "verify_witness", None),
    ("verifier.check_lemma1", "gadic.verifier", "check_lemma1", None),
    ("verifier.check_lemma2", "gadic.verifier", "check_lemma2", None),
    ("verifier.random_alternate_decomposition", "gadic.verifier",
     "random_alternate_decomposition", None),
    ("config.load_preset", "gadic.config", "load_preset", None),
    ("cli.main", "gadic.cli", "main", None),
]

TRACE_METRICS = [
    ("trace.wall_s", "s"),            # mean traced pass
    ("trace.untraced_wall_s", "s"),   # mean untraced pass of the same run
    ("trace.overhead_s", "s"),        # traced minus untraced
    ("trace.self_sum_s", "s"),        # sum of all layer self times per pass
]


def metric_names() -> list[tuple[str, str]]:
    """Every per-layer metric the traced run reports, with its unit."""
    out = []
    for name, _, _, counter in LAYERS:
        out += [(f"{name}.calls", "count"), (f"{name}.s", "s"),
                (f"{name}.self_s", "s")]
        if counter:
            out.append((f"{name}.{counter[0]}", "count"))
    return out + TRACE_METRICS


class Tracer:
    def __init__(self):
        self.names = [name for name, _, _, _ in LAYERS]
        self.layer = array("i")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.work = array("q")
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, fn, index: int, counter):
        layer, parent, start, end, work = (self.layer, self.parent,
                                           self.start, self.end, self.work)
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            w = counter(args, kwargs) if counter else 0
            i = len(start)
            layer.append(index)
            parent.append(stack[-1])
            work.append(w)
            end.append(0.0)
            stack.append(i)
            start.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                end[i] = perf_counter()
                stack.pop()

        return traced

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items()
                   if name == "gadic" or name.startswith("gadic.")]
        for index, (_, module, attr, counter) in enumerate(LAYERS):
            owner = importlib.import_module(module)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                fn = cls.__dict__[meth]
                self._patch(cls, meth, fn,
                            self._wrap(fn, index, counter and counter[1]))
                continue
            fn = getattr(owner, attr)
            wrapped = self._wrap(fn, index, counter and counter[1])
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is fn:
                        self._patch(mod, name, fn, wrapped)

    def _patch(self, owner, name: str, original, value) -> None:
        self._patches.append((owner, name, original))
        setattr(owner, name, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    def aggregate(self, passes: int) -> dict[str, float]:
        """Per-pass means of calls, inclusive time, self time and work
        counts per layer, plus the sum of all self times."""
        n_layers = len(self.names)
        calls = [0] * n_layers
        total = [0.0] * n_layers
        own = [0.0] * n_layers
        work = [0] * n_layers
        child = [0.0] * len(self.start)
        for i in range(len(self.start)):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        for i in range(len(self.start)):
            k = self.layer[i]
            d = self.end[i] - self.start[i]
            calls[k] += 1
            total[k] += d
            own[k] += d - child[i]
            work[k] += self.work[i]
        out: dict[str, float] = {}
        for k, (name, _, _, counter) in enumerate(LAYERS):
            out[f"{name}.calls"] = calls[k] / passes
            out[f"{name}.s"] = total[k] / passes
            out[f"{name}.self_s"] = own[k] / passes
            if counter:
                out[f"{name}.{counter[0]}"] = work[k] / passes
        out["trace.self_sum_s"] = sum(own) / passes
        return out

    def write(self, path: Path) -> None:
        """Dump every span as `id parent layer start end`, tab-separated."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as f:
            f.write("id\tparent\tlayer\tstart\tend\n")
            for i in range(len(self.start)):
                f.write(f"{i}\t{self.parent[i]}\t{self.names[self.layer[i]]}"
                        f"\t{self.start[i]!r}\t{self.end[i]!r}\n")
