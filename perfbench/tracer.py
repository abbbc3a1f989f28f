"""Outside-in tracing of qpl: spans and counters around its entry points.

Nothing in qpl is edited.  `Tracer.install` replaces each entry point in the
namespace where its caller looks it up:

* every name `qpl.cli` imports from another qpl module (found by scanning
  the module, so a renamed or removed import is simply skipped), plus the
  CLI's own parsing helpers;
* `qpl.weak.evolve_exact`, `qpl.weak.post_select` and `qpl.weak.unitary_exp`
  for the weak module's internal calls, and `qpl.fock.unitary_exp`.

Only names that some layer metric reads are wrapped (see LAYERS); every
other call stays in its caller's self time, so the layer times of a request
add up to its whole time.  A class is wrapped at construction when its
constructor or one of its methods is in LAYERS, and those methods get spans
on the new instance.  A span records request id, span id, parent span id,
name, start, duration and self time (duration minus the time covered by
child spans and counted calls).  Hot scalar functions get a counter instead
of a span, because a per-call span costs several µs and
`coherent_overlap_closed` is called 65,536 times per request; one call in
SAMPLE_EVERY is timed and its time scaled up, so its time is an estimate.

Spans stay in memory and are written out by `write_spans` at the end.
"""

from __future__ import annotations

import functools
import json
from collections import defaultdict
from time import perf_counter_ns

# Hot scalar entry points: counted, timed by sampling, no span.
HOT = {"coherent.coherent_overlap_closed"}
SAMPLE_EVERY = 32  # power of two

# The CLI's own parsing helpers, looked up in qpl.cli's globals.
CLI_PARSERS = (
    "_read_config",
    "parse_ket_selector",
    "parse_density_selector",
    "parse_obs_selector",
)

# Layer metric -> span or counter names it sums over.
LAYERS = {
    "weak.evolve": ("weak.evolve_exact",),
    "weak.post_select": ("weak.post_select",),
    "weak.first_order": (
        "weak.weak_value",
        "weak.predicted_shift",
        "weak.annihilator_shift_prediction",
    ),
    "linalg.unitary_exp": ("linalg.unitary_exp",),
    "fock.build": ("fock.FockSpace", "fock.FockSpace.coherent"),
    "cli.parse": ("cli.build_parser", "cli.parse_args") + tuple(f"cli.{n}" for n in CLI_PARSERS),
    "cli.other": ("cli.main",),  # the root span: whatever no other layer covers
    "coherent.family": (
        "coherent.CoherentFamily",
        "coherent.CoherentFamily.gram",
        "coherent.CoherentFamily.identity_resolution",
    ),
    "coherent.closed": ("coherent.coherent_overlap_closed",),
    "weylwigner.basis": ("weylwigner.WeylWignerBasis",),
    "weylwigner.commutator": ("weylwigner.StructureConstants.commutator",),
    "weylwigner.wigner_map": ("weylwigner.wigner_map",),
    "serialize": ("serialize.canonical_json", "serialize.csv_text"),
    "schwinger.gauss": ("schwinger.gauss_trace", "schwinger.gauss_trace_closed_form"),
    "modular": ("modular.az_state", "modular.momentum_amplitudes", "modular.nslit_evolve"),
}

# Every span or counter name that feeds a metric; nothing else is wrapped.
TRACED = {name for names in LAYERS.values() for name in names}

# Per-request metrics the traced run reports: name -> unit.
LAYER_METRICS = {
    "weak.evolve_calls": "count",
    "weak.evolve_ms": "ms",
    "weak.post_select_ms": "ms",
    "weak.first_order_ms": "ms",
    "linalg.unitary_exp_calls": "count",
    "linalg.unitary_exp_ms": "ms",
    "linalg.eigh_work": "count",
    "fock.build_ms": "ms",
    "cli.parse_ms": "ms",
    "cli.other_ms": "ms",
    "coherent.family_ms": "ms",
    "coherent.closed_calls": "count",
    "coherent.closed_ms": "ms",
    "weylwigner.basis_ms": "ms",
    "weylwigner.basis_bytes": "bytes",
    "weylwigner.commutator_ms": "ms",
    "weylwigner.wigner_map_ms": "ms",
    "serialize.ms": "ms",
    "serialize.bytes": "bytes",
    "schwinger.gauss_ms": "ms",
    "modular.ms": "ms",
    "trace.request_ms": "ms",
}


def _short(module: str) -> str:
    return module.rsplit(".", 1)[-1]


class Tracer:
    """Span and counter store for one traced run; install, run, uninstall."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.self_ns: dict[str, int] = defaultdict(int)
        self.calls: dict[str, int] = defaultdict(int)
        self.work: dict[str, int] = defaultdict(int)  # computed sizes
        self.hot: dict[str, list[int]] = {}  # hot name -> [calls, estimated ns]
        self.requests = 0
        self.request_ns = 0
        self._request_id = -1
        self._stack: list[list] = []  # [span_id, name, start_ns, child_ns]
        self._next_id = 0
        self._patches: list[tuple] = []

    # ---------------------------------------------------------------- spans

    def _enter(self, name: str) -> list:
        frame = [self._next_id, name, perf_counter_ns(), 0]
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list) -> int:
        end = perf_counter_ns()
        self._stack.pop()
        span_id, name, start, child_ns = frame
        duration = end - start
        own = duration - child_ns
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += duration
        self.self_ns[name] += own
        self.calls[name] += 1
        self.spans.append(
            (self._request_id, span_id, parent[0] if parent else None, name, start, duration, own)
        )
        return duration

    def request(self, fn, *args):
        """Run one request as the root span `cli.main`; ids count from 0."""
        self._request_id = self.requests
        frame = self._enter("cli.main")
        try:
            return fn(*args)
        finally:
            self.request_ns += self._exit(frame)
            self.requests += 1

    def _span(self, fn, name: str, sizer=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = tracer._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(frame)
            if sizer is not None:
                sizer(tracer, args, result)
            return result

        return traced

    def _counter(self, fn, name: str):
        """Count every call; time one call in SAMPLE_EVERY and scale it up."""
        box = self.hot.setdefault(name, [0, 0])  # [calls, estimated ns]
        stack = self._stack
        mask = SAMPLE_EVERY - 1

        @functools.wraps(fn)
        def counted(*args):
            box[0] += 1
            if box[0] & mask:
                return fn(*args)
            start = perf_counter_ns()
            result = fn(*args)
            estimate = (perf_counter_ns() - start) * SAMPLE_EVERY
            box[1] += estimate
            stack[-1][3] += estimate
            return result

        return counted

    def _wrap(self, fn, name: str, sizer=None):
        if name in HOT:
            return self._counter(fn, name)
        return self._span(fn, name, sizer)

    def _class(self, cls, name: str, sizer=None):
        tracer = self
        methods = [t.rsplit(".", 1)[1] for t in sorted(TRACED) if t.startswith(f"{name}.")]
        build = self._span(cls, name, sizer) if name in TRACED else cls

        def construct(*args, **kwargs):
            obj = build(*args, **kwargs)
            for method in methods:
                bound = getattr(obj, method)
                setattr(obj, method, tracer._wrap(bound, f"{name}.{method}"))
            return obj

        return construct

    # ------------------------------------------------------------- patching

    def _patch(self, module, attr: str, replacement) -> None:
        self._patches.append((module, attr, getattr(module, attr)))
        setattr(module, attr, replacement)

    def install(self, qpl_cli, qpl_weak, qpl_fock) -> None:
        """Wrap every entry point named in the module docstring."""
        sizers = {
            "linalg.unitary_exp": _eigh_work,
            "weylwigner.WeylWignerBasis": _basis_bytes,
            "serialize.canonical_json": _text_bytes,
            "serialize.csv_text": _text_bytes,
        }
        for attr, obj in sorted(vars(qpl_cli).items()):
            module = getattr(obj, "__module__", "") or ""
            if not callable(obj) or not module.startswith("qpl.") or module == qpl_cli.__name__:
                continue
            name = f"{_short(module)}.{obj.__name__}"
            if isinstance(obj, type):
                if any(t == name or t.startswith(f"{name}.") for t in TRACED):
                    self._patch(qpl_cli, attr, self._class(obj, name, sizers.get(name)))
            elif name in TRACED:
                self._patch(qpl_cli, attr, self._wrap(obj, name, sizers.get(name)))
        for attr in CLI_PARSERS:
            if hasattr(qpl_cli, attr):
                self._patch(qpl_cli, attr, self._span(getattr(qpl_cli, attr), f"cli.{attr}"))
        if hasattr(qpl_cli, "build_parser"):
            self._patch(qpl_cli, "build_parser", self._parser_factory(qpl_cli.build_parser))
        for module, attr in (
            (qpl_weak, "evolve_exact"),
            (qpl_weak, "post_select"),
            (qpl_weak, "unitary_exp"),
            (qpl_fock, "unitary_exp"),
        ):
            if hasattr(module, attr):
                fn = getattr(module, attr)
                name = f"{_short(fn.__module__)}.{fn.__name__}"
                if name in TRACED:
                    self._patch(module, attr, self._wrap(fn, name, sizers.get(name)))

    def _parser_factory(self, build_parser):
        tracer = self
        build = self._span(build_parser, "cli.build_parser")

        def traced_build_parser(*args, **kwargs):
            parser = build(*args, **kwargs)
            parser.parse_args = tracer._span(parser.parse_args, "cli.parse_args")
            return parser

        return traced_build_parser

    def uninstall(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    # -------------------------------------------------------------- results

    def layer_metrics(self) -> dict[str, float]:
        """Per-request means of every metric in LAYER_METRICS."""
        n = max(self.requests, 1)
        self_ns, calls = dict(self.self_ns), dict(self.calls)
        for name, (count, ns) in self.hot.items():
            calls[name], self_ns[name] = count, ns
        out = {}
        for metric, unit in LAYER_METRICS.items():
            layer = metric.removesuffix("_ms").removesuffix(".ms").removesuffix("_calls")
            if layer in LAYERS:
                source = self_ns if unit == "ms" else calls
                scale = 1e6 if unit == "ms" else 1
                out[metric] = sum(source.get(s, 0) for s in LAYERS[layer]) / n / scale
        for metric in ("linalg.eigh_work", "weylwigner.basis_bytes", "serialize.bytes"):
            out[metric] = self.work[metric] / n
        out["trace.request_ms"] = self.request_ns / n / 1e6
        return {metric: out[metric] for metric in LAYER_METRICS}

    def per_request_calls(self, name: str) -> dict[int, int]:
        """Number of spans called `name` in each traced request."""
        counts: dict[int, int] = defaultdict(int)
        for span in self.spans:
            if span[3] == name:
                counts[span[0]] += 1
        return dict(counts)

    def write_spans(self, path) -> None:
        """Write spans as JSON lines, then one line of counter totals."""
        keys = ("request", "span", "parent", "name", "start_ns", "duration_ns", "self_ns")
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")
            hot = {name: {"calls": count, "estimated_ns": ns}
                   for name, (count, ns) in self.hot.items()}
            fh.write(json.dumps({"counters": hot, "work": dict(self.work)}) + "\n")


def _eigh_work(tracer: Tracer, args, result) -> None:
    side = result.shape[0]
    tracer.work["linalg.eigh_work"] += side**3


def _basis_bytes(tracer: Tracer, args, result) -> None:
    tracer.work["weylwigner.basis_bytes"] += result.dim**4 * 16


def _text_bytes(tracer: Tracer, args, result) -> None:
    tracer.work["serialize.bytes"] += len(result.encode())
