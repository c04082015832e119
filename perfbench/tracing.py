"""Span tracer that the traced run installs around fivegsim's public API.

Timed runs never install it. The traced run wraps public functions at every
module that binds them (modules import with ``from .x import y``, so patching
only the defining module would miss most calls) and the class methods that
form each layer's boundary. Spans stay in memory as four parallel arrays and
are written out once, at the end.

A span's self time is its duration minus the durations of its direct
children; ``self_times`` sums that per span name. A boundary that is gone
from the package is listed in ``missing`` instead of failing the run.
"""
from __future__ import annotations

import contextlib
import hashlib
import importlib
import sys
import time
from array import array
from collections import Counter

VALIDATION_CHECKS = (
    "sbi_registration",
    "pfcp_association",
    "ngap_before_registration",
    "heartbeat_cadence",
    "registration_chain",
    "user_plane",
)

# (module, function) -> span name
FUNCTION_SPANS = {
    ("wirefmt", "encode_packet"): "wirefmt.encode",
    ("wirefmt", "gtpu_encapsulate"): "wirefmt.encode",
    ("wirefmt", "encode_tlv"): "wirefmt.encode",
    ("wirefmt", "decode_packet"): "wirefmt.decode",
    ("wirefmt", "gtpu_decapsulate"): "wirefmt.decode",
    ("wirefmt", "decode_tlv"): "wirefmt.decode",
    ("messages", "build"): "messages.build",
    ("messages", "parse"): "messages.parse",
    ("nwdaf", "import_events_text"): "nwdaf.import",
    ("nwdaf", "export_events_text"): "nwdaf.export",
    ("nwdaf", "kpi_packet_counts"): "nwdaf.kpi",
    ("nwdaf", "kpi_throughput_matrix"): "nwdaf.kpi",
    ("validation", "validate_sequences"): "validation",
    **{("validation", f"check_{c}"): f"validation.{c}" for c in VALIDATION_CHECKS},
    ("config", "parse_topology"): "config.parse",
    ("config", "load_topology"): "config.parse",
    ("config", "with_link_loss"): "config.parse",
    ("config", "with_second_gnb"): "config.parse",
    # summary building has no public entry point of its own
    ("runner", "_summarise"): "runner.summary",
}

# span name -> (count, whether it counts the output rather than the input)
SPAN_BYTES = {
    "wirefmt.encode": ("wirefmt.encode.bytes", True),
    "wirefmt.decode": ("wirefmt.decode.bytes", False),
    "nwdaf.import": ("nwdaf.import.bytes", False),
}

# (module, class, method) -> span name
METHOD_SPANS = {
    ("simnet", "Network", "send"): "simnet.send",
    ("simnet", "Network", "tap_emit"): "simnet.tap",
    ("simnet", "Network", "tap_local"): "simnet.tap",
    ("nwdaf", "EventStore", "ingest_tap"): "nwdaf.ingest",
    ("urllc", "DedupWindow", "accept"): "urllc.dedup",
    ("runner", "Testbed", "boot"): "runner.build",
    ("runner", "Testbed", "spawn_ues"): "runner.build",
    ("runner", "Testbed", "invariant_violations"): "runner.invariants",
}

# Entities are attributed to a layer by the module their class lives in.
HANDLE_SPAN = {
    "fivegsim.core_cp": "core_cp.handle",
    "fivegsim.user_plane": "user_plane.handle",
    "fivegsim.ran_ue": "ran_ue.handle",
    "fivegsim.nwdaf": "nwdaf.handle",
}

# Scheduled callbacks are attributed by the module of the callable: timers
# and deferred work of each layer. Packet deliveries are simnet's dispatch.
CALLBACK_SPAN = {
    "fivegsim.simnet": "simnet.clock",
    "fivegsim.core_cp": "core_cp.timer",
    "fivegsim.user_plane": "user_plane.timer",
    "fivegsim.ran_ue": "ran_ue.timer",
    "fivegsim.runner": "runner.timer",
}


class _CountingHashlib:
    """Stands in for ``hashlib`` inside one module and counts bytes hashed."""

    def __init__(self, counts: Counter, key: str):
        self._counts = counts
        self._key = key

    def sha256(self, data=b"", **kwargs):
        self._counts[self._key] += len(data)
        return hashlib.sha256(data, **kwargs)

    def __getattr__(self, name):
        return getattr(hashlib, name)


class Tracer:
    """Records spans (name, start, end, parent) and counts at layer boundaries."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts = array("q")
        self.ends = array("q")
        self.parents = array("q")
        self._stack = [-1]
        self.counts: Counter = Counter()
        self.testbeds: list = []
        self.missing: list[str] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- spans ----------------------------------------------------------------

    def span(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span called ``name``."""
        names, starts, ends, parents, stack = (
            self.names, self.starts, self.ends, self.parents, self._stack
        )
        idx = len(names)
        names.append(name)
        parents.append(stack[-1])
        ends.append(0)
        stack.append(idx)
        starts.append(time.perf_counter_ns())
        try:
            return fn(*args, **kwargs)
        finally:
            ends[idx] = time.perf_counter_ns()
            stack.pop()

    def _timed(self, name: str, fn):
        span, counts = self.span, self.counts
        key, of_result = SPAN_BYTES.get(name, (None, False))

        def wrapper(*args, **kwargs):
            result = span(name, fn, *args, **kwargs)
            if key is not None:
                counts[key] += len(result if of_result else args[0])
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def self_times(self) -> tuple[Counter, Counter]:
        """Per span name: (calls, self time in seconds)."""
        child = [0] * len(self.names)
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                child[parent] += self.ends[i] - self.starts[i]
        calls: Counter = Counter()
        self_ns: Counter = Counter()
        for i, name in enumerate(self.names):
            calls[name] += 1
            self_ns[name] += self.ends[i] - self.starts[i] - child[i]
        return calls, Counter({k: v / 1e9 for k, v in self_ns.items()})

    def write(self, path) -> None:
        """Write every span as ``id parent name start_ns end_ns`` (TSV)."""
        t0 = self.starts[0] if self.starts else 0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("# id\tparent\tname\tstart_ns\tend_ns\n")
            for i, name in enumerate(self.names):
                fh.write(
                    f"{i}\t{self.parents[i]}\t{name}\t{self.starts[i] - t0}\t{self.ends[i] - t0}\n"
                )

    # -- installation -----------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _rebind(self, original, replacement) -> None:
        """Point every fivegsim module's binding of ``original`` at ``replacement``."""
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "fivegsim" or mod_name.startswith("fivegsim.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, attr, replacement)

    def _find(self, module: str, *path: str):
        """``fivegsim.<module>.<path...>``, or None after noting it as missing."""
        try:
            obj = importlib.import_module(f"fivegsim.{module}")
        except ImportError:
            obj = None
        for name in path:
            obj = getattr(obj, name, None)
        if obj is None:
            self.missing.append(".".join((module, *path)))
        return obj

    def install(self) -> None:
        """Wrap the layer boundaries of the imported ``fivegsim`` package."""
        for (module, name), span_name in FUNCTION_SPANS.items():
            fn = self._find(module, name)
            if fn is not None:
                self._rebind(fn, self._timed(span_name, fn))
        for (module, cls_name, attr), span_name in METHOD_SPANS.items():
            method = self._find(module, cls_name, attr)
            if method is not None:
                self._set(self._find(module, cls_name), attr, self._timed(span_name, method))

        span, counts, testbeds = self.span, self.counts, self.testbeds

        doc_content = self._find("user_plane", "document_content")
        if doc_content is not None:
            def counted_document(*args, **kwargs):
                body = doc_content(*args, **kwargs)
                counts["user_plane.doc_bytes"] += len(body)
                return body

            self._rebind(doc_content, counted_document)
        for module in ("user_plane", "ran_ue"):
            if self._find(module, "hashlib") is not None:
                counting = _CountingHashlib(counts, f"{module}.sha256_bytes")
                self._set(sys.modules[f"fivegsim.{module}"], "hashlib", counting)

        build = self._find("runner", "Testbed", "__init__")
        if build is not None:
            def testbed_init(tb, *args, **kwargs):
                span("runner.build", build, tb, *args, **kwargs)
                testbeds.append(tb)

            self._set(self._find("runner", "Testbed"), "__init__", testbed_init)

        handle = self._find("core_cp", "NfEntity", "handle_packet")
        if handle is not None:
            def handle_packet(entity, *args):
                name = HANDLE_SPAN.get(type(entity).__module__, "other.handle")
                return span(name, handle, entity, *args)

            self._set(self._find("core_cp", "NfEntity"), "handle_packet", handle_packet)

        clock = self._find("simnet", "SimClock")
        schedule = self._find("simnet", "SimClock", "schedule")
        run_until = self._find("simnet", "SimClock", "run_until")
        if schedule is not None:
            def clock_schedule(clk, at, fn):
                # every dispatched callback becomes a child span of run_until
                name = CALLBACK_SPAN.get(getattr(fn, "__module__", None), "callback")
                return span("simnet.clock", schedule, clk, at, lambda: span(name, fn))

            self._set(clock, "schedule", clock_schedule)
        if run_until is not None:
            def clock_run_until(clk, t_end):
                processed = span("simnet.clock", run_until, clk, t_end)
                counts["simnet.clock.events"] += processed
                return processed

            self._set(clock, "run_until", clock_run_until)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


@contextlib.contextmanager
def capture_testbeds(fg):
    """Collect every Testbed built inside the block; installs nothing else."""
    cls = fg.runner.Testbed
    build = cls.__init__
    testbeds: list = []

    def init(tb, *args, **kwargs):
        build(tb, *args, **kwargs)
        testbeds.append(tb)

    cls.__init__ = init
    try:
        yield testbeds
    finally:
        cls.__init__ = build
