"""Span tracer for the benchmark's traced run.

The tracer wraps public functions of the rejsamp layers from outside the
package: a function is rebound in every loaded rejsamp module that holds
it by name (so `from .x import f` call sites are covered too), and a
method is replaced on its class.  The wrappers are installed only while a
traced op runs, so untraced calls execute the unmodified code.

Every wrapped call records a span (id, name, op id, parent span, start,
end, self time) into flat in-memory arrays; the spans are written out
once, at the end.  Self time is the span's duration minus the time its
child spans cover.  A target that no longer exists is reported in
`absent` and its metrics are left out; tracing does not abort.
"""

import array
import functools
import gzip
import itertools
import sys
import time
from collections import Counter

# (span name, module, attribute or Class.method)
TARGETS = (
    ("aesprg.encrypt_block_expanded", "rejsamp.aesprg", "encrypt_block_expanded"),
    ("aesprg.expand_key", "rejsamp.aesprg", "expand_key"),
    ("aesprg.keystream", "rejsamp.aesprg", "keystream"),
    ("sampler.rej_samp", "rejsamp.sampler", "rej_samp"),
    ("sampler.rej_samp_prg", "rejsamp.sampler", "rej_samp_prg"),
    ("hwsim.run_program", "rejsamp.hwsim.core", "run_program"),
    ("hwsim.AesCtrWrapper.run", "rejsamp.hwsim.core", "AesCtrWrapper.run"),
    ("hwsim.RejSampUnit.run", "rejsamp.hwsim.core", "RejSampUnit.run"),
    ("hwsim.ProgramResult.trace_rows", "rejsamp.hwsim.core",
     "ProgramResult.trace_rows"),
    ("hwsim.MemoryModel.read", "rejsamp.hwsim.memory", "MemoryModel.read"),
    ("hwsim.MemoryModel.write", "rejsamp.hwsim.memory", "MemoryModel.write"),
    ("hwsim.isa.decode", "rejsamp.hwsim.isa", "decode"),
    ("hwsim.isa.default_program", "rejsamp.hwsim.isa", "default_program"),
    ("kat.generate_kat", "rejsamp.kat", "generate_kat"),
    ("kat.parse_kat", "rejsamp.kat", "parse_kat"),
    ("kat.verify_kat", "rejsamp.kat", "verify_kat"),
    ("fom.fom_report", "rejsamp.fom", "fom_report"),
    ("cli.main", "rejsamp.cli", "main"),
)

OP = "op"  # root span around one benchmark op
BLOCK = "aesprg.encrypt_block_expanded"
_FIELDS = 7  # sid, name id, op id, parent sid, start ns, end ns, self ns


class Tracer:
    def __init__(self):
        self.names = []
        self.spans = array.array("q")
        self.totals = {}        # name -> [calls, total ns, self ns]
        self.counts = Counter()  # calls per name in the current op
        self.blocks = set()     # distinct counter blocks in the current op
        self.absent = []
        self._ids = itertools.count()
        self._stack = []        # open frames: [sid, ns covered by children]
        self._op_id = -1
        self._sites = []        # (owner, attribute, original, wrapper)
        self._root_fn = None
        self._root = self._wrap(OP, lambda: self._root_fn())
        for name, module, path in TARGETS:
            self._find(name, module, path)

    def _find(self, name, module, path):
        mod = sys.modules.get(module)
        owner_name, _, attr = path.rpartition(".")
        owner = getattr(mod, owner_name, None) if owner_name else mod
        original = vars(owner).get(attr) if owner is not None else None
        if not callable(original):
            self.absent.append(name)
            return
        wrapper = self._wrap(name, original)
        if owner_name:
            self._sites.append((owner, attr, original, wrapper))
            return
        for m in list(sys.modules.values()):
            if getattr(m, "__name__", "").startswith("rejsamp"):
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._sites.append((m, key, original, wrapper))

    def _wrap(self, name, fn):
        self.names.append(name)
        nid = len(self.names) - 1
        totals = self.totals.setdefault(name, [0, 0, 0])
        stack, spans, ids = self._stack, self.spans.extend, self._ids
        clock = time.perf_counter_ns
        tracer = self
        note_block = name == BLOCK

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if note_block:
                tracer._note_block(args, kwargs)
            frame = [next(ids), 0]
            parent = stack[-1][0] if stack else -1
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dt = t1 - t0
                if stack:
                    stack[-1][1] += dt
                self_ns = dt - frame[1]
                spans((frame[0], nid, tracer._op_id, parent, t0, t1, self_ns))
                totals[0] += 1
                totals[1] += dt
                totals[2] += self_ns
                tracer.counts[name] += 1
        return traced

    def _note_block(self, args, kwargs):
        block = args[1] if len(args) > 1 else kwargs.get("block")
        self.blocks.add(block if isinstance(block, bytes) else repr(block))

    def run_op(self, op_id, fn):
        """Run fn() with every target wrapped, under a root span.

        Returns (fn's result, the root span's duration in ns, the call
        counts of this op, the number of distinct counter blocks).
        """
        self._op_id = op_id
        self.counts = Counter()
        self.blocks = set()
        self._root_fn = fn
        before = self.totals[OP][1]
        for owner, attr, _, wrapper in self._sites:
            setattr(owner, attr, wrapper)
        try:
            result = self._root()
        finally:
            for owner, attr, original, _ in self._sites:
                setattr(owner, attr, original)
        dt = self.totals[OP][1] - before
        return result, dt, self.counts, len(self.blocks)

    def write(self, path):
        """Write every span as gzipped CSV:
        sid,name,op,parent,start_ns,end_ns,self_ns (parent -1 for a root)."""
        rows = self.spans
        with gzip.open(path, "wt", compresslevel=1) as f:
            f.write("sid,name,op,parent,start_ns,end_ns,self_ns\n")
            for i in range(0, len(rows), _FIELDS):
                sid, nid, op, parent, t0, t1, self_ns = rows[i:i + _FIELDS]
                f.write(f"{sid},{self.names[nid]},{op},{parent},{t0},{t1},"
                        f"{self_ns}\n")
