"""In-memory span tracer around gcope's public functions.

A traced function is replaced at every module attribute that refers to it,
because each caller looks the name up in its own module's globals: for
example `bfs_ball` is called as `gcope.amalgam.bfs_ball` by the pretraining
sampler and as `gcope.transfer.bfs_ball` by `induce_subgraph`. Methods are
replaced once, on their class. Nothing in `src/` changes.

Each call becomes a span (name, start, end, parent span, request id). Self
time is a span's duration minus the duration of its child spans. The
counters that need to look at arguments (adjacency hashes, tape size) run
outside the span and their time is credited to the parent as child time,
so they do not inflate any layer's self time.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import time
from collections import Counter
from contextlib import contextmanager

MODULES = ("graphstore", "projection", "amalgam", "pretrain", "nn", "autodiff",
           "transfer", "checkpoint")

# "<module>.<function>" or "<module>.<Class>.<method>", named by the module
# that defines them.
TRACED = (
    "graphstore.load_dataset",
    "projection.svd_project",
    "amalgam.build_joint_graph", "amalgam.sample_joint_batch", "amalgam.bfs_ball",
    "amalgam.refresh_dynamic_edges",
    "pretrain.local_adjacency", "pretrain.augment", "pretrain.encode_view",
    "pretrain.simgrace_views", "pretrain.nt_xent", "pretrain.reconstruction_loss",
    "nn.gcn_normalize", "nn.GcnEncoder.forward", "nn.FagcnEncoder.forward",
    "nn.graph_readout", "nn.Adam.step",
    "autodiff.Tensor.backward", "autodiff.spmm", "autodiff.gather_rows",
    "autodiff.scatter_add_rows",
    "transfer.induce_subgraph", "transfer.apply_prompt", "transfer.evaluate_model",
    "checkpoint.load_checkpoint",
)

# counts taken at the same boundaries: name -> (unit, better)
COUNTS = {
    "projection.svd_project.failed": ("count", "lower"),
    "amalgam.bfs_ball.nodes_mean": ("nodes", "lower"),
    "nn.gcn_normalize.distinct_ratio": ("fraction", "higher"),
    "autodiff.tape_nodes": ("count", "lower"),
    "autodiff.tape_mb": ("MB", "lower"),
}


def module(name: str):
    """Resolve a gcope submodule. `import gcope.pretrain as m` would bind the
    function that `gcope/__init__.py` re-exports under the same name."""
    return importlib.import_module(f"gcope.{name}")


def _adjacency_key(adj) -> bytes:
    h = hashlib.sha1(repr(adj.shape).encode())
    for arr in (adj.indptr, adj.indices, adj.data):
        h.update(arr.tobytes())
    return h.digest()


def _tape_size(loss) -> tuple[int, int]:
    """Tensors reachable from `loss` and the bytes of their distinct buffers."""
    seen, buffers, stack = set(), {}, [loss]
    while stack:
        t = stack.pop()
        if id(t) in seen:
            continue
        seen.add(id(t))
        base = t.data
        while base.base is not None and hasattr(base.base, "nbytes"):
            base = base.base
        buffers[id(base)] = base.nbytes
        stack.extend(t._parents)
    return len(seen), sum(buffers.values())


class Tracer:
    def __init__(self):
        self.spans = []          # [name, start, end, parent index, request]
        self.request = None
        self._open = []          # indices of open spans
        self._child = []         # child time accumulated per open span
        self.calls = Counter()
        self.self_s = Counter()
        self.svd_failed = 0
        self.ball_nodes = 0
        self.adjacency_keys = set()
        self.tape_nodes = 0
        self.tape_bytes = 0
        self._patched = []

    # ---- spans ----

    def _enter(self, name):
        parent = self._open[-1] if self._open else None
        self.spans.append([name, time.perf_counter(), None, parent, self.request])
        self._open.append(len(self.spans) - 1)
        self._child.append(0.0)

    def _exit(self):
        end = time.perf_counter()
        span = self.spans[self._open.pop()]
        span[2] = end
        dur = end - span[1]
        self.calls[span[0]] += 1
        self.self_s[span[0]] += dur - self._child.pop()
        if self._child:
            self._child[-1] += dur

    def _credit(self, started: float):
        """Hide bookkeeping time from the enclosing span's self time."""
        if self._child:
            self._child[-1] += time.perf_counter() - started

    @contextmanager
    def span(self, name: str):
        self._enter(name)
        try:
            yield
        finally:
            self._exit()

    # ---- wrapping ----

    def _wrap(self, name, fn):
        tracer = self
        before = {"nn.gcn_normalize": self._hash_adjacency,
                  "autodiff.Tensor.backward": self._measure_tape}.get(name)

        def traced(*args, **kwargs):
            if before is not None:
                before(args)
            tracer._enter(name)
            try:
                out = fn(*args, **kwargs)
            except module("errors").ConvergenceFailure:
                if name == "projection.svd_project":
                    tracer.svd_failed += 1
                raise
            finally:
                tracer._exit()
            if name == "amalgam.bfs_ball":
                tracer.ball_nodes += out.size
            return out

        traced.__name__, traced.__qualname__ = fn.__name__, fn.__qualname__
        traced.__doc__, traced.__wrapped__ = fn.__doc__, fn
        return traced

    def _hash_adjacency(self, args):
        t = time.perf_counter()
        self.adjacency_keys.add(_adjacency_key(args[0]))
        self._credit(t)

    def _measure_tape(self, args):
        t = time.perf_counter()
        nodes, nbytes = _tape_size(args[0])
        self.tape_nodes = max(self.tape_nodes, nodes)
        self.tape_bytes = max(self.tape_bytes, nbytes)
        self._credit(t)

    def install(self):
        """Replace every traced function at each gcope module attribute that
        refers to it, and each traced method on its class."""
        mods = [importlib.import_module("gcope")] + [module(m) for m in MODULES]
        for name in TRACED:
            mod_name, *path = name.split(".")
            owner = module(mod_name)
            for part in path[:-1]:
                owner = getattr(owner, part)
            fn = getattr(owner, path[-1])
            traced = self._wrap(name, fn)
            if len(path) > 1:
                targets = [owner]
            else:
                targets = [m for m in mods if vars(m).get(path[-1]) is fn]
            for target in targets:
                self._patched.append((target, path[-1], fn))
                setattr(target, path[-1], traced)

    def uninstall(self):
        for target, attr, fn in reversed(self._patched):
            setattr(target, attr, fn)
        self._patched.clear()

    # ---- results ----

    def metrics(self) -> dict:
        out = {}
        for name in TRACED:
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.self_s"] = self.self_s[name]
        balls = self.calls["amalgam.bfs_ball"]
        norms = self.calls["nn.gcn_normalize"]
        out["projection.svd_project.failed"] = self.svd_failed
        out["amalgam.bfs_ball.nodes_mean"] = self.ball_nodes / balls if balls else 0.0
        out["nn.gcn_normalize.distinct_ratio"] = (
            len(self.adjacency_keys) / norms if norms else 0.0)
        out["autodiff.tape_nodes"] = self.tape_nodes
        out["autodiff.tape_mb"] = self.tape_bytes / 2**20
        return out

    def write_spans(self, path: str):
        with open(path, "w", encoding="utf-8") as f:
            for name, start, end, parent, request in self.spans:
                f.write(json.dumps({"name": name, "start": start, "end": end,
                                    "parent": parent, "request": request}) + "\n")
