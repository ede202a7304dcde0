"""Outside-in tracer for stackseg.

``Tracer.install`` replaces, in place, every reference the ``stackseg``
modules hold to the traced ops and layer entry points with a timing
wrapper, and ``Tracer.uninstall`` puts the originals back. Nothing under
``src/`` is edited. Each op call is timed, counted and attributed to the
network section (the ``analyzer`` sections) of the nearest layer object
on the call stack; the ``backward_fn`` of each returned tensor is wrapped
too, so backward time lands on the same op and section. Spans nest: a
span's self time is its wall time minus its children's.
"""
from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict

import numpy as np

OPS = ("conv2d", "deconv2d", "batch_norm", "softmax_ce_loss", "maxpool2d",
       "bilinear_resize", "dropout", "relu", "concat_channels", "eltwise_add")

# (module, attribute path, span name) of the layer entry points timed as spans
SPANS = (
    ("tensor", "backward", "tensor.backward"),
    ("trainer", "augment", "trainer.augment"),
    ("trainer", "sgd_step", "trainer.sgd_step"),
    ("data", "load_samples", "data.load_samples"),
    ("weights_io", "load_weights", "weights_io.load_weights"),
    ("network", "predict_ms_flip", "network.predict_ms_flip"),
    ("network", "StackedNet.forward", "network.forward"),
    ("network", "StackedNet.losses", "network.losses"),
    ("network", "StackedNet.predict_logits", "network.predict_logits"),
    ("network", "StackedNet.load_state", "network.load_state"),
    ("metrics", "EvalAccumulator.update", "metrics.update"),
)

MB = float(1 << 20)
_FRAMES = 8  # how far up the stack an op call looks for its layer object


def conv_work(w_shape, out_shape, itemsize):
    """(flop, im2col bytes) of one conv2d forward, from shapes alone."""
    n, co, oh, ow = out_shape
    _, ci, kh, kw = w_shape
    patch = n * ci * kh * kw * oh * ow
    return 2 * co * patch, patch * itemsize


def deconv_work(x_shape, w_shape):
    """Flop of one deconv2d forward: the (co*k*k, ci) x (ci, h*w) GEMM."""
    n, ci, h, w = x_shape
    _, co, kh, kw = w_shape
    return 2 * n * ci * co * kh * kw * h * w


def _root(a):
    while isinstance(a.base, np.ndarray):
        a = a.base
    return a


class Tracer:
    def __init__(self):
        self.inclusive = defaultdict(float)   # span -> seconds
        self.self_time = defaultdict(float)
        self.calls = defaultdict(int)
        self.section_time = defaultdict(float)  # (section, "fwd"|"bwd")
        self.section_flop = defaultdict(int)
        self.flop = defaultdict(int)            # op -> forward flop
        self.im2col_bytes = 0
        self.loaded_bytes = 0                   # payload read by load_weights
        self.graph_nodes = 0
        self.graph_bytes = 0
        self.sections = {}                      # id(layer object) -> section
        self._stack = []
        self._patched = []                      # (owner, name, original)

    # -- install / uninstall ----------------------------------------------

    def attach(self, net):
        """Map every layer object of ``net`` to its analyzer section."""
        self.sections = {id(net): "heads"}
        roots = [("encoder", net.encoder), ("skips", net.skip4),
                 ("skips", net.skip8), ("entry", net.entry)]
        roots += [(f"unit{i + 1}", u) for i, u in enumerate(net.units)]
        roots += [("heads", h) for h in net.heads.values()]
        for section, obj in roots:
            self._claim(obj, section)

    def _claim(self, obj, section):
        if isinstance(obj, (list, tuple)):
            for item in obj:
                self._claim(item, section)
        elif isinstance(obj, dict):
            for item in obj.values():
                self._claim(item, section)
        elif type(obj).__module__.startswith("stackseg.") \
                and hasattr(obj, "__dict__") and id(obj) not in self.sections:
            self.sections[id(obj)] = section
            for item in vars(obj).values():
                self._claim(item, section)

    def install(self):
        if self._patched:
            raise RuntimeError("tracer is already installed")
        import stackseg.ops as ops
        for name in OPS:
            op = getattr(ops, name)
            self._replace_everywhere(op, self._op_wrapper(name, op))
        for module, attr, span in SPANS:
            mod = importlib.import_module(f"stackseg.{module}")
            owner_name, _, fn_name = attr.rpartition(".")
            if owner_name:
                owner = getattr(mod, owner_name)
                original = owner.__dict__[fn_name]
                self._patched.append((owner, fn_name, original))
                setattr(owner, fn_name, self._span_wrapper(original, span))
            else:
                original = getattr(mod, fn_name)
                self._replace_everywhere(original,
                                         self._span_wrapper(original, span))

    def uninstall(self):
        while self._patched:
            owner, name, original = self._patched.pop()
            setattr(owner, name, original)

    def _replace_everywhere(self, original, wrapper):
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "stackseg"
                                   or mod_name.startswith("stackseg.")):
                continue
            for name, value in list(vars(mod).items()):
                if value is original:
                    self._patched.append((mod, name, original))
                    setattr(mod, name, wrapper)

    # -- timing ------------------------------------------------------------

    def _enter(self):
        self._stack.append([0.0, 0.0])  # [children seconds, excluded seconds]
        return time.perf_counter()

    def _exit(self, key, t0):
        child, excluded = self._stack.pop()
        dt = time.perf_counter() - t0 - excluded
        self.inclusive[key] += dt
        self.self_time[key] += dt - child
        self.calls[key] += 1
        if self._stack:
            self._stack[-1][0] += dt
        return dt

    def _exclude(self, seconds):
        """Keep tracer bookkeeping out of every open span."""
        for frame in self._stack:
            frame[1] += seconds

    def _span_wrapper(self, fn, span):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = tracer._enter()
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._exit(span, t0)
            if span == "network.forward":
                tracer._graph_stats(out)
            elif span == "weights_io.load_weights":
                tracer.loaded_bytes += sum(v.nbytes for v in out.values())
            return out
        return wrapper

    def _section_of_caller(self):
        frame = sys._getframe(2)
        for _ in range(_FRAMES):
            if frame is None:
                break
            owner = frame.f_locals.get("self")
            if owner is not None and id(owner) in self.sections:
                return self.sections[id(owner)]
            frame = frame.f_back
        return "other"

    def _op_wrapper(self, name, op):
        tracer = self

        @functools.wraps(op)
        def wrapper(*args, **kwargs):
            t_look = time.perf_counter()
            section = tracer._section_of_caller()
            tracer._exclude(time.perf_counter() - t_look)
            t0 = tracer._enter()
            try:
                out = op(*args, **kwargs)
            finally:
                dt = tracer._exit(f"ops.{name}.fwd", t0)
            tracer.section_time[(section, "fwd")] += dt
            t1 = time.perf_counter()
            tracer._count_work(name, section, args, kwargs, out)
            fn = out.backward_fn
            if fn is not None and not getattr(fn, "_traced", False) \
                    and not any(out is a for a in args):
                out.backward_fn = tracer._backward_wrapper(fn, name, section)
            tracer._exclude(time.perf_counter() - t1)
            return out
        return wrapper

    def _backward_wrapper(self, fn, name, section):
        tracer = self

        def wrapper(g):
            t0 = tracer._enter()
            try:
                return fn(g)
            finally:
                dt = tracer._exit(f"ops.{name}.bwd", t0)
                tracer.section_time[(section, "bwd")] += dt

        wrapper._traced = True
        wrapper.__wrapped__ = fn
        return wrapper

    def _count_work(self, name, section, args, kwargs, out):
        if name == "conv2d":
            w = args[1] if len(args) > 1 else kwargs["w"]
            flop, nbytes = conv_work(w.shape, out.shape, out.data.itemsize)
            self.im2col_bytes += nbytes
        elif name == "deconv2d":
            x, w = args[0], args[1] if len(args) > 1 else kwargs["w"]
            flop = deconv_work(x.shape, w.shape)
        else:
            return
        self.flop[name] += flop
        self.section_flop[section] += flop

    def _graph_stats(self, maps):
        """Nodes and bytes a forward's graph keeps alive: node data plus the
        arrays captured by backward closures, parameters excluded."""
        from stackseg.tensor import toposort
        t0 = time.perf_counter()
        nodes = toposort(list(maps.values()))
        params = {id(_root(n.data)) for n in nodes if n.param is not None}
        held = {}
        for node in nodes:
            arrays = [] if node.param is not None else [node.data]
            fn = node.backward_fn
            fn = getattr(fn, "__wrapped__", fn)
            for cell in getattr(fn, "__closure__", None) or ():
                try:
                    value = cell.cell_contents
                except ValueError:  # empty cell
                    continue
                if isinstance(value, np.ndarray):
                    arrays.append(value)
            for a in arrays:
                r = _root(a)
                if id(r) not in params:
                    held[id(r)] = r.nbytes
        self.graph_nodes = max(self.graph_nodes, len(nodes))
        self.graph_bytes = max(self.graph_bytes, sum(held.values()))
        self._exclude(time.perf_counter() - t0)

    # -- results -----------------------------------------------------------

    def metrics(self, steps):
        """Per-step (iteration or image) figures; set-up spans per call."""
        ms = 1000.0 / steps
        out = {}
        for name in OPS:
            fwd = self.inclusive[f"ops.{name}.fwd"]
            bwd = self.inclusive[f"ops.{name}.bwd"]
            out[f"ops.{name}.fwd_ms"] = fwd * ms
            out[f"ops.{name}.bwd_ms"] = bwd * ms
            out[f"ops.{name}.ms"] = (fwd + bwd) * ms
            out[f"ops.{name}.calls"] = self.calls[f"ops.{name}.fwd"] / steps
        conv_fwd = self.inclusive["ops.conv2d.fwd"]
        out["ops.conv2d.gflop"] = self.flop["conv2d"] / 1e9 / steps
        out["ops.deconv2d.gflop"] = self.flop["deconv2d"] / 1e9 / steps
        out["ops.conv2d.im2col_mb"] = self.im2col_bytes / MB / steps
        out["ops.conv2d.gflop_per_s"] = (self.flop["conv2d"] / 1e9 / conv_fwd
                                         if conv_fwd else 0.0)
        for section in sorted({s for s, _ in self.section_time}
                              | set(self.section_flop)):
            fwd = self.section_time[(section, "fwd")]
            bwd = self.section_time[(section, "bwd")]
            out[f"section.{section}.fwd_ms"] = fwd * ms
            out[f"section.{section}.bwd_ms"] = bwd * ms
            out[f"section.{section}.ms"] = (fwd + bwd) * ms
            out[f"section.{section}.gflop"] = self.section_flop[section] / 1e9 / steps
        # backward's children are the ops' backward spans, so its self time
        # is the graph walk and gradient accumulation
        out["tensor.backward.ms"] = self.inclusive["tensor.backward"] * ms
        out["tensor.backward.self_ms"] = self.self_time["tensor.backward"] * ms
        out["tensor.graph.nodes"] = self.graph_nodes
        out["tensor.graph.retained_mb"] = self.graph_bytes / MB
        for span in ("network.forward", "network.losses", "network.predict_logits",
                     "network.predict_ms_flip", "trainer.augment",
                     "trainer.sgd_step", "metrics.update"):
            out[f"{span}.ms"] = self.inclusive[span] * ms
            out[f"{span}.self_ms"] = self.self_time[span] * ms
        for span in ("data.load_samples", "weights_io.load_weights",
                     "network.load_state"):
            calls = self.calls[span]
            out[f"{span}.ms"] = 1000.0 * self.inclusive[span] / calls if calls else 0.0
        load = self.inclusive["weights_io.load_weights"]
        out["weights_io.load_weights.mb_per_s"] = \
            self.loaded_bytes / MB / load if load else 0.0
        return out
