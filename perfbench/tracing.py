"""Spans around calls into kernelcert's public functions, and their totals.

The benchmark installs the wrappers from its own code; nothing in the
library changes.  A wrapper replaces a function in every kernelcert module
that holds it, under any name, so a call from one module into another (for
example ``DiscreteSignedMeasure.__sub__`` calling ``construct``) is caught as
well as a call from the benchmark.

Spans are kept in memory as plain records and written out once, at the end.
Self time is a span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import time
from dataclasses import asdict, dataclass, field

PACKAGE = "kernelcert"
MODULES = ("measures", "kernels", "embedding", "numerics", "certify",
           "witness", "weaktopo", "cli")


@dataclass
class Span:
    name: str
    key: str | None
    start: float
    end: float
    parent: int | None
    request: int | None
    counts: dict = field(default_factory=dict)
    failed: bool = False


# Per-function hooks.  ``pre(args)`` returns (args, key, counts) before the
# call; ``post(result, args, counts)`` adds counts from the result.

def _construct_pre(args):
    atoms = args[1]
    if not isinstance(atoms, (list, tuple)):
        atoms = list(atoms)  # a one-shot iterable: count it, then pass it on
    return (args[0], atoms) + tuple(args[2:]), None, {"atoms_in": len(atoms)}


def _construct_post(result, args, counts):
    counts["atoms_out"] = result.n_atoms


def _cross_gram_post(result, args, counts):
    # the lag array (n*m*dim) and the output (n*m), in float64: computed,
    # not measured, bytes
    k = args[0]
    pairs = int(result.size)
    counts["pairs"] = pairs
    counts["bytes_computed"] = 8 * pairs * (k.space.dim + 1)


def _lags_pre(args):
    return args, None, {"lags": len(args[1])}


def _cosine_pre(args):
    return args, type(args[2]).__name__, {"lags": len(args[1])}


def _family_pre(args):
    return args, args[0].family, {}


def _lp_post(result, args, counts):
    c = args[0]
    a_ub = args[1] if len(args) > 1 else None
    a_eq = args[3] if len(args) > 3 else None
    counts["rows"] = sum(len(a) for a in (a_ub, a_eq) if a is not None)
    counts["cols"] = len(c)


# (module, attribute path, pre, post)
PROBES = (
    ("measures", "construct", _construct_pre, _construct_post),
    ("measures", "sinc_sq_spectrum", None, None),
    ("measures", "ModulatedSincSq.l1_norm", None, None),
    ("kernels", "cross_gram", None, _cross_gram_post),
    ("kernels", "axis_spectral_transform", _lags_pre, None),
    ("kernels", "gaussian_rate_axis_transform", None, None),
    ("kernels", "mixing_components", None, None),
    ("embedding", "energy_spatial", None, None),
    ("embedding", "energy_spectral", _family_pre, None),
    ("embedding", "mmd", None, None),
    ("numerics", "cosine_transform_even", _cosine_pre, None),
    ("numerics", "integrate_1d", None, None),
    ("numerics", "solve_lp", None, _lp_post),
    ("certify", "certify", None, None),
    ("certify", "audit_implications", None, None),
    ("certify", "check_strict_pd_numeric", None, None),
    ("witness", "construct_witness", None, None),
    ("weaktopo", "bounded_lipschitz", None, None),
    ("cli", "main", None, None),
)


class Tracer:
    """Records spans while installed, of calls made inside a request only;
    ``request`` tags every span opened."""

    def __init__(self):
        self.spans: list[Span] = []
        self.request: int | None = None
        self._stack: list[int] = []
        self._undo: list = []

    def open(self, name, key=None):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, key, time.perf_counter(), 0.0, parent, self.request))
        self._stack.append(sid)
        return self.spans[sid]

    def close(self, span):
        span.end = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def request_span(self, rid):
        """One request: a root span named ``request`` that tags its children."""
        self.request = rid
        span = self.open("request")
        try:
            yield
        finally:
            self.close(span)
            self.request = None

    def wrap(self, name, fn, pre, post):
        tracer = self

        def traced(*args, **kwargs):
            if tracer.request is None:
                # outside a request: the benchmark's own checks
                return fn(*args, **kwargs)
            key, counts = None, {}
            if pre is not None:
                args, key, counts = pre(args)
            span = tracer.open(name, key)
            span.counts = counts
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.failed = True
                raise
            finally:
                tracer.close(span)
            if post is not None:
                post(result, args, counts)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        pkg = importlib.import_module(PACKAGE)
        mods = [pkg] + [importlib.import_module(f"{PACKAGE}.{m}") for m in MODULES]
        for mod_name, path, pre, post in PROBES:
            home = importlib.import_module(f"{PACKAGE}.{mod_name}")
            owner_path, _, attr = path.rpartition(".")
            owner = getattr(home, owner_path) if owner_path else home
            orig = getattr(owner, attr)
            wrapped = self.wrap(f"{mod_name}.{path}", orig, pre, post)
            if owner_path:
                # a method: replacing it on the class covers every instance
                setattr(owner, attr, wrapped)
                self._undo.append((owner, attr, orig))
                continue
            for mod in mods:
                for name, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, name, wrapped)
                        self._undo.append((mod, name, orig))

    def uninstall(self):
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()

    def write(self, path):
        with open(path, "w") as fh:
            for sid, span in enumerate(self.spans):
                fh.write(json.dumps({"id": sid, **asdict(span)}) + "\n")


def self_times(spans):
    """Each span's duration minus its direct children's durations.

    Spans are opened and closed in stack order by one thread, so a span's
    direct children never overlap each other or reach past it.
    """
    own = [s.end - s.start for s in spans]
    for span in spans:
        if span.parent is not None:
            own[span.parent] -= span.end - span.start
    return own


def layer_totals(spans):
    """Totals per ``<module>.<function>`` and per ``<...>.<key>``.

    Stats: ``calls``, ``self_s``, ``s`` (inclusive time), ``failed`` and
    every work count the hooks recorded.
    """
    out: dict[str, float] = {}

    def add(name, stat, value):
        out[f"{name}.{stat}"] = out.get(f"{name}.{stat}", 0) + value

    for span, own in zip(spans, self_times(spans)):
        if span.name == "request":
            continue
        names = [span.name] + ([f"{span.name}.{span.key}"] if span.key else [])
        for name in names:
            add(name, "calls", 1)
            add(name, "self_s", own)
            add(name, "s", span.end - span.start)
            add(name, "failed", int(span.failed))
            for stat, value in span.counts.items():
                add(name, stat, value)
    return out
