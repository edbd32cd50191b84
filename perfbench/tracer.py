"""Spans and counts around calls into eisenkit, recorded from outside the package.

The tracer replaces each public function of the six library layers at every
module attribute it is bound to (the defining module, the modules that
imported it by name, the package namespace and the benchmark's own modules),
so calls between layers go through a wrapper too.  Each wrapped call records
one span: name, start, end and the index of the enclosing span.  Two class
level hooks cover what is not a module function: ``DirichletCharacter.phase``
is counted and timed without a span (it runs hundreds of thousands of times
per sweep), and ``BumpWeight.__post_init__`` stands for the weight's
construction, since ``AmplifierConfig`` builds it through a default factory
bound at class creation.

Spans stay in memory and are written out once the traced pass ends.  Nothing
under ``src/`` is modified; ``restore`` puts every original back.
"""

from __future__ import annotations

import functools
import inspect
import sys
from time import perf_counter

LAYERS = ("special_functions", "lfunctions", "characters", "eisenstein", "supnorm", "amplifier")

# functions whose distinct argument tuples are counted (the recomputation
# a per-params cache would remove shows as distinct_frac well below one)
DISTINCT = frozenset({
    "special_functions.bessel_k",
    "lfunctions.dirichlet_l",
    "lfunctions.lambda_ratio",
    "eisenstein.coefficient_prefactor",
    "eisenstein.scattering_constant",
    "characters.value_table",
})

# bessel_k's busy time is also split by the input band that decides whether
# the float64 route is eligible at all
_BESSEL = "special_functions.bessel_k"
_BESSEL_BAND_LIMIT = 60.0


def _bessel_band(args) -> str:
    return "t_le_60" if abs(complex(args[0].order).imag) <= _BESSEL_BAND_LIMIT else "t_gt_60"


class Stat:
    __slots__ = ("calls", "busy_s", "self_s", "active", "keys", "bands")

    def __init__(self):
        self.calls = 0
        self.busy_s = 0.0      # outermost calls only, so recursion is not counted twice
        self.self_s = 0.0      # duration minus the time covered by child spans
        self.active = 0
        self.keys: set | None = None
        self.bands: dict[str, float] = {}


class Tracer:
    """Spans and per-function stats; ``probe`` is the host-speed probe, whose
    samples' time is taken out of every duration it interrupted."""

    def __init__(self, probe):
        self.probe = probe
        self.enabled = False
        self.stats: dict[str, Stat] = {}
        self.spans: list[list] = []      # [name, start, end, parent index or -1]
        self._stack: list[list] = []     # [span index, child time]
        self._restore: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def _stat(self, name: str) -> Stat:
        stat = self.stats.get(name)
        if stat is None:
            stat = self.stats[name] = Stat()
            if name in DISTINCT:
                stat.keys = set()
        return stat

    def _span_wrapper(self, name: str, fn):
        tracer = self
        stat = self._stat(name)
        band = _bessel_band if name == _BESSEL else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            stack = tracer._stack
            parent = stack[-1] if stack else None
            record = [name, 0.0, 0.0, parent[0] if parent else -1]
            frame = [len(tracer.spans), 0.0]
            tracer.spans.append(record)
            stack.append(frame)
            stat.active += 1
            spent = tracer.probe.spent
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                stat.active -= 1
                dur = end - start - (tracer.probe.spent - spent)
                record[1] = start
                record[2] = end
                stat.calls += 1
                stat.self_s += dur - frame[1]
                if stat.active == 0:
                    stat.busy_s += dur
                if parent is not None:
                    parent[1] += dur
                if stat.keys is not None:
                    stat.keys.add((args, tuple(kwargs.items())))
                if band is not None:
                    b = band(args)
                    stat.bands[b] = stat.bands.get(b, 0.0) + dur

        return wrapper

    def _count_wrapper(self, name: str, fn):
        """Counted and timed, but no span: for methods called per residue."""
        tracer = self
        stat = self._stat(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            spent = tracer.probe.spent
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = perf_counter() - start - (tracer.probe.spent - spent)
                stat.calls += 1
                stat.self_s += dur
                stat.busy_s += dur
                if tracer._stack:
                    tracer._stack[-1][1] += dur

        return wrapper

    # -- installation ----------------------------------------------------------

    def install(self, extra_namespaces=()):
        """Wrap every layer's public functions wherever they are bound."""
        import eisenkit.characters
        import eisenkit.special_functions

        wrappers: dict[int, tuple[object, object]] = {}
        for layer in LAYERS:
            mod = sys.modules[f"eisenkit.{layer}"]
            for attr in mod.__all__:
                obj = getattr(mod, attr)
                if inspect.isclass(obj) or not callable(obj):
                    continue
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                # a generator's body runs between the caller's statements,
                # so a span around it would not nest; none is public in a
                # workload's hot path, so generators are left alone
                if inspect.isgeneratorfunction(inspect.unwrap(obj)):
                    continue
                wrappers[id(obj)] = (obj, self._span_wrapper(f"{layer}.{attr}", obj))

        namespaces = [m for n, m in sys.modules.items()
                      if n == "eisenkit" or n.startswith("eisenkit.")]
        namespaces.extend(extra_namespaces)
        for ns in namespaces:
            for attr, val in list(vars(ns).items()):
                hit = wrappers.get(id(val))
                if hit is not None and hit[0] is val:
                    self._replace(ns, attr, hit[1])

        char_cls = eisenkit.characters.DirichletCharacter
        self._replace(char_cls, "phase",
                      self._count_wrapper("characters.phase", char_cls.phase))
        bump_cls = eisenkit.special_functions.BumpWeight
        self._replace(bump_cls, "__post_init__",
                      self._span_wrapper("special_functions.BumpWeight", bump_cls.__post_init__))

    def _replace(self, owner, attr: str, new):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def restore(self):
        for owner, attr, old in reversed(self._restore):
            setattr(owner, attr, old)
        self._restore.clear()

    # -- results -------------------------------------------------------------

    def layer_self_s(self) -> dict[str, float]:
        """Exclusive time per layer: the self times of its functions summed."""
        out = {layer: 0.0 for layer in LAYERS}
        for name, stat in self.stats.items():
            out[name.split(".", 1)[0]] += stat.self_s
        return out

    def write_spans(self, path, origin: float):
        """One CSV row per span, times in seconds from ``origin``."""
        with open(path, "w") as fh:
            fh.write("id,name,start_s,end_s,parent\n")
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(f"{i},{name},{start - origin:.9f},{end - origin:.9f},{parent}\n")
