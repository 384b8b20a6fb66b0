"""Spans and counters recorded from outside the program.

The program is not edited: public functions of each layer are replaced, in
every spinroots module that refers to them, by wrappers that record a span
(name, start, end, parent, pass), and operator methods of the field,
multivector and quaternion classes are replaced by wrappers that count
calls and keep a sample of their operands.  ``uninstall`` puts every
original back, so untraced passes and the operand timings run the
program's own code.
"""

from __future__ import annotations

import statistics
import sys
from collections import Counter
from time import perf_counter

# (module, function, span name); a verify_root_system span is named after
# the rank of the system it verifies.
SPAN_FUNCTIONS = (
    ("spingroup", "run_pipeline", "spingroup.pipeline"),
    ("spingroup", "generate_rotors", "spingroup.rotors"),
    ("spingroup", "generate_versor_group", "spingroup.versors"),
    ("spingroup", "classify_versors", "spingroup.census"),
    ("spingroup", "check_pure_quaternion_subrootsystem",
     "spingroup.pure_check"),
    ("spingroup", "induce_rank4", "spingroup.rank4"),
    ("spingroup", "generate_from_two", "spingroup.two_gen"),
    ("spingroup", "catalog_match", "spingroup.catalog_match"),
    ("coxeter", "orbit_closure", "coxeter.orbit_closure"),
    ("coxeter", "verify_root_system", "coxeter.verify_rank"),
    ("coxeter", "cartan_matrix", "coxeter.cartan"),
    ("quaternion", "catalog", "quaternion.catalog"),
)
CLOSURES = ("spingroup.rotors", "spingroup.versors", "spingroup.two_gen")

SAMPLE_CAP = {"exactfield.mul": 1024, "exactfield.inverse": 256,
              "exactfield.sign": 256, "clifford.gp": 256}


class Patches:
    """Replaces module functions and class attributes, and undoes it."""

    def __init__(self, package: str = "spinroots"):
        self.package = package
        self._undo: list[tuple[object, str, object]] = []

    def _modules(self):
        return [m for name, m in sorted(sys.modules.items())
                if m is not None and (name == self.package
                                      or name.startswith(self.package + "."))]

    def function(self, module: str, name: str, make_wrapper) -> bool:
        """Wrap ``module.name`` wherever a spinroots module refers to it."""
        owner = sys.modules.get(f"{self.package}.{module}")
        original = getattr(owner, name, None)
        if original is None:
            return False
        wrapper = make_wrapper(original)
        for mod in self._modules():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, attr, value))
                    setattr(mod, attr, wrapper)
        return True

    def attribute(self, cls, name: str, make_wrapper) -> bool:
        """Wrap a method stored in the class dictionary of ``cls``."""
        original = cls.__dict__.get(name)
        if original is None:
            return False
        self._undo.append((cls, name, original))
        setattr(cls, name, make_wrapper(original))
        return True

    def undo(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


class Sampler:
    """Every stride-th call's operands, the stride doubling at the cap."""

    def __init__(self, cap: int):
        self.cap = cap
        self.items: list = []
        self.stride = 1
        self.seen = 0

    def offer(self, item):
        if self.seen % self.stride == 0:
            self.items.append(item)
            if len(self.items) >= 2 * self.cap:
                self.items = self.items[::2]
                self.stride *= 2
        self.seen += 1


class Tracer:
    """Records spans and counters for the passes run between install and
    uninstall.  Operand samples are kept from the first traced pass only,
    so the per-call timings use the same operands on every run of a seed.
    """

    def __init__(self, spinroots_modules):
        self.mods = spinroots_modules
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.pass_counts: list[Counter] = []
        self.samples = {name: Sampler(cap) for name, cap in SAMPLE_CAP.items()}
        self.originals: dict[str, object] = {}
        self._stack: list[list] = []
        self._patches = Patches()
        self._pass = -1
        self._sampling = False

    # -- wrappers ------------------------------------------------------------

    def _span(self, name: str, original):
        spans, stack, counts = self.spans, self._stack, self.counts
        tracer = self
        by_rank = name == "coxeter.verify_rank"

        def wrapper(*args, **kwargs):
            label = f"{name}{args[0].rank}" if by_rank else name
            rec = [label, 0.0, 0.0, stack[-1][5] if stack else -1,
                   tracer._pass, len(spans), counts["clifford.gp"], 0]
            spans.append(rec)
            stack.append(rec)
            rec[1] = perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
                rec[6] = counts["clifford.gp"] - rec[6]
            if label in CLOSURES:
                rec[7] = len(result)
            return result
        return wrapper

    def _counted(self, key: str, original):
        counts = self.counts
        sampler = self.samples.get(key)
        tracer = self
        if sampler is None:
            def wrapper(*args):
                counts[key] += 1
                return original(*args)
        else:
            def wrapper(*args):
                counts[key] += 1
                if tracer._sampling:
                    sampler.offer(args)
                return original(*args)
        return wrapper

    def _gp(self, original, mv_class):
        counts = self.counts
        sampler = self.samples["clifford.gp"]
        tracer = self

        def wrapper(a, b):
            if isinstance(b, mv_class):
                counts["clifford.gp"] += 1
                if tracer._sampling:
                    sampler.offer((a, b))
            return original(a, b)
        return wrapper

    # -- install / uninstall ---------------------------------------------------

    def install(self, pass_index: int):
        self._pass = pass_index
        self._sampling = pass_index == 0
        self.counts.clear()
        p = self._patches
        for module, func, name in SPAN_FUNCTIONS:
            p.function(module, func,
                       lambda orig, name=name: self._span(name, orig))
        p.function("coxeter", "dot",
                   lambda orig: self._counted("coxeter.dot", orig))
        fs = self.mods.exactfield.FieldScalar
        for attr, key in (("__mul__", "exactfield.mul"),
                          ("__rmul__", "exactfield.mul"),
                          ("__add__", "exactfield.add"),
                          ("__radd__", "exactfield.add"),
                          ("__sub__", "exactfield.add"),
                          ("__rsub__", "exactfield.add"),
                          ("inverse", "exactfield.inverse"),
                          ("sign", "exactfield.sign")):
            if key in SAMPLE_CAP:
                self.originals.setdefault(key, fs.__dict__.get(attr))
            p.attribute(fs, attr,
                        lambda orig, key=key: self._counted(key, orig))
        mv = self.mods.clifford.Multivector
        self.originals.setdefault("clifford.gp", mv.__dict__.get("__mul__"))
        p.attribute(mv, "__mul__", lambda orig: self._gp(orig, mv))
        p.attribute(self.mods.quaternion.Quaternion, "from_spinor",
                    lambda orig: classmethod(self._counted(
                        "quaternion.from_spinor", orig.__func__)))

    def uninstall(self):
        self._patches.undo()
        self._sampling = False
        self.pass_counts.append(Counter(self.counts))

    # -- reduction -------------------------------------------------------------

    def pass_metrics(self, pass_index: int, pass_seconds: float) -> dict:
        """Self times by span name and closure figures for one pass."""
        spans = [s for s in self.spans if s[4] == pass_index]
        child = Counter()
        for s in spans:
            if s[3] >= 0:
                child[s[3]] += s[2] - s[1]
        self_time = Counter()
        top = 0.0
        found = tried = 0
        for s in spans:
            self_time[s[0]] += (s[2] - s[1]) - child[s[5]]
            if s[3] < 0:
                top += s[2] - s[1]
            if s[0] in CLOSURES:
                found += s[7]
                tried += s[6]
        return {"self": self_time, "overhead": pass_seconds - top,
                "closure_yield": found / tried if tried else 0.0}

    def time_per_call(self, key: str, repeats: int = 3) -> float:
        """Mean microseconds of one call of the original method on the
        operands sampled from the first traced pass (median of repeats)."""
        original = self.originals.get(key)
        items = self.samples[key].items
        if original is None or not items:
            return 0.0
        runs = []
        for _ in range(repeats):
            t0 = perf_counter()
            for args in items:
                original(*args)
            runs.append((perf_counter() - t0) / len(items))
        return statistics.median(runs) * 1e6
