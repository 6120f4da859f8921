"""Per-layer call counts and self CPU time, from wrappers installed around
the program's functions at their layer boundaries.

The wrappers live here, not in the program.  `install` replaces each
listed function on its defining module or class, and also every name
another `hamiso` module bound to it with `from ... import`, so that calls
such as `cli.decompose` or `decompose.build_quotient` are seen too.  Self
time is a call's CPU time minus the time of the wrapped calls nested in it.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

# (module, qualified name); a class stands for its constructor.
LAYERS = [
    ("gf", "Field"),
    ("space", "PointSpace.measure_mask"),
    ("linalg", "rref"),
    ("linalg", "solve"),
    ("linalg", "nullspace"),
    ("linalg", "vec_mat"),
    ("funspace", "FunctionSpace"),
    ("funspace", "FunctionSpace.coz"),
    ("funspace", "FunctionSpace.weight"),
    ("funspace", "FunctionSpace.enumerate_codewords"),
    ("funspace", "coz_ring"),
    ("funspace", "is_controllable"),
    ("quotient", "build_quotient"),
    ("linmap", "LinMap.apply"),
    ("linmap", "is_isometry"),
    ("linmap", "is_separating"),
    ("decompose", "decompose"),
    ("decompose", "minimal_support"),
    ("decompose", "verify"),
    ("macwilliams", "weight_distribution"),
    ("macwilliams", "monomial_search"),
    ("macwilliams", "isometry_search"),
    ("macwilliams", "equivalence_decide"),
    ("serialize", "load_code"),
    ("serialize", "load_map"),
    ("cli", "main"),
]
ITEMS = "funspace.enumerate_codewords.items"


def metric_names() -> list[str]:
    names = []
    for mod, qual in LAYERS:
        names += [f"{mod}.{qual}.calls", f"{mod}.{qual}.self_s"]
    return names + [ITEMS]


class Tracer:
    def __init__(self):
        self.calls = {f"{m}.{q}": 0 for m, q in LAYERS}
        self.self_s = {f"{m}.{q}": 0.0 for m, q in LAYERS}
        self.items = 0
        self._stack = []  # one [time of wrapped callees] per open call

    def _enter(self):
        self._stack.append([0.0])
        return time.process_time()

    def _leave(self, name, t0):
        elapsed = time.process_time() - t0
        nested = self._stack.pop()[0]
        if self._stack:
            self._stack[-1][0] += elapsed
        self.self_s[name] += elapsed - nested

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.calls[name] += 1
            t0 = self._enter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._leave(name, t0)

        return wrapper

    def wrap_generator(self, name, fn):
        """Time each step of the generator; the consumer's time between steps is not its own."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.calls[name] += 1
            gen = fn(*args, **kwargs)
            while True:
                t0 = self._enter()
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    self._leave(name, t0)
                self.items += 1
                yield item

        return wrapper

    def install(self):
        """Wrap every listed function of the imported `hamiso` package."""
        modules = [m for n, m in sys.modules.items() if n == "hamiso" or n.startswith("hamiso.")]
        for mod_name, qual in LAYERS:
            owner = sys.modules[f"hamiso.{mod_name}"]
            *path, attr = qual.split(".")
            for part in path:
                owner = getattr(owner, part)
            target = getattr(owner, attr)
            if inspect.isclass(target):
                owner, attr = target, "__init__"
            orig = getattr(owner, attr)
            wrap = self.wrap_generator if inspect.isgeneratorfunction(orig) else self.wrap
            wrapped = wrap(f"{mod_name}.{qual}", orig)
            setattr(owner, attr, wrapped)
            if not inspect.isclass(owner):
                for mod in modules:
                    for name, value in list(vars(mod).items()):
                        if value is orig:
                            setattr(mod, name, wrapped)

    def metrics(self) -> dict:
        out = {}
        for name in self.calls:
            out[f"{name}.calls"] = {"value": self.calls[name], "unit": "count"}
            out[f"{name}.self_s"] = {"value": self.self_s[name], "unit": "s"}
        out[ITEMS] = {"value": self.items, "unit": "count"}
        return out
