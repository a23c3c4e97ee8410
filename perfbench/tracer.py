"""Outside-in tracing of orefield's layers.

The tracer wraps the public functions and methods listed in `LAYER_TARGETS`
from outside the package: a method is replaced on its class, and a function
is replaced in every loaded `orefield` module that holds it, so a name that
one module imported from another (`skewfrac.gcld`, `extend.newton_root`,
`cli.run_tower_checks`, ...) is traced too.  Nothing inside `src/` changes.

Each call becomes a span (name, start, end, parent, request id) kept in
flat arrays; `summary()` turns the spans into per-layer counts, self times
and the few extra measures the benchmark reports (coefficient bit sizes,
ratios).  A span's self time is its duration minus the time its child spans
cover and minus the tracer's own bookkeeping done on the children's behalf.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array
from collections import Counter


def _fraction_bits(x) -> int:
    return max(x.numerator.bit_length(), x.denominator.bit_length())


def _coords_bits(coords) -> int:
    return max(map(_fraction_bits, coords), default=0)


def _elements_bits(elements) -> int:
    return max((_coords_bits(e.coords) for e in elements), default=0)


# (span name, owner, attribute).  The owner is a module name or
# "module:Class"; a function is rebound wherever a loaded orefield module
# holds it, a method is replaced on its class.  Several targets may share a
# span name (both division sides count as `skewpoly.divmod`).
LAYER_TARGETS = (
    ("ground.mul_coords", "orefield.ground:GroundField", "mul_coords"),
    ("ground.inv_coords", "orefield.ground:GroundField", "inv_coords"),
    ("ground.sigma_coords", "orefield.ground:GroundField", "sigma_coords"),
    ("linalg.rref", "orefield.linalg", "rref"),
    ("linalg.solve_right_generic", "orefield.linalg", "solve_right_generic"),
    ("skewpoly.mul", "orefield.skewpoly:SkewPolynomial", "__mul__"),
    ("skewpoly.divmod", "orefield.skewpoly:SkewPolynomial", "divmod_left"),
    ("skewpoly.divmod", "orefield.skewpoly:SkewPolynomial", "divmod_right"),
    ("skewpoly.gcld", "orefield.skewpoly", "gcld"),
    ("skewpoly.clm", "orefield.skewpoly", "common_left_multiple"),
    ("skewfrac.make", "orefield.skewfrac:SkewFraction", "make"),
    ("skewfrac.add", "orefield.skewfrac:SkewFraction", "__add__"),
    ("skewfrac.mul", "orefield.skewfrac:SkewFraction", "__mul__"),
    ("skewfrac.eq", "orefield.skewfrac:SkewFraction", "__eq__"),
    ("laurent.series_mul", "orefield.laurent:TwistedSeries", "__mul__"),
    ("laurent.series_inv", "orefield.laurent:TwistedSeries", "inv"),
    ("laurent.solve_left", "orefield.laurent", "solve_left"),
    ("laurent.embed_fraction", "orefield.laurent", "embed_fraction"),
    ("laurent.evaluate_poly", "orefield.laurent", "evaluate_poly"),
    ("laurent.newton_root", "orefield.laurent", "newton_root"),
    ("extend.tensor_mul", "orefield.extend:TensorElement", "__mul__"),
    ("extend.tensor_inv", "orefield.extend:TensorElement", "inv"),
    ("extend.ext_tau", "orefield.extend", "ext_tau"),
    ("extend.central_divmod", "orefield.extend:CentralPolynomial", "divmod_by"),
    ("extend.run_scenario_checks", "orefield.extend", "run_scenario_checks"),
    ("tower.run_tower_checks", "orefield.tower", "run_tower_checks"),
    ("tower.nonsquare_certificate", "orefield.tower", "nonsquare_certificate"),
)

# The per-layer metrics of a traced run, in layer order: each span reports
# its calls and self time (or only its self time), plus the listed extras.
# The names are the `per_layer` entries of BENCHMARK.json.
_LAYER_TABLE = (
    ("ground.mul_coords", ("max_bits",)),
    ("ground.inv_coords", ()),
    ("ground.sigma_coords", ()),
    ("linalg.rref", ()),
    ("linalg.solve_right_generic", ()),
    ("skewpoly.mul", ()),
    ("skewpoly.divmod", ()),
    ("skewpoly.gcld", ("nontrivial_ratio",)),
    ("skewpoly.clm", ()),
    ("skewfrac.make", ("max_bits", "max_degree")),
    ("skewfrac.add", ()),
    ("skewfrac.mul", ()),
    ("skewfrac.eq", ()),
    ("laurent.series_mul", ("max_bits",)),
    ("laurent.series_inv", ()),
    ("laurent.solve_left", ()),
    ("laurent.newton_root", ("iterations",)),
    ("extend.tensor_mul", ()),
    ("extend.tensor_inv", ()),
    ("extend.ext_tau", ("retry_ratio",)),
    ("extend.central_divmod", ()),
    ("extend.run_scenario_checks", None),
    ("tower.run_tower_checks", None),
    ("tower.nonsquare_certificate", None),
)
_UNITS = {
    "calls": "count",
    "self_s": "s",
    "max_bits": "bits",
    "max_degree": "degree",
    "nontrivial_ratio": "ratio",
    "retry_ratio": "ratio",
    "iterations": "count",
}
PER_LAYER_METRICS = tuple(
    (f"{span}.{key}", _UNITS[key])
    for span, extras in _LAYER_TABLE
    for key in (("self_s",) if extras is None else ("calls", "self_s", *extras))
) + (("tracer.overhead_s", "s"),)


class Tracer:
    """Spans and counters of one process; `install` starts recording."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.request = array("i")
        self.start = array("d")
        self.end = array("d")
        self.excluded = array("d")  # tracer bookkeeping done for children
        self._stack = [-1]
        self._request = [0]
        self.counts: Counter = Counter()
        self.maxima: Counter = Counter()
        self._restore: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def set_request(self, request_id: int) -> None:
        """Spans recorded from now on belong to this request."""
        self._request[0] = request_id

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, probe=None, on_error=None):
        """`fn` recording one span per call; `probe(result)` runs after the
        span closes and its cost is charged to no span."""
        nid = self._name_id(name)
        names, parents, requests = self.name, self.parent, self.request
        starts, ends, excluded = self.start, self.end, self.excluded
        stack, request = self._stack, self._request
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(names)
            parent = stack[-1]
            names.append(nid)
            parents.append(parent)
            requests.append(request[0])
            ends.append(0.0)
            excluded.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                ends[idx] = clock()
                stack.pop()
                if on_error is not None:
                    on_error(exc)
                raise
            t1 = clock()
            ends[idx] = t1
            stack.pop()
            if probe is not None:
                probe(result)
                if parent >= 0:
                    excluded[parent] += clock() - t1
            return result

        return traced

    def _probes(self, name: str):
        """Extra measures taken on a span's result or error."""
        counts, maxima = self.counts, self.maxima

        def bits_of_coords(result):
            b = _coords_bits(result)
            if b > maxima[name + ".max_bits"]:
                maxima[name + ".max_bits"] = b

        def bits_of_series(result):
            b = _elements_bits(result.coeffs)
            if b > maxima[name + ".max_bits"]:
                maxima[name + ".max_bits"] = b

        def size_of_fraction(result):
            b = max(_elements_bits(result.num.coeffs), _elements_bits(result.den.coeffs))
            if b > maxima[name + ".max_bits"]:
                maxima[name + ".max_bits"] = b
            d = max(result.num.degree, result.den.degree)
            if d > maxima[name + ".max_degree"]:
                maxima[name + ".max_degree"] = d

        def nontrivial_gcld(result):
            if result.degree > 0:
                counts[name + ".nontrivial"] += 1

        insufficient = sys.modules["orefield.errors"].InsufficientPrecision

        def precision_retry(exc):
            if isinstance(exc, insufficient):
                counts[name + ".retries"] += 1

        return {
            "ground.mul_coords": (bits_of_coords, None),
            "laurent.series_mul": (bits_of_series, None),
            "skewfrac.make": (size_of_fraction, None),
            "skewpoly.gcld": (nontrivial_gcld, None),
            "extend.ext_tau": (None, precision_retry),
        }.get(name, (None, None))

    def install(self) -> None:
        """Wrap every target in `LAYER_TARGETS`; the orefield modules must
        already be imported."""
        modules = [m for n, m in list(sys.modules.items()) if n.startswith("orefield")]
        for name, owner, attr in LAYER_TARGETS:
            probe, on_error = self._probes(name)
            module_name, _, class_name = owner.partition(":")
            holder = sys.modules[module_name]
            if class_name:
                cls = getattr(holder, class_name)
                raw = cls.__dict__[attr]
                if isinstance(raw, classmethod):
                    new = classmethod(self.wrap(name, raw.__func__, probe, on_error))
                else:
                    new = self.wrap(name, raw, probe, on_error)
                self._restore.append((cls, attr, raw))
                setattr(cls, attr, new)
                continue
            original = getattr(holder, attr)
            new = self.wrap(name, original, probe, on_error)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._restore.append((module, key, value))
                        setattr(module, key, new)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    # -- reporting ---------------------------------------------------------

    def summary(self) -> dict:
        """Per span name: calls and self time, plus the probe measures."""
        starts, ends, parents, names = self.start, self.end, self.parent, self.name
        covered = array("d", bytes(8 * len(names)))
        for i, p in enumerate(parents):
            if p >= 0:
                covered[p] += ends[i] - starts[i]
        calls = Counter()
        self_s = Counter()
        for i, nid in enumerate(names):
            calls[nid] += 1
            self_s[nid] += ends[i] - starts[i] - covered[i] - self.excluded[i]
        out = {}
        for nid, name in enumerate(self.names):
            out[f"{name}.calls"] = calls[nid]
            out[f"{name}.self_s"] = self_s[nid]
        newton = self._ids.get("laurent.newton_root")
        evaluate = self._ids.get("laurent.evaluate_poly")
        iterations = 0
        if newton is not None and evaluate is not None:
            for i, nid in enumerate(self.name):
                if nid == evaluate and self._has_ancestor(i, newton):
                    iterations += 1
        out["laurent.newton_root.iterations"] = iterations
        out.update(self.maxima)
        out.update(self.counts)
        return out

    def _has_ancestor(self, i: int, nid: int) -> bool:
        p = self.parent[i]
        while p >= 0:
            if self.name[p] == nid:
                return True
            p = self.parent[p]
        return False

    def write_spans(self, path: str, run_id: str) -> None:
        """All spans as JSON columns, so a viewer can rebuild the call tree."""
        with open(path, "w") as fh:
            json.dump(
                {
                    "run": run_id,
                    "names": self.names,
                    "name": self.name.tolist(),
                    "parent": self.parent.tolist(),
                    "request": self.request.tolist(),
                    "start": self.start.tolist(),
                    "end": self.end.tolist(),
                },
                fh,
            )


def merge(summaries: list[dict]) -> dict:
    """Add up summaries of several processes; maxima stay maxima."""
    total: dict = {}
    for s in summaries:
        for key, value in s.items():
            if key.endswith((".max_bits", ".max_degree")):
                total[key] = max(total.get(key, 0), value)
            else:
                total[key] = total.get(key, 0) + value
    return total


def layer_metrics(summary: dict, overhead_s: float) -> dict:
    """The `per_layer` metrics of BENCHMARK.json from a (merged) summary."""
    values = dict(summary)
    gcld = values.get("skewpoly.gcld.calls", 0)
    values["skewpoly.gcld.nontrivial_ratio"] = (
        values.get("skewpoly.gcld.nontrivial", 0) / gcld if gcld else 0.0
    )
    tau = values.get("extend.ext_tau.calls", 0)
    values["extend.ext_tau.retry_ratio"] = (
        values.get("extend.ext_tau.retries", 0) / tau if tau else 0.0
    )
    values["tracer.overhead_s"] = overhead_s
    return {name: {"value": values.get(name, 0), "unit": unit} for name, unit in PER_LAYER_METRICS}
