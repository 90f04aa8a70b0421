"""Outside-in tracing of voaplus layers for the benchmark's traced run.

Each target function is replaced by a wrapper in its defining module or class
and at every `from ... import` site inside the `voaplus` package (for example
`mode` is bound in `vertex`, `reptheory`, `aut4` and `cli`), so every call is
seen whichever module makes it.  A wrapper records one span per call: name,
start, end and the index of the enclosing span.  Spans are held in memory and
written to a file when the traced process ends; `summarize` turns that file
into per-layer counts and self times.
"""

import contextlib
import functools
import json
import sys
import time

# (module, attribute path, outcome counter): the outcome counter names a
# predicate on the return value whose true results are counted as well.
TARGETS = [
    ("vertex", "mode", "nonzero"),
    ("vertex", "virasoro", None),
    ("linalg", "EchelonBasis.reduce", None),
    ("linalg", "EchelonBasis.insert", None),
    ("linalg", "rref", None),
    ("linalg", "kernel_basis", None),
    ("reptheory", "closure", None),
    ("reptheory", "GradedSubspace.insert", "accepted"),
    ("reptheory", "fusion_span", None),
    ("reptheory", "singular_vectors", None),
    ("reptheory", "character_decomposition_suite", None),
    ("numeric", "eta_inverse", None),
    ("numeric", "virasoro_character", None),
    ("numeric", "decompose", None),
    ("numeric", "QSeries.__mul__", None),
    ("fock", "graded_basis", None),
    ("fock", "graded_dim", None),
    ("fock", "weight_terms", None),
    ("aut4", "apply", None),
    ("aut4", "check_automorphism", None),
    ("aut4", "sym3_report", None),
    ("aut4", "e_fixed_check", None),
    ("symn", "invariant_algebra_report", None),
    ("symn", "enumerate_idempotents_n3", None),
    ("symn", "equivariant_product_space_dim", None),
    ("report", "render_json", None),
]

OUTCOMES = {
    # `mode` returns a State, which is falsy when zero.
    "nonzero": bool,
    # `GradedSubspace.insert` returns None unless the space grew.
    "accepted": lambda result: result is not None,
}

# Targets that must record calls on each workload; a zero count there means an
# import site was missed (or the workload no longer exercises the layer).
PAIRED = {
    "closure": [
        "vertex.mode",
        "linalg.EchelonBasis.reduce",
        "linalg.EchelonBasis.insert",
        "reptheory.closure",
        "reptheory.GradedSubspace.insert",
        "fock.graded_dim",
        "fock.weight_terms",
        "report.render_json",
    ],
    "modes": [
        "vertex.mode",
        "vertex.virasoro",
        "linalg.EchelonBasis.reduce",
        "linalg.EchelonBasis.insert",
        "linalg.rref",
        "linalg.kernel_basis",
        "reptheory.GradedSubspace.insert",
        "reptheory.fusion_span",
        "reptheory.singular_vectors",
        "numeric.virasoro_character",
        "fock.graded_basis",
        "fock.graded_dim",
        "fock.weight_terms",
        "aut4.apply",
        "aut4.check_automorphism",
        "aut4.sym3_report",
        "aut4.e_fixed_check",
        "report.render_json",
    ],
    "series": [
        "linalg.rref",
        "linalg.kernel_basis",
        "reptheory.character_decomposition_suite",
        "numeric.eta_inverse",
        "numeric.virasoro_character",
        "numeric.decompose",
        "numeric.QSeries.__mul__",
        "fock.graded_basis",
        "fock.graded_dim",
        "symn.invariant_algebra_report",
        "symn.enumerate_idempotents_n3",
        "symn.equivariant_product_space_dim",
        "report.render_json",
    ],
}

PART_PREFIX = "cli.part_s."


class Tracer:
    """In-memory span recorder; one per traced process."""

    def __init__(self):
        self.names: list = []
        self.spans: list = []  # [name index, start ns, end ns, parent index]
        self.outcomes: dict = {}  # span name -> count of true outcomes
        self._ids: dict = {}
        self._stack: list = []

    def _name_id(self, name: str) -> int:
        name_id = self._ids.get(name)
        if name_id is None:
            name_id = self._ids[name] = len(self.names)
            self.names.append(name)
        return name_id

    def _open(self, name: str) -> list:
        span = [self._name_id(name), 0, 0, self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = time.perf_counter_ns()
        return span

    def _close(self, span: list):
        span[2] = time.perf_counter_ns()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        """Record one span around code the benchmark runs itself."""
        span = self._open(name)
        try:
            yield
        finally:
            self._close(span)

    def wrap(self, name: str, fn, outcome=None):
        predicate = OUTCOMES[outcome] if outcome else None
        if predicate is not None:
            self.outcomes[name] = 0

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if predicate is not None and predicate(result):
                self.outcomes[name] += 1
            return result

        return traced

    def install(self):
        """Replace every target in the loaded voaplus modules by its wrapper."""
        package = {
            mod_name: mod
            for mod_name, mod in sys.modules.items()
            if mod_name == "voaplus" or mod_name.startswith("voaplus.")
        }
        for mod_name, path, outcome in TARGETS:
            name = f"{mod_name}.{path}"
            self._name_id(name)  # listed in the trace even if never called
            owner = package[f"voaplus.{mod_name}"]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            wrapper = self.wrap(name, original, outcome)
            setattr(owner, attr, wrapper)
            if outer:
                continue  # methods are reached through their class only
            for mod in package.values():
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)

    def write(self, path: str):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {"names": self.names, "spans": self.spans, "outcomes": self.outcomes},
                fh,
                separators=(",", ":"),
            )


def summarize(trace: dict) -> dict:
    """Per-name call counts, durations and self times from a written trace.

    A span's self time is its duration minus the time its child spans cover.
    """
    names, spans = trace["names"], trace["spans"]
    child_ns = [0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    out = {}
    for idx, (name_id, start, end, _) in enumerate(spans):
        row = out.setdefault(names[name_id], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += (end - start) / 1e9
        row["self_s"] += (end - start - child_ns[idx]) / 1e9
    for name in names:  # targets never called
        out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
    for name, count in trace["outcomes"].items():
        out[name]["outcome"] = count
    return out
