"""Spans around the library's public functions, installed from outside.

Each function is replaced, for the length of a traced pass, on the module
attribute its callers actually look up: `formulas` calls `fib` through
`treewiener.formulas.fib`, `cli` calls `parse` through `treewiener.cli.parse`,
and so on.  Nothing under src/ is edited.  A span is (name, parent, start,
end), kept in flat arrays so a pass of a million spans stays small; self
times are derived from the spans after the pass.
"""

from array import array
from time import perf_counter

# (module, attribute, span name).  `fib` is looked up by two modules.
TARGETS = (
    ("cli", "main", "cli.main"),
    ("formulas", "fib", "exact.fib"),
    ("trees", "fib", "exact.fib"),
    ("formulas", "fib_table", "exact.fib_table"),
    ("formulas", "exact_div", "exact.exact_div"),
    ("formulas", "wiener_binomial", "formulas.wiener_binomial"),
    ("formulas", "wiener_binomial_recurrence", "formulas.wiener_binomial_recurrence"),
    ("formulas", "wiener_fib", "formulas.wiener_fib"),
    ("formulas", "wiener_binfib", "formulas.wiener_binfib"),
    ("formulas", "d_binfib", "formulas.d_binfib"),
    ("compose", "replay_family", "compose.replay_family"),
    ("compose", "join", "compose.join"),
    ("cli", "generate", "trees.generate"),
    ("cli", "serialize", "trees.serialize"),
    ("cli", "parse", "trees.parse"),
    ("oracle", "wiener_bfs", "oracle.wiener_bfs"),
    ("oracle", "wiener_linear", "oracle.wiener_linear"),
)


def _formula_bits(counters, args, result):
    counters["formulas.max_result_bits"] = max(
        counters["formulas.max_result_bits"], abs(result).bit_length())


def _generated(counters, args, result):
    counters["trees.nodes_materialized"] += result.n


def _serialized(counters, args, result):
    counters["trees.edge_list_bytes"] += len(result)


def _parsed(counters, args, result):
    counters["trees.nodes_materialized"] += result.n
    counters["trees.edge_list_bytes"] += len(args[0])


def _bfs(counters, args, result):
    # Computed, not counted: BFS from each of n sources visits all n vertices.
    counters["oracle.wiener_bfs.vertex_visits"] += args[0].n ** 2


# Counts derived from arguments and results, recorded outside the span.
OBSERVERS = {
    "formulas.wiener_binomial": _formula_bits,
    "formulas.wiener_binomial_recurrence": _formula_bits,
    "formulas.wiener_fib": _formula_bits,
    "formulas.wiener_binfib": _formula_bits,
    "formulas.d_binfib": _formula_bits,
    "trees.generate": _generated,
    "trees.serialize": _serialized,
    "trees.parse": _parsed,
    "oracle.wiener_bfs": _bfs,
}

COUNTERS = ("formulas.max_result_bits", "trees.nodes_materialized",
            "trees.edge_list_bytes", "oracle.wiener_bfs.vertex_visits")


class Tracer:
    """Records spans for every call of the TARGETS while installed."""

    def __init__(self, modules: dict):
        self.modules = modules
        self.names = sorted({name for _, _, name in TARGETS})
        self.missing = [f"{m}.{a}" for m, a, _ in TARGETS
                        if not hasattr(modules[m], a)]
        self._saved = []
        self._reset()

    def _reset(self):
        self.span_name = array("H")
        self.span_parent = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self.counters = dict.fromkeys(COUNTERS, 0)
        self._stack = []

    def _wrap(self, fn, name):
        name_id = self.names.index(name)
        observe = OBSERVERS.get(name)
        span_name, span_parent = self.span_name, self.span_parent
        span_start, span_end, stack = self.span_start, self.span_end, self._stack

        def traced(*args, **kwargs):
            i = len(span_name)
            span_name.append(name_id)
            span_parent.append(stack[-1] if stack else -1)
            span_end.append(0.0)
            stack.append(i)
            span_start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                span_end[i] = perf_counter()
                stack.pop()
            if observe is not None:
                observe(self.counters, args, result)
            return result

        return traced

    def install(self):
        """Wrap every target that exists; start from empty spans."""
        self._reset()
        for module_name, attr, name in TARGETS:
            module = self.modules[module_name]
            if hasattr(module, attr):
                original = getattr(module, attr)
                self._saved.append((module, attr, original))
                setattr(module, attr, self._wrap(original, name))

    def uninstall(self):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def self_times(self) -> dict:
        """{name: (calls, self seconds)}: each span's duration minus the
        durations of its direct children, summed per name."""
        n = len(self.span_name)
        starts, ends, parents = self.span_start, self.span_end, self.span_parent
        child = [0.0] * n
        for i in range(n):  # a parent is always appended before its children
            p = parents[i]
            if p >= 0:
                child[p] += ends[i] - starts[i]
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        for i in range(n):
            k = self.span_name[i]
            calls[k] += 1
            self_s[k] += ends[i] - starts[i] - child[i]
        return {name: (calls[k], self_s[k]) for k, name in enumerate(self.names)}

    def write_spans(self, path):
        """Tab-separated spans, times in seconds from the first span."""
        t0 = self.span_start[0] if len(self.span_start) else 0.0
        with open(path, "w", encoding="ascii") as fh:
            fh.write("span\tparent\tname\tstart_s\tend_s\n")
            for i in range(len(self.span_name)):
                fh.write(f"{i}\t{self.span_parent[i]}\t{self.names[self.span_name[i]]}"
                         f"\t{self.span_start[i] - t0:.9f}\t{self.span_end[i] - t0:.9f}\n")
