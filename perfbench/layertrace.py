"""Span tracing of gausslab's layers from outside the package.

`Tracer.install()` replaces each traced function or method with a wrapper
at every place it is looked up: the defining module or class, and every
`gausslab` module that imported it by name (`cli` and `converse` bind
`gauss_table` and `build_tower` that way).  Each call records one span
(id, parent id, name, start, end) in a flat in-memory array, and the
tracer keeps per-name call counts, self time (duration minus the time of
child spans) and inclusive time (outermost call of a name only).  Spans
are written out only by `dump`, after the measured work has ended.

Counters that are not times (rows, terms, cache builds, rows read) are
recorded by small `before`/`after` hooks on the same wrappers.
"""

from __future__ import annotations

import functools
import json
import sys
from array import array
from time import perf_counter_ns

NS = 1e-9

# (module, attribute path, span name, layer).  The span name doubles as the
# metric prefix; the layer groups self times for the dominant-layer verdict.
# Some entries (cyclo.add, gauss.element, chars.is_regular, ...) feed no
# metric of their own: they are wrapped so that their time counts toward
# their own layer instead of the caller's.
TRACED = [
    ("gausslab.ff", "build_tower", "ff.build_tower", "ff"),
    ("gausslab._accel", "power_table", "accel.power_table", "accel"),
    ("gausslab._accel", "gauss_counts", "accel.gauss_counts", "accel"),
    ("gausslab.cyclo", "get_ring", "cyclo.get_ring", "cyclo"),
    ("gausslab.cyclo", "CycloRing.reduce_matrix", "cyclo.reduce_matrix", "cyclo"),
    ("gausslab.cyclo", "CycloRing.reduce_vector", "cyclo.reduce_vector", "cyclo"),
    ("gausslab.cyclo", "CycloRing.element", "cyclo.element", "cyclo"),
    ("gausslab.cyclo", "CycloElement.__mul__", "cyclo.mul", "cyclo"),
    ("gausslab.cyclo", "CycloElement.__add__", "cyclo.add", "cyclo"),
    ("gausslab.cyclo", "CycloElement.scale", "cyclo.scale", "cyclo"),
    ("gausslab.cyclo", "CycloElement.galois", "cyclo.galois", "cyclo"),
    ("gausslab.cyclo", "CycloElement.lift_to", "cyclo.lift_to", "cyclo"),
    ("gausslab.gauss", "gauss_table", "gauss.gauss_table", "gauss"),
    ("gausslab.gauss", "GaussTable.key", "gauss.key", "gauss"),
    ("gausslab.gauss", "GaussTable.element", "gauss.element", "gauss"),
    ("gausslab.gauss", "gauss_S", "gauss.gauss_S", "gauss"),
    ("gausslab.gauss", "subfield_gauss_sum", "gauss.subfield_gauss_sum", "gauss"),
    ("gausslab.gauss", "ScaledCyclo.__post_init__", "gauss.scaled_cyclo", "gauss"),
    ("gausslab.chars", "orbit_reps", "chars.orbit_reps", "chars"),
    ("gausslab.chars", "MultChar.is_regular", "chars.is_regular", "chars"),
    ("gausslab.converse", "scan_converse", "converse.scan_converse", "converse"),
    ("gausslab.converse", "primitive_scan", "converse.primitive_scan", "converse"),
    ("gausslab.converse", "counterexample_search", "converse.counterexample_search", "converse"),
    ("gausslab.converse", "lemma_suite", "converse.lemma_suite", "converse"),
    ("gausslab.converse", "etale_signature_scan", "converse.etale_signature_scan", "converse"),
    ("gausslab.converse", "mersenne_check", "converse.mersenne_check", "converse"),
    ("gausslab.converse", "_signature_key", "converse.signature_key", "converse"),
    ("gausslab.padic", "embedding_for", "padic.embedding_for", "padic"),
    ("gausslab.padic", "PadicEmbedding.embed", "padic.embed", "padic"),
    ("gausslab.padic", "stickelberger_check", "padic.stickelberger_check", "padic"),
    ("gausslab.padic", "gross_koblitz_check", "padic.gross_koblitz_check", "padic"),
    ("gausslab.gl2", "gl2_group", "gl2.gl2_group", "gl2"),
    ("gausslab.gl2", "CuspidalCharacter.__init__", "gl2.cuspidal", "gl2"),
    ("gausslab.gl2", "gamma_via_bessel", "gl2.gamma_via_bessel", "gl2"),
    ("gausslab.cli", "main", "cli.main", "cli"),
]

# Every public function of `digits` is one span name per function, all in
# the `digits` layer; they are enumerated at install time.
DIGITS_MODULE = "gausslab.digits"

# Spans opened by the harness itself (the library job), so that its own
# loop time is attributed rather than lost.
HARNESS_LAYER = "bench"

LAYERS = ("ff", "accel", "cyclo", "gauss", "chars", "converse", "digits", "padic", "gl2", "cli", HARNESS_LAYER)


class Tracer:
    """In-memory span recorder; one per traced process."""

    def __init__(self):
        self.names: list[str] = []
        self.layer_of: list[str] = []
        self.calls: list[int] = []
        self.self_ns: list[int] = []
        self.incl_ns: list[int] = []
        self._active: list[int] = []
        self._ids: dict[str, int] = {}
        self._stack: list[list[int]] = []  # [span id, ns covered by children]
        self._next_span = 0
        self.spans = array("q")  # span id, parent id, name id, start ns, end ns
        self.counters: dict[str, float] = {}
        self.table_reads: dict[int, set] = {}
        self._restore: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def _name_id(self, name: str, layer: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = len(self.names)
            self._ids[name] = nid
            self.names.append(name)
            self.layer_of.append(layer)
            for lst in (self.calls, self.self_ns, self.incl_ns, self._active):
                lst.append(0)
        return nid

    def count(self, key: str, amount: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def wrap(self, fn, name: str, layer: str, before=None, after=None):
        """Return `fn` wrapped so that every call records one span.

        `before(args)` runs first and its value is passed to
        `after(state, args, result)`, which runs when the call returned.
        """
        nid = self._name_id(name, layer)
        stack, spans = self._stack, self.spans
        calls, self_ns, incl_ns, active = self.calls, self.self_ns, self.incl_ns, self._active
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            state = before(args) if before is not None else None
            sid = tracer._next_span
            tracer._next_span = sid + 1
            parent = stack[-1][0] if stack else -1
            frame = [sid, 0]
            stack.append(frame)
            active[nid] += 1
            t0 = perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                dur = t1 - t0
                if stack:
                    stack[-1][1] += dur
                calls[nid] += 1
                self_ns[nid] += dur - frame[1]
                active[nid] -= 1
                if not active[nid]:
                    incl_ns[nid] += dur
                spans.extend((sid, parent, nid, t0, t1))
            if after is not None:
                after(state, args, out)
            return out

        return traced

    # -- installation ----------------------------------------------------------

    def _replace_everywhere(self, orig, wrapped, owner) -> None:
        targets = [owner] + [
            m for k, m in sorted(sys.modules.items()) if k == "gausslab" or k.startswith("gausslab.")
        ]
        for target in targets:
            for key, value in list(vars(target).items()):
                if value is orig:
                    self._restore.append((target, key, orig))
                    setattr(target, key, wrapped)

    def install(self) -> None:
        """Wrap every traced entry point of the already imported package."""
        import importlib

        hooks = _hooks(self)
        for module_name, path, name, layer in TRACED:
            owner = importlib.import_module(module_name)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            orig = vars(owner)[attr]
            before, after = hooks.get(name, (None, None))
            self._replace_everywhere(orig, self.wrap(orig, name, layer, before, after), owner)
        digits = importlib.import_module(DIGITS_MODULE)
        for attr, fn in sorted(vars(digits).items()):
            if callable(fn) and not isinstance(fn, type) and not attr.startswith("_") \
                    and getattr(fn, "__module__", None) == DIGITS_MODULE:
                self._replace_everywhere(fn, self.wrap(fn, f"digits.{attr}", "digits"), digits)

    def uninstall(self) -> None:
        for target, key, orig in reversed(self._restore):
            setattr(target, key, orig)
        self._restore.clear()

    # -- results -----------------------------------------------------------------

    def stat(self, name: str) -> tuple[int, float, float]:
        """(calls, self seconds, inclusive seconds) of one span name."""
        nid = self._ids.get(name)
        if nid is None:
            return 0, 0.0, 0.0
        return self.calls[nid], self.self_ns[nid] * NS, self.incl_ns[nid] * NS

    def layer_self_s(self) -> dict[str, float]:
        out = {layer: 0.0 for layer in LAYERS}
        for nid, layer in enumerate(self.layer_of):
            out[layer] += self.self_ns[nid] * NS
        return out

    def dump(self, path: str) -> None:
        """Write the span array (native int64, five per span) and its name table."""
        with open(path + ".names.json", "w") as fh:
            json.dump({"fields": ["id", "parent", "name", "start_ns", "end_ns"],
                       "names": self.names, "layers": self.layer_of}, fh)
        with open(path, "wb") as fh:
            self.spans.tofile(fh)


def _hooks(t: Tracer) -> dict:
    """Counters that need arguments, results or cache state of a call."""
    import gausslab.cyclo as cyclo
    import gausslab.gauss as gauss
    import gausslab.padic as padic

    def power_table_after(_, args, out):
        mul_mat, _p, count = args
        d = mul_mat.shape[0]
        t.count("accel.power_table.rows", count)
        t.count("accel.power_table.ops", 2 * d * d * count)  # one d x d mat-vec per row
        t.count("accel.power_table.bytes_computed", out.nbytes)

    def gauss_counts_after(_, args, out):
        _p, m, offsets = args
        n = len(offsets)
        t.count("accel.gauss_counts.terms", n * n)
        t.count("accel.gauss_counts.bytes_computed", 8 * n * m)

    def reduce_matrix_after(_, args, out):
        ring, mat = args
        b, m, phi = mat.shape[0], ring.m, ring.phi
        t.count("cyclo.reduce_matrix.rows", b)
        t.count("cyclo.reduce_matrix.flop", 2 * b * (m - phi) * phi)
        # read the counts and the (m - phi) x phi table once, write the result
        t.count("cyclo.reduce_matrix.bytes_computed", 8 * (b * m + (m - phi) * phi + b * phi))

    def get_ring_before(args):
        return args[0] not in cyclo._RING_CACHE

    def get_ring_after(built, args, out):
        t.count("cyclo.get_ring.builds", built)

    def gauss_table_before(args):
        hit = gauss._TABLE_CACHE.get(id(args[0]))
        return hit is not None and hit[0] is args[0]

    def gauss_table_after(hit, args, table):
        t.count("gauss.gauss_table.hits", hit)
        if not hit:
            t.count("gauss.rows_computed", table.tower.mult_order)

    def table_read_after(_, args, out):
        table, e = args
        t.table_reads.setdefault(id(table), set()).add(e % table.tower.mult_order)

    def embedding_for_before(args):
        tower, k = args[0], args[1] if len(args) > 1 else None
        hit = padic._EMBED_CACHE.get((id(tower), k if k is not None else -1))
        return hit is None or hit[0] is not tower

    def embedding_for_after(built, args, out):
        t.count("padic.embedding_for.builds", built)

    def scan_after(_, args, report):
        t.count("converse.classes", getattr(report, "n_classes", 0))

    def etale_after(_, args, report):
        t.count("converse.classes", report.n_signature_classes)

    return {
        "accel.power_table": (None, power_table_after),
        "accel.gauss_counts": (None, gauss_counts_after),
        "cyclo.reduce_matrix": (None, reduce_matrix_after),
        "cyclo.get_ring": (get_ring_before, get_ring_after),
        "gauss.gauss_table": (gauss_table_before, gauss_table_after),
        "gauss.key": (None, table_read_after),
        "gauss.element": (None, table_read_after),
        "padic.embedding_for": (embedding_for_before, embedding_for_after),
        "converse.scan_converse": (None, scan_after),
        "converse.primitive_scan": (None, scan_after),
        "converse.etale_signature_scan": (None, etale_after),
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(t: Tracer, report_bytes: int) -> dict[str, float]:
    """The per-layer metrics of one traced sweep, by metric name."""
    c = t.counters
    out: dict[str, float] = {}

    def calls(name):
        return t.stat(name)[0]

    def self_s(*names):
        return sum(t.stat(n)[1] for n in names)

    def incl_s(name):
        return t.stat(name)[2]

    out["ff.build_tower.calls"] = calls("ff.build_tower")
    out["ff.build_tower.self_s"] = self_s("ff.build_tower")

    out["accel.power_table.s"] = incl_s("accel.power_table")
    out["accel.power_table.rows"] = c.get("accel.power_table.rows", 0)
    out["accel.power_table.ops"] = c.get("accel.power_table.ops", 0)
    out["accel.power_table.bytes_computed"] = c.get("accel.power_table.bytes_computed", 0)
    out["accel.power_table.ops_per_byte"] = _ratio(
        out["accel.power_table.ops"], out["accel.power_table.bytes_computed"])
    out["accel.gauss_counts.s"] = incl_s("accel.gauss_counts")
    out["accel.gauss_counts.terms"] = c.get("accel.gauss_counts.terms", 0)
    out["accel.gauss_counts.bytes_computed"] = c.get("accel.gauss_counts.bytes_computed", 0)
    out["accel.gauss_counts.ops_per_byte"] = _ratio(
        out["accel.gauss_counts.terms"], out["accel.gauss_counts.bytes_computed"])

    out["cyclo.get_ring.calls"] = calls("cyclo.get_ring")
    out["cyclo.get_ring.builds"] = c.get("cyclo.get_ring.builds", 0)
    out["cyclo.get_ring.s"] = incl_s("cyclo.get_ring")
    out["cyclo.reduce_matrix.rows"] = c.get("cyclo.reduce_matrix.rows", 0)
    out["cyclo.reduce_matrix.s"] = incl_s("cyclo.reduce_matrix")
    out["cyclo.reduce_matrix.flop"] = c.get("cyclo.reduce_matrix.flop", 0)
    out["cyclo.reduce_matrix.bytes_computed"] = c.get("cyclo.reduce_matrix.bytes_computed", 0)
    out["cyclo.reduce_matrix.flop_per_byte"] = _ratio(
        out["cyclo.reduce_matrix.flop"], out["cyclo.reduce_matrix.bytes_computed"])
    out["cyclo.reduce_vector.calls"] = calls("cyclo.reduce_vector")
    out["cyclo.reduce_vector.s"] = incl_s("cyclo.reduce_vector")
    out["cyclo.mul.calls"] = calls("cyclo.mul")
    out["cyclo.mul.self_s"] = self_s("cyclo.mul")
    out["cyclo.galois.calls"] = calls("cyclo.galois")
    out["cyclo.galois.self_s"] = self_s("cyclo.galois")
    out["cyclo.lift_to.calls"] = calls("cyclo.lift_to")

    table_calls = calls("gauss.gauss_table")
    rows_read = sum(len(v) for v in t.table_reads.values())
    out["gauss.gauss_table.calls"] = table_calls
    out["gauss.gauss_table.self_s"] = self_s("gauss.gauss_table")
    out["gauss.table_hit_ratio"] = _ratio(c.get("gauss.gauss_table.hits", 0), table_calls)
    out["gauss.key.calls"] = calls("gauss.key")
    out["gauss.key.s"] = incl_s("gauss.key")
    out["gauss.rows_used_ratio"] = _ratio(rows_read, c.get("gauss.rows_computed", 0))

    out["chars.orbit_reps.s"] = incl_s("chars.orbit_reps")

    scans = [n for n in t.names if t.layer_of[t._ids[n]] == "converse" and n != "converse.signature_key"]
    out["converse.self_s"] = self_s(*scans)
    out["converse.signatures"] = calls("converse.signature_key")
    out["converse.classes"] = c.get("converse.classes", 0)

    digit_names = [n for n in t.names if n.startswith("digits.")]
    out["digits.calls"] = sum(calls(n) for n in digit_names)
    out["digits.s"] = self_s(*digit_names)

    out["padic.embedding_for.calls"] = calls("padic.embedding_for")
    out["padic.embedding_for.builds"] = c.get("padic.embedding_for.builds", 0)
    out["padic.embedding_for.s"] = incl_s("padic.embedding_for")
    out["padic.embed.calls"] = calls("padic.embed")
    out["padic.embed.s"] = incl_s("padic.embed")
    out["padic.check.self_s"] = self_s("padic.stickelberger_check", "padic.gross_koblitz_check")

    out["gl2.gl2_group.s"] = incl_s("gl2.gl2_group")
    out["gl2.cuspidal.calls"] = calls("gl2.cuspidal")
    out["gl2.cuspidal.s"] = incl_s("gl2.cuspidal")
    out["gl2.gamma_via_bessel.calls"] = calls("gl2.gamma_via_bessel")
    out["gl2.gamma_via_bessel.s"] = incl_s("gl2.gamma_via_bessel")

    out["cli.main.calls"] = calls("cli.main")
    out["cli.self_s"] = self_s("cli.main")
    out["cli.report_bytes"] = report_bytes

    for layer, secs in t.layer_self_s().items():
        out[f"layer.{layer}.self_s"] = secs
    out["trace.spans"] = len(t.spans) // 5
    return out
