"""Span tracer that wraps the public functions of each amalgam layer.

Tracing is done entirely from the benchmark's side: ``install`` replaces each
listed function (or method) with a wrapper, on its defining module or class
and on every other ``amalgam.*`` module that bound it with ``from ... import``
(for example ``suites.mul`` and ``witnesses.mul``).  ``uninstall`` puts the
originals back.

A wrapper records nothing unless an op is open (``begin_op``/``end_op``), so
the benchmark's own answer checks, which call the same functions after an op
has closed, are not traced.  Each span has a name, start, end, parent span
and op id.  Self time (span time minus the time its child spans cover) and
call counts are accumulated for every span as it closes; the spans
themselves are kept in memory up to ``span_cap`` and written out at the end.
Garbage-collector pauses, seen through ``gc.callbacks``, are charged to
``runtime.gc`` and removed from the self time of the span they interrupted.
"""

import gc
import sys
import time

perf_counter = time.perf_counter

_FACTOR_METHODS = ["factor_id", "factor_mul", "factor_inv", "factor_eq",
                   "in_base", "split", "split_chain", "nonbase_elem",
                   "escape_elem", "base_escape_level", "sample", "sample_base",
                   "parse_value", "value_str", "check_level"]

# (layer, module, function names, {class name: method names}); the
# factor-system contract counts as one layer with its instances.
LAYERS = [
    ("kernels", "amalgam._kernels",
     ["norm", "add", "mul", "val", "coset_split", "in_subgroup"], {}),
    ("padic", "amalgam.padic",
     ["coset_rep", "parse_padic", "mat_mul", "unipotent"],
     {"PAdicRational": ["__init__", "_raw", "zero", "one", "__add__", "__sub__",
                        "__mul__", "__neg__", "valuation", "in_pn"]}),
    ("instances", "amalgam.instances", ["make_instance"],
     {cls: _FACTOR_METHODS for cls in ("DenseInstance", "HeisenbergInstance",
                                       "FiniteCyclicInstance")}),
    ("instances", "amalgam.factors", [], {"FactorSystem": _FACTOR_METHODS}),
    ("normalform", "amalgam.normalform",
     ["reduce_word", "mul", "inv", "forms_equal", "eq", "inject",
      "is_identity", "identity", "level", "centrality_check"], {}),
    ("oracle", "amalgam.oracle", ["naive_reduce"], {}),
    ("wordexpr", "amalgam.wordexpr",
     ["parse_expr", "expr_to_word", "eval_expr", "expr_str", "form_to_expr",
      "form_expr_str", "format_form"], {}),
    ("homs", "amalgam.homs",
     ["phi_eval", "psi_eval", "in_kernel", "standard_hom"], {}),
    ("witnesses", "amalgam.witnesses",
     ["lemma21_check", "lemma21_suite", "sample_lemma21_inputs",
      "escape_witness", "derived_escape", "certificate_to_json",
      "certificate_from_json", "certificate_from_json_dict", "verify"], {}),
    ("suites", "amalgam.suites",
     ["check_axioms", "check_oracle", "check_lemma21", "check_centrality",
      "check_homs", "check_instance", "random_word", "random_form"], {}),
    ("cli", "amalgam.cli", ["main", "build_parser"], {}),
]

# Names whose inclusive time and outermost calls are tracked as one group, so
# that recursive or mutually calling functions are not counted twice.
GROUPS = {
    "wordexpr.format": ["wordexpr.expr_str", "wordexpr.form_to_expr",
                        "wordexpr.form_expr_str", "wordexpr.format_form"],
    "homs.eval": ["homs.phi_eval", "homs.psi_eval", "homs.in_kernel"],
    "witnesses.generate": ["witnesses.escape_witness",
                           "witnesses.derived_escape"],
    "suites.check": ["suites.check_axioms", "suites.check_oracle",
                     "suites.check_lemma21", "suites.check_centrality",
                     "suites.check_homs", "suites.check_instance"],
}

OP = "bench.op"


def form_shape(form, depth=0):
    """(letters, max LLetter nesting) of a canonical form, recursively."""
    letters = getattr(form, "letters", None)
    if letters is None:
        return 0, depth
    count, deepest = len(letters), depth
    for letter in letters:
        inner = getattr(letter, "form", None)
        if inner is not None:
            c, d = form_shape(inner, depth + 1)
            count += c
            deepest = max(deepest, d)
    return count, deepest


class Tracer:
    def __init__(self, span_cap=200_000):
        self.span_cap = span_cap
        self.names = []
        self.ids = {}
        self.group_of = []
        self.group_names = []
        self.self_s = []
        self.calls = []
        self.outer_calls = []
        self.incl_s = []
        self.depth = []
        self.stack = []
        self.spans = []
        self.spans_dropped = 0
        self.next_sid = 0
        self.op = None
        self.counts = {}
        self.forms = []
        self.gc_s = 0.0
        self.gc_collections = 0
        self._gc_t0 = None
        self._patched = []
        self.missing = []
        group_index = {}
        for gname, members in GROUPS.items():
            for m in members:
                group_index[m] = gname
        self._group_index = group_index
        self.op_nid = self.nid(OP)

    # -- registry -----------------------------------------------------------

    def nid(self, name):
        i = self.ids.get(name)
        if i is None:
            i = len(self.names)
            self.ids[name] = i
            self.names.append(name)
            self.self_s.append(0.0)
            self.calls.append(0)
            gname = self._group_index.get(name, name)
            if gname not in self.group_names:
                self.group_names.append(gname)
                self.outer_calls.append(0)
                self.incl_s.append(0.0)
                self.depth.append(0)
            self.group_of.append(self.group_names.index(gname))
        return i

    def count(self, key, amount):
        self.counts[key] = self.counts.get(key, 0) + amount

    # -- spans ----------------------------------------------------------------

    def enter(self, nid):
        g = self.group_of[nid]
        self.depth[g] += 1
        sid = self.next_sid
        self.next_sid = sid + 1
        frame = [nid, sid, 0.0, perf_counter()]
        self.stack.append(frame)
        return frame

    def exit(self, frame):
        t = perf_counter()
        self.stack.pop()
        nid, sid, child, start = frame
        dur = t - start
        self.self_s[nid] += dur - child
        self.calls[nid] += 1
        g = self.group_of[nid]
        self.depth[g] -= 1
        outermost = self.depth[g] == 0
        if outermost:
            self.incl_s[g] += dur
            self.outer_calls[g] += 1
        if self.stack:
            parent = self.stack[-1]
            parent[2] += dur
            parent_sid = parent[1]
        else:
            parent_sid = -1
        if len(self.spans) < self.span_cap:
            self.spans.append((sid, nid, start, t, parent_sid, self.op))
        else:
            self.spans_dropped += 1
        return outermost

    def begin_op(self, op_id):
        self.op = op_id
        return self.enter(self.op_nid)

    def end_op(self, frame):
        self.exit(frame)
        self.op = None
        for form in self.forms:
            letters, nesting = form_shape(form)
            self.count("normalform.letters_out", letters)
            if nesting > self.counts.get("normalform.max_nesting", 0):
                self.counts["normalform.max_nesting"] = nesting
        self.forms.clear()

    def _gc_callback(self, phase, info):
        if self.op is None:
            return
        if phase == "start":
            self._gc_t0 = perf_counter()
        elif self._gc_t0 is not None:
            dt = perf_counter() - self._gc_t0
            self._gc_t0 = None
            self.gc_s += dt
            self.gc_collections += 1
            if self.stack:
                self.stack[-1][2] += dt

    # -- patching -------------------------------------------------------------

    def _wrap(self, name, fn):
        nid = self.nid(name)
        after = AFTER.get(name)
        tracer = self

        def traced(*args, **kwargs):
            if tracer.op is None:
                return fn(*args, **kwargs)
            frame = tracer.enter(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                outermost = tracer.exit(frame)
            if after is not None:
                after(tracer, outermost, args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def _set(self, owner, attr, value):
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self):
        import importlib

        for layer, modname, funcs, classes in LAYERS:
            mod = importlib.import_module(modname)
            for fname in funcs:
                fn = mod.__dict__.get(fname)
                if fn is None:
                    self.missing.append(f"{modname}.{fname}")
                    continue
                wrapper = self._wrap(f"{layer}.{fname}", fn)
                for other in list(sys.modules.values()):
                    oname = getattr(other, "__name__", "")
                    if oname != "amalgam" and not oname.startswith("amalgam."):
                        continue
                    for attr, value in list(vars(other).items()):
                        if value is fn:
                            self._set(other, attr, wrapper)
            for cname, methods in classes.items():
                cls = mod.__dict__.get(cname)
                if cls is None:
                    self.missing.append(f"{modname}.{cname}")
                    continue
                for mname in methods:
                    raw = cls.__dict__.get(mname)
                    if raw is None:
                        continue
                    name = f"{layer}.{mname}"
                    if isinstance(raw, classmethod):
                        self._set(cls, mname,
                                  classmethod(self._wrap(name, raw.__func__)))
                    else:
                        self._set(cls, mname, self._wrap(name, raw))
        gc.callbacks.append(self._gc_callback)

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()
        if self._gc_callback in gc.callbacks:
            gc.callbacks.remove(self._gc_callback)

    # -- results --------------------------------------------------------------

    def layer_self_s(self):
        out = {}
        for nid, name in enumerate(self.names):
            layer = name.split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + self.self_s[nid]
        out["runtime"] = out.get("runtime", 0.0) + self.gc_s
        return out

    def self_of(self, name):
        i = self.ids.get(name)
        return 0.0 if i is None else self.self_s[i]

    def calls_of(self, *names):
        return sum(self.calls[self.ids[n]] for n in names if n in self.ids)

    def _group(self, name):
        try:
            return self.group_names.index(name)
        except ValueError:
            return None

    def incl_of(self, group):
        g = self._group(group)
        return 0.0 if g is None else self.incl_s[g]

    def outer_calls_of(self, group):
        g = self._group(group)
        return 0 if g is None else self.outer_calls[g]

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span,name,start_s,end_s,parent,op\n")
            for sid, nid, start, end, parent, op in self.spans:
                fh.write(f"{sid},{self.names[nid]},{start:.9f},{end:.9f},"
                         f"{parent},{op}\n")


# Per-name hooks that turn arguments and results into work counts.  They run
# after the span has closed.

def _after_reduce(tr, outermost, args, result):
    tr.count("normalform.syllables", len(args[1]))
    if outermost:
        tr.forms.append(result)


def _after_oracle(tr, outermost, args, result):
    tr.count("oracle.syllables", len(args[1]))


def _after_parse(tr, outermost, args, result):
    tr.count("wordexpr.parse_bytes", len(args[0].encode("utf-8")))


def _after_lower(tr, outermost, args, result):
    if outermost:
        tr.count("wordexpr.lower_syllables", len(result))


def _after_format(tr, outermost, args, result):
    if outermost and isinstance(result, str):
        tr.count("wordexpr.format_bytes", len(result.encode("utf-8")))


def _after_cert_json(tr, outermost, args, result):
    tr.count("witnesses.cert_bytes", len(result.encode("utf-8")))


def _after_verify(tr, outermost, args, result):
    if result is False:
        tr.count("witnesses.rejected", 1)


def _after_check(tr, outermost, args, result):
    if outermost:
        tr.count("suites.samples", result["samples"])


AFTER = {
    "normalform.reduce_word": _after_reduce,
    "oracle.naive_reduce": _after_oracle,
    "wordexpr.parse_expr": _after_parse,
    "wordexpr.expr_to_word": _after_lower,
    "wordexpr.expr_str": _after_format,
    "wordexpr.form_expr_str": _after_format,
    "wordexpr.format_form": _after_format,
    "witnesses.certificate_to_json": _after_cert_json,
    "witnesses.verify": _after_verify,
}
AFTER.update({name: _after_check for name in GROUPS["suites.check"]})
