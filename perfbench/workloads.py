"""The four workloads: ``words``, ``suite``, ``certs`` and ``cli``.

Each workload builds a *deck*: a fixed list of ops generated from the seed,
run in a closed loop by one client (the next op starts when the previous one
has finished).  A deck is
stratified, so every pass over it has the same mix of instances, sizes and
queries whatever the seed; only the values differ.  An op's ``run`` is the
timed request and its ``check`` is the independent answer check, run after
the op's clock has stopped.

Ops call amalgam through module attributes (``nf.reduce_word``, not a
from-import), so the tracer's patches see them.
"""

import contextlib
import io
import json
import os
import random
import selectors
import signal
import time

import amalgam.cli as cli
import amalgam.homs as homs
import amalgam.instances as instances
import amalgam.normalform as nf
import amalgam.oracle as oracle
import amalgam.suites as suites
import amalgam.witnesses as wit
import amalgam.wordexpr as wordexpr
from inputs import (INSTANCES, MAX_LEVEL, SUITE_CONFIGS, cancelling_word,
                    equal_variant, make_kit, random_word, unequal_variant,
                    word_expr, word_image)

WORD_LENGTHS = (12, 100, 1000)
ORACLE_MAX_SYLLABLES = 100
CLI_LIMIT_S = 3.0
CLI_ROUNDS = 3
TRACEBACK = "Traceback (most recent call last)"
UNDOCUMENTED = "undocumented exit"


class Op:
    __slots__ = ("label", "desc", "run", "check")

    def __init__(self, label, desc, run, check):
        self.label = label
        self.desc = desc
        self.run = run
        self.check = check


def build_configs(configs):
    """Instances and standard homomorphisms: the workload's set-up."""
    out = {}
    for name, kind, p, params in configs:
        sys_ = instances.make_instance(kind, p, params)
        out[name] = (sys_, homs.standard_hom(sys_), make_kit(kind, p, params))
    return out


# -- words -------------------------------------------------------------------


def words_deck(seed, env):
    rng = random.Random(seed)
    deck = []
    styles = ("conj", "comm")
    n_cancel = 0
    for name, kind, p, params in INSTANCES:
        sys_, hom, kit = env[name]
        queries = ["reduce", "eq_same", "eq_diff", "phi"]
        if kind == "dense":
            queries.append("psi")
        for length in WORD_LENGTHS:
            for query in queries:
                for shape in ("random", "cancel"):
                    if shape == "random":
                        word = random_word(kit, rng, length)
                    else:
                        word = cancelling_word(kit, rng, length,
                                               styles[n_cancel % 2])
                        n_cancel += 1
                    label = f"{name}/{length}/{query}"
                    desc = f"{label}/{shape}:" + repr(
                        [(n, kit.literal(x)) for n, x in word])
                    deck.append(_word_op(sys_, hom, kit, rng, query, word,
                                         label, desc))
    return deck


def _word_op(sys_, hom, kit, rng, query, word, label, desc):
    top = max(n for n, _ in word)
    if query == "reduce":
        oracle_form = []

        def run():
            form = nf.reduce_word(sys_, word)
            return form, form.level

        def check(res):
            form, lvl = res
            if lvl > top:
                return f"level {lvl} above the highest syllable level {top}"
            if len(word) <= ORACLE_MAX_SYLLABLES:
                if not oracle_form:
                    oracle_form.append(oracle.naive_reduce(sys_, word))
                if form != oracle_form[0]:
                    return "form differs from oracle.naive_reduce"
            return None

        return Op(label, desc, run, check)

    if query in ("eq_same", "eq_diff"):
        same = query == "eq_same"
        other = (equal_variant if same else unequal_variant)(kit, rng, word)
        desc += "|" + repr([(n, kit.literal(x)) for n, x in other])

        def run():
            return nf.forms_equal(sys_, nf.reduce_word(sys_, word),
                                  nf.reduce_word(sys_, other))

        def check(res):
            return None if res is same else f"eq returned {res}, expected {same}"

        return Op(label, desc, run, check)

    expected = word_image(kit, word)
    if query == "phi":
        def run():
            return homs.phi_eval(nf.reduce_word(sys_, word), hom)

        def check(res):
            if kit.image_of_result(res) != expected:
                return "phi differs from the letterwise image sum"
            return None

        return Op(label, desc, run, check)

    def run():
        return homs.psi_eval(nf.reduce_word(sys_, word), hom)

    def check(res):
        entries = [kit.image_of_result(v) for v in (res.a, res.b, res.c, res.d)]
        if entries != [1, expected, 0, 1]:
            return "psi is not unipotent(letterwise image sum)"
        return None

    return Op(label, desc, run, check)


# -- suite -------------------------------------------------------------------

# Each check samples its own random words, so one batch's work depends on its
# seed; many batches per deck pass keep a pass's work nearly the same for
# every benchmark seed.  Batch sizes keep every op at a few milliseconds.
SUITE_CHECKS = (
    ("check_axioms", 9),
    ("check_oracle", 18),
    ("check_lemma21", 36),
    ("check_centrality", 36),
    ("check_homs", 9),
    ("check_instance", 120),
)
SUITE_BATCHES = 12


def suite_deck(seed, env):
    rng = random.Random(seed)
    deck = []
    for name, kind, p, params in SUITE_CONFIGS:
        sys_ = env[name][0]
        for check_name, samples in SUITE_CHECKS * SUITE_BATCHES:
            batch_seed = rng.randrange(2 ** 32)
            label = f"{name}/{check_name}"

            def run(sys_=sys_, check_name=check_name, samples=samples,
                    batch_seed=batch_seed):
                return getattr(suites, check_name)(sys_, samples, batch_seed)

            def check(report):
                if report["failures"] != 0:
                    return f"{report['name']} reported {report['failures']} failures"
                return None

            deck.append(Op(label, f"{label} samples={samples} seed={batch_seed}",
                           run, check))
    return deck


# -- certs -------------------------------------------------------------------

TAMPER_EVERY = 4


def tamper(text, mode):
    """Break a certificate so that verify must reject it."""
    data = json.loads(text)
    if mode == 0:
        data["k"] = data["result"]["level"]
    else:
        data["result"]["level"] += 1
    return json.dumps(data, sort_keys=True, indent=2)


def certs_deck(seed, env):
    rng = random.Random(seed)
    deck = []
    for name, kind, p, params in INSTANCES:
        sys_, _, kit = env[name]
        jobs = [("derived", d, rng.randint(0, 6))
                for _ in range(2) for d in range(1, 7)]
        jobs += [("escape", None, rng.randint(0, 6)) for _ in range(4)]
        for what, d, k in jobs:
            index = len(deck)
            tamper_mode = (index // TAMPER_EVERY) % 2 \
                if index % TAMPER_EVERY == TAMPER_EVERY - 1 else None
            if what == "derived":
                label = f"{name}/derived/d{d}"
                desc = f"{label} k={k}"
                gen = (lambda sys_=sys_, d=d, k=k:
                       wit.derived_escape(sys_, d, k))
            else:
                word = random_word(kit, rng, rng.randint(4, 10))
                h = nf.reduce_word(sys_, word)
                while nf.is_identity(sys_, h):
                    word.append((rng.randint(0, MAX_LEVEL), kit.nonzero(rng)))
                    h = nf.reduce_word(sys_, word)
                label = f"{name}/escape"
                desc = f"{label} k={k} h=" + repr(
                    [(n, kit.literal(x)) for n, x in word])
                gen = (lambda sys_=sys_, h=h, k=k:
                       wit.escape_witness(sys_, h, k))
            if tamper_mode is not None:
                desc += f" tamper={tamper_mode}"
            deck.append(Op(label, desc, *_cert_op(gen, tamper_mode)))
    return deck


def _cert_op(gen, tamper_mode):
    def run():
        text = wit.certificate_to_json(gen())
        if tamper_mode is not None:
            text = tamper(text, tamper_mode)
        return wit.verify(wit.certificate_from_json(text))

    def check(ok):
        expected = tamper_mode is None
        if ok is not expected:
            return f"verify returned {ok}, expected {expected}"
        return None

    return run, check


# -- cli ---------------------------------------------------------------------


def spawn(argv, env, timeout):
    """Run one child to completion under a time limit.

    Returns (exit code or None on timeout, stdout, stderr, child CPU seconds,
    child peak RSS in KiB).  The child is always reaped before returning.
    """
    out_r, out_w = os.pipe()
    err_r, err_w = os.pipe()
    actions = [(os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
               (os.POSIX_SPAWN_DUP2, out_w, 1),
               (os.POSIX_SPAWN_DUP2, err_w, 2)]
    try:
        pid = os.posix_spawn(argv[0], argv, env, file_actions=actions)
    except OSError:
        os.close(out_r)
        os.close(err_r)
        raise
    finally:
        os.close(out_w)
        os.close(err_w)
    chunks = {out_r: [], err_r: []}
    timed_out = False
    deadline = time.perf_counter() + timeout
    with selectors.DefaultSelector() as sel:
        for fd in chunks:
            sel.register(fd, selectors.EVENT_READ)
        while sel.get_map():
            left = deadline - time.perf_counter()
            if left <= 0 and not timed_out:
                timed_out = True
                os.kill(pid, signal.SIGKILL)
            for key, _ in sel.select(max(left, 0.05) if not timed_out else 0.5):
                data = os.read(key.fd, 65536)
                if data:
                    chunks[key.fd].append(data)
                else:
                    sel.unregister(key.fd)
    os.close(out_r)
    os.close(err_r)
    _, status, usage = os.wait4(pid, 0)
    code = None if timed_out else os.waitstatus_to_exitcode(status)
    return (code, b"".join(chunks[out_r]).decode("utf-8", "replace"),
            b"".join(chunks[err_r]).decode("utf-8", "replace"),
            usage.ru_utime + usage.ru_stime, usage.ru_maxrss)


class CliCall:
    """One invocation and its documented outcome.

    ``expected`` maps each acceptable exit code to the exact stdout expected
    with it, or to None when only the exit code is documented.
    """

    __slots__ = ("label", "argv", "expected")

    def __init__(self, label, argv, expected):
        self.label = label
        self.argv = argv
        self.expected = expected

    def judge(self, code, out, err):
        if code is None:
            return "exceeded the time limit"
        if TRACEBACK in err:
            return "printed a traceback"
        if code not in self.expected:
            return f"{UNDOCUMENTED} {code}, documented {sorted(self.expected)}"
        want = self.expected[code]
        if want is not None and out != want:
            return "stdout differs from the in-process library answer"
        return None


def _envelope(command, sys_, result):
    return json.dumps({"command": command, "instance": sys_.kind,
                       "prime": sys_.p, "result": result, "elapsed_ms": 0},
                      sort_keys=True, indent=2) + "\n"


def cli_calls(seed, env, cert_dir):
    """The invocations of one deck pass, with the library's own answers."""
    rng = random.Random(seed)
    calls = []
    for (name, kind, p, params), round_ in (
            (inst, r) for r in range(CLI_ROUNDS) for inst in INSTANCES):
        sys_, hom, kit = env[name]
        flags = ["--instance", kind, "--prime", str(p)]

        def form_of(expr):
            return wordexpr.eval_expr(sys_, wordexpr.parse_expr(expr, sys_))

        expr = word_expr(kit, rng, rng.randint(8, 40))
        form = form_of(expr)
        text = f"{wordexpr.format_form(sys_, form)}, level={form.level}\n"
        calls.append(CliCall(f"{name}/reduce", ["reduce", expr] + flags,
                             {0: text}))

        expr = word_expr(kit, rng, rng.randint(8, 40))
        form = form_of(expr)
        result = {"form": wordexpr.format_form(sys_, form),
                  "level": form.level,
                  "expr": wordexpr.form_expr_str(sys_, form)}
        calls.append(CliCall(f"{name}/reduce-json",
                             ["reduce", expr, "--json"] + flags,
                             {0: _envelope("reduce", sys_, result)}))

        expr = word_expr(kit, rng, rng.randint(8, 30))
        same = wordexpr.form_expr_str(sys_, form_of(expr))
        calls.append(CliCall(f"{name}/eq", ["eq", expr, same] + flags,
                             {0: "equal\n"}))
        other = f"{expr} h{rng.randint(0, MAX_LEVEL)}({kit.literal(kit.nonzero(rng))})"
        calls.append(CliCall(f"{name}/eq", ["eq", expr, other] + flags,
                             {1: "not equal\n"}))

        expr = word_expr(kit, rng, rng.randint(8, 40))
        calls.append(CliCall(f"{name}/level", ["level", expr] + flags,
                             {0: f"level={form_of(expr).level}\n"}))

        expr = word_expr(kit, rng, rng.randint(8, 40))
        value = hom.target.value_str(homs.phi_eval(form_of(expr), hom))
        calls.append(CliCall(f"{name}/phi", ["phi", expr] + flags,
                             {0: value + "\n"}))

        expr = word_expr(kit, rng, rng.randint(8, 40))
        if kind == "dense":
            matrix = str(homs.psi_eval(form_of(expr), hom))
            calls.append(CliCall(f"{name}/psi", ["psi", expr, "--json"] + flags,
                                 {0: _envelope("psi", sys_, {"matrix": matrix})}))
        else:
            calls.append(CliCall(f"{name}/psi", ["psi", expr] + flags,
                                 {3: None}))

        expr = word_expr(kit, rng, rng.randint(4, 12))
        while form_of(expr) == nf.identity(sys_):
            expr = word_expr(kit, rng, rng.randint(4, 12))
        k = rng.randint(0, 6)
        cert = wit.escape_witness(sys_, form_of(expr), k, seed=0)
        calls.append(CliCall(f"{name}/witness-escape",
                             ["witness", "escape", expr, str(k)] + flags,
                             {0: wit.certificate_to_json(cert) + "\n"}))

        d, k = 2 + round_, rng.randint(0, 6)  # the same depths for every seed
        cert_text = wit.certificate_to_json(wit.derived_escape(sys_, d, k, seed=0))
        calls.append(CliCall(f"{name}/witness-derived",
                             ["witness", "derived", str(d), str(k)] + flags,
                             {0: cert_text + "\n"}))

        good = os.path.join(cert_dir, f"{name}-{round_}-valid.json")
        bad = os.path.join(cert_dir, f"{name}-{round_}-tampered.json")
        with open(good, "w", encoding="utf-8") as fh:
            fh.write(cert_text)
        with open(bad, "w", encoding="utf-8") as fh:
            fh.write(tamper(cert_text, rng.randrange(2)))
        calls.append(CliCall(f"{name}/verify", ["verify", good] + flags,
                             {0: "certificate valid\n"}))
        calls.append(CliCall(f"{name}/verify", ["verify", bad] + flags,
                             {4: "certificate INVALID\n"}))
    return calls


def hostile_calls():
    """Inputs that must give an answer or a documented exit code (2/3) with
    bounded work and no traceback."""
    nested = "(" * 1200 + "h0(1/5)" + ")" * 1200
    return [
        CliCall("hostile/escape-negative-k",
                ["witness", "escape", "h0(1/5)", "-1"], {3: None}),
        CliCall("hostile/derived-negative-depth",
                ["witness", "derived", "-1", "0"], {3: None}),
        CliCall("hostile/nested-parens", ["level", nested],
                {0: "level=0\n", 2: None, 3: None}),
        CliCall("hostile/huge-prime",
                ["reduce", "h0(1)", "--prime", "1000000000000000003"],
                {0: "Base(1), level=0\n", 3: None}),
        CliCall("hostile/derived-depth-12",
                ["witness", "derived", "12", "0"], {3: None}),
    ]


def child_env(src_dir):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYTHONPATH"] = src_dir
    env["AMALGAM_FIXED_ELAPSED"] = "1"
    return env


def cli_ops(calls):
    """Ops that call ``amalgam.cli.main`` in this process, output captured."""
    ops = []
    for call in calls:
        def run(argv=call.argv):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(list(argv))
            return code, out.getvalue(), err.getvalue()

        def check(res, call=call):
            return call.judge(*res)

        ops.append(Op(call.label, " ".join(call.argv), run, check))
    return ops
