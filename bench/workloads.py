"""The four benchmark workloads: factor, decide, cells and cli.

Each builder takes the freshly imported library (a namespace of its modules)
and a seeded `random.Random`, and returns a `Workload`: the operations of
one pass, in a fixed order, and a few cheap warm-up operations.  An
operation is a (label, function) pair; the function returns (ok, output),
where `ok` is the outcome of the operation's output check and `output` is
the text that goes into the workload's digest.  Operations call the library
through module attributes, so the tracer can wrap them after the build.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from dataclasses import dataclass

import corpus

# Cell counts of the orientals for n = 0..4.
CELL_COUNTS = {0: 1, 1: 3, 2: 8, 3: 24, 4: 91}


@dataclass
class Workload:
    ops: list
    warmup: list
    # The cli workload's subprocess runner, which keeps per-call timings.
    cli: object = None


# ---------------------------------------------------------------------------
# factor: factorize + simplify + eval_expr


def _factor_op(lib, x):
    def run():
        o = lib.oriental
        raw = o.factorize(x, simplify_output=False)
        tree = o.simplify(raw)
        ok = o.eval_expr(tree) == x
        return ok, f"{x} :: {raw} :: {tree}"

    return run


def _factor_key(x):
    """The shape, and for shape (3, 3) also the side on which the terms
    repeat a vertex: (a,a,b) - (b,b,b) + (b,b,c) factorizes about 10% slower
    than (a,b,b) - (b,b,b) + (b,c,c), so a seed-dependent mix of the two
    would move the median operation."""
    shape = corpus.shape(x)
    if shape != (3, 3):
        return shape
    leading = any(v[0] == v[1] != v[2] for v in (h.values for h in x.terms))
    return shape + ("aab" if leading else "abb",)


# Per (generator, m): quotas by (terms, distinct vertices).  Factorization
# cost is set mostly by m and this shape, so fixed quotas keep a pass's cost
# about the same under every seed.  Forty fill m=2 members of shape (3, 3),
# fifteen of the faster kind below twenty-five of the slower, hold the median
# operation, and the twelve single-term injective generators at m=3 (the
# identity relabelled, all of one cost) hold p90.  Seeded fillers at m=4
# cost 0.1-15 s each, so m=4 enters through its identity alone.
FACTOR_QUOTAS = [
    ("walk", 2, {(1, 1): 12}, corpus.shape),
    ("walk", 3, {(1, 1): 8}, corpus.shape),
    ("fill", 2, {(1, 2): 10, (3, 3, "abb"): 15, (3, 3, "aab"): 25, (5, 4): 8, (7, 5): 4},
     _factor_key),
    ("fill", 3, {(1, 2): 4, (3, 3): 2}, corpus.shape),
]


def _member_maker(lib, rng, kind, m, codomains, top=3):
    if kind == "fill":
        fills = 3 if m == 2 else 2
        return lambda: corpus.nested_filler(lib, rng, m, rng.choice(codomains), fills=fills)
    return lambda: corpus.random_walk(lib, rng, m, rng.choice(codomains), top=top)


def build_factor(lib, rng, root):
    ops = []
    for kind, m, quotas, key in FACTOR_QUOTAS:
        make = _member_maker(lib, rng, kind, m, range(2, 6))
        members = corpus.fill_quotas(make, quotas, key=key)
        ops += [(f"{kind}{m}", _factor_op(lib, x)) for x in members]
    # The single-term injective generators: the exponential case.
    ops.append(("id3", _factor_op(lib, corpus.injective_generator(lib, rng, 3, 3))))
    for _ in range(11):
        x = corpus.injective_generator(lib, rng, 3, rng.randint(4, 6))
        ops.append(("inj3", _factor_op(lib, x)))
    ops.append(("id4", _factor_op(lib, corpus.injective_generator(lib, rng, 4, 4))))
    warm = [("warm", _factor_op(lib, corpus.edge_path(lib, rng, 3, 2)))]
    return Workload(ops, warm)


# ---------------------------------------------------------------------------
# decide: check_membership + chain-map round trip


def _witness_holds(x, result):
    """Recompute, without the library, the coefficient of the witness term in
    x composed with the witness map."""
    f, g = result.witness_map, result.witness_term
    if f is None or result.witness_coefficient >= 0:
        return False
    if any(a >= b for a, b in zip(g.values, g.values[1:])):
        return False
    total = 0
    for h, c in x.terms.items():
        if tuple(h.values[v] for v in f.values) == g.values:
            total += c
    return total == result.witness_coefficient


def _decide_op(lib, x, built_as_member):
    def run():
        result = lib.oriental.check_membership(x)
        if result.ok:
            back = lib.chains.from_chain_map(lib.chains.to_chain_map(x))
            return back == x, f"{x} :: member"
        if built_as_member:
            return False, f"{x} :: closure-built input rejected: {result.reason}"
        verdict = (
            f"{x} :: {result.witness_map} {result.witness_term} "
            f"{result.witness_coefficient}"
        )
        return _witness_holds(x, result), verdict

    return run


def terms(x):
    return len(x.terms)


def build_decide(lib, rng, root):
    ops = []
    # Membership and the round trip cost about terms x 2^m, so each domain
    # gets fixed quotas by term count.  Near-members stop at their witness
    # and are cheap.  Forty 5-term members at m=5 hold the median operation
    # and twenty at m=7 hold p90.
    quotas = {
        4: {1: 2, 3: 2, 5: 4, 7: 2, 9: 2},
        5: {5: 38},
        6: {1: 2, 3: 2, 5: 4, 7: 2, 9: 2},
        7: {5: 20},
    }
    for m in (4, 5, 6, 7):
        codomains = (m - 1, m, m + 1)
        fill = _member_maker(lib, rng, "fill", m, codomains)
        walk = _member_maker(lib, rng, "walk", m, codomains, top=m)
        fills = corpus.fill_quotas(fill, quotas[m], key=terms)
        ops += [(f"fill{m}", _decide_op(lib, x, True)) for x in fills]
        if m != 7:
            walks = corpus.fill_quotas(walk, {1: 2}, key=terms)
            ops += [(f"walk{m}", _decide_op(lib, x, True)) for x in walks]
        for x in corpus.fill_quotas(fill, {5: 8}, key=terms):
            ops.append((f"near{m}", _decide_op(lib, corpus.near_member(lib, rng, x), False)))
    warm = [("warm", _decide_op(lib, corpus.nested_filler(lib, rng, 3, 3), True))]
    return Workload(ops, warm)


# ---------------------------------------------------------------------------
# cells: enumeration, atom closure, basis checks and cell queries


def _cells_op(lib, n):
    def run():
        cells = lib.nu.enumerate_cells(n, bound=4)
        text = "\n".join(sorted(str(c) for c in cells))
        return len(cells) == CELL_COUNTS[n], f"cells {n}: {len(cells)}\n{text}"

    return run


def _atoms_op(lib, n):
    def run():
        ok = lib.nu.check_atom_generation(n, bound=4) is True
        return ok, f"atom generation {n}: {ok}"

    return run


def _unital_op(lib, n):
    def run():
        ok = bool(lib.chains.check_unital(n))
        return ok, f"unital {n}: {ok}"

    return run


def _loopfree_op(lib, n):
    def run():
        ok = lib.chains.check_strongly_loopfree(n) is True
        return ok, f"loop-free {n}: {ok}"

    return run


def _compose_op(x, y, p, known):
    def run():
        z = x.compose(y, p)
        return z in known, f"{x} #{p} {y} = {z}"

    return run


def _identity_op(x, p, known):
    def run():
        s, t = x.source(p), x.target(p)
        return s in known and t in known, f"{x} s{p} {s} t{p} {t}"

    return run


def _act_op(lib, x, cell):
    def run():
        image = lib.nu.act(x, cell)
        return image.ambient == x.codomain, f"{x} . {cell} = {image}"

    return run


def build_cells(lib, rng, root):
    nu = lib.nu
    ops = [(f"enumerate{n}", _cells_op(lib, n)) for n in range(5)]
    ops += [(f"atoms{n}", _atoms_op(lib, n)) for n in range(2, 5)]
    ops += [(f"unital{n}", _unital_op(lib, n)) for n in range(1, 11)]
    ops += [(f"loopfree{n}", _loopfree_op(lib, n)) for n in range(1, 11)]
    for n in (3, 4):
        # Cells are listed in a canonical order so the seed alone picks them.
        cells = sorted(nu.enumerate_cells(n, bound=4), key=str)
        known = set(cells)
        by_source = {}
        for y in cells:
            for p in range(n + 1):
                by_source.setdefault((p, y.source(p)), []).append(y)
        # Every cell is the left factor of one composite, so the mix of
        # dimensions, which sets the cost, is the same under every seed.
        for x in cells:
            p = rng.randint(0, max(x.dimension - 1, 0))
            y = rng.choice(by_source[(p, x.target(p))])
            ops.append((f"compose{n}", _compose_op(x, y, p, known)))
        for _ in range(20):
            x = rng.choice(cells)
            ops.append((f"identity{n}", _identity_op(x, rng.randint(0, n), known)))
        # Acting members have a fixed term count, so the act queries at n=4
        # cost about the same and hold p90.
        fill = _member_maker(lib, rng, "fill", n, (n - 1, n, n + 1))
        for x in corpus.fill_quotas(fill, {5: 20}, key=terms):
            ops.append((f"act{n}", _act_op(lib, x, rng.choice(cells))))
    warm = [("warm", _cells_op(lib, 2))]
    return Workload(ops, warm)


# ---------------------------------------------------------------------------
# cli: one subprocess per command


class CliRunner:
    """Runs `python -m osimplex.cli` from the checkout's source tree.  With
    `probe` set, runs the command under cli_probe.py instead, which reports
    the child's own import and main() times."""

    def __init__(self, root, work_dir):
        self.root = root
        self.work_dir = work_dir
        self.env = dict(os.environ)
        src = os.path.join(root, "src")
        self.env["PYTHONPATH"] = src + (
            os.pathsep + self.env["PYTHONPATH"] if self.env.get("PYTHONPATH") else ""
        )
        self.env["PYTHONHASHSEED"] = "0"
        self.probe_path = os.path.join(root, "bench", "cli_probe.py")
        self.probe_out = os.path.join(work_dir, "probe.json")
        self.probe = False
        self.timings = []

    def __call__(self, argv, stdin_text):
        if self.probe:
            # A child that dies before writing its marks leaves no stale file.
            if os.path.exists(self.probe_out):
                os.remove(self.probe_out)
            cmd = [sys.executable, self.probe_path, self.probe_out, *argv]
        else:
            cmd = [sys.executable, "-m", "osimplex.cli", *argv]
        started = time.monotonic()
        proc = subprocess.run(
            cmd,
            input=stdin_text if stdin_text is not None else "",
            capture_output=True,
            text=True,
            cwd=self.root,
            env=self.env,
            timeout=120,
        )
        if self.probe:
            with open(self.probe_out, encoding="utf-8") as handle:
                marks = json.load(handle)
            self.timings.append(
                {
                    "spawn_ms": (marks["start"] - started) * 1e3,
                    "import_ms": (marks["imported"] - marks["start"]) * 1e3,
                    "main_ms": (marks["done"] - marks["imported"]) * 1e3,
                }
            )
        return proc.returncode, proc.stdout


def _cli_op(runner, argv, stdin_text, code, check):
    def run():
        got_code, out = runner(argv, stdin_text)
        ok = got_code == code and check(out)
        return ok, f"$ osimplex {' '.join(argv)} -> {got_code}\n{out}"

    return run


def build_cli(lib, rng, root):
    o, z, nu = lib.oriental, lib.zdelta, lib.nu
    work_dir = os.path.join(root, ".bench_out", "cli")
    runner = CliRunner(root, work_dir)
    os.makedirs(work_dir, exist_ok=True)

    def write(name, text):
        path = os.path.join(work_dir, name)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        # Relative to the children's working directory, so the digest does
        # not depend on where the checkout lies.
        return "@" + os.path.relpath(path, root)

    def same_morphism(expected, n):
        return lambda out: z.parse_zmorphism(out.strip(), n, expected.domain) == expected

    def factor_checks(x):
        return lambda out: o.eval_expr(o.parse_expr(out.splitlines()[0], x.codomain)) == x

    ops = []
    # Ten seeded groups of nine commands and thirteen fixed ones: more than
    # 100 operations per pass, so at least 10 lie beyond p90.
    # The first group's member is an edge path; the others are fillers of one
    # shape, so the factor commands, which hold p90, cost about the same.
    fill = _member_maker(lib, rng, "fill", 2, (2, 3))
    members = [corpus.edge_path(lib, rng, 3, 3)] + corpus.fill_quotas(fill, {(3, 3): 9})
    for k, x in enumerate(members):
        n = x.codomain
        shape = f"member of O({x.domain},{x.codomain})"
        bad = corpus.near_member(lib, rng, x)
        while o.check_membership(bad).ok:
            bad = corpus.near_member(lib, rng, x)
        x_json = json.dumps(x.to_json())
        tree = o.factorize(x)
        outer = corpus.random_walk(lib, rng, 2, n, steps=4, top=2)
        inner = corpus.random_walk(lib, rng, rng.randint(0, 2), 2, steps=4, top=2)
        composite = outer.compose(inner)
        cases = [
            (["check", str(x), "--n", str(n)], None, 0, lambda out, s=shape: out.strip() == s),
            (["check", x_json], None, 0, lambda out, s=shape: out.strip() == s),
            (["check", write(f"member{k}.txt", str(x)), "--n", str(n)], None, 0,
             lambda out, s=shape: out.strip() == s),
            (["check", str(bad), "--n", str(n), "--json"], None, 1,
             lambda out: json.loads(out)["member"] is False and "witness" in json.loads(out)),
            (["factor", "-", "--n", str(n), "--verify"], str(x), 0, factor_checks(x)),
            (["factor", x_json, "--json"], None, 0,
             lambda out, x=x: o.eval_expr(o.expr_from_json(json.loads(out)["expr"], x.codomain)) == x),
            (["compose", str(outer), str(inner), "--n", str(n)], None, 0,
             same_morphism(composite, n)),
            (["eval", str(tree), "--n", str(n)], None, 0, same_morphism(x, n)),
            (["eval", write(f"tree{k}.json", json.dumps({"n": n, "expr": tree.to_json()}))],
             None, 0, same_morphism(x, n)),
        ]
        ops += [(f"cli-{c[0][0]}", _cli_op(runner, *c)) for c in cases]
    cells = {n: len(nu.enumerate_cells(n)) for n in (1, 2, 3)}
    atoms = {n: len(lib.chains.basis_elements(n)) for n in (1, 2, 3)}
    basis_ok = "unital: yes; strongly loop-free: yes"
    fixed = [
        (["enumerate", "1"], 0, lambda out: out.splitlines()[-1] == f"{cells[1]} cells"),
        (["enumerate", "2"], 0, lambda out: out.splitlines()[-1] == f"{cells[2]} cells"),
        (["enumerate", "3", "--json"], 0, lambda out: json.loads(out)["count"] == cells[3]),
        (["atoms", "1"], 0, lambda out: len(out.splitlines()) == atoms[1]),
        (["atoms", "2", "--json"], 0, lambda out: len(json.loads(out)["atoms"]) == atoms[2]),
        (["atoms", "3"], 0, lambda out: len(out.splitlines()) == atoms[3]),
        (["verify-basis", "3", "--json"], 0, lambda out: json.loads(out)["unital"] is True),
        (["verify-basis", "4"], 0, lambda out: out.strip() == basis_ok),
        (["verify-basis", "5"], 0, lambda out: out.strip() == basis_ok),
        (["verify-basis", "6"], 0, lambda out: out.strip() == basis_ok),
        # Documented error exits: parse error, failed precondition, resource bound.
        (["check", "(0,1", "--n", "2"], 2, lambda out: out == ""),
        (["factor", "2*(0,1) - (1,1)", "--n", "2"], 3, lambda out: out == ""),
        (["enumerate", "4", "--max-cells", "10"], 4, lambda out: out == ""),
    ]
    ops += [(f"cli-{argv[0]}", _cli_op(runner, argv, None, code, check)) for argv, code, check in fixed]
    warm = [("warm", _cli_op(runner, ["verify-basis", "1"], None, 0, lambda out: "yes" in out))]
    return Workload(ops, warm, cli=runner)
