"""The four workloads.  Each is one closed-loop client in this process; the
seed fixes every input: the relabelling of every graph, the random
Apollonian networks and the random queries.

Every workload is a `Workload`: frontier instances, attempted once per run,
and a stream of rounds, each round a fresh seeded draw of the same instance
kinds.  The frontier holds the slow instances and those whose time depends
strongly on the vertex labelling.  Running them once keeps the undecided
attempts of a run below ten (eight at most with the current code), so the
latency tail stays finite.
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import random
import re
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from . import oracle
from .harness import Instance

GRAPH_CAP_S = 4.0      # graph-certify: Delta_9 criticality takes ~1.2 s, Delta_10 > 8 s
TK_CAP_S = 10.0        # tk-search: the slowest labelling seen of these kinds took 2.5 s
TK_FRONTIER_CAP_S = 0.25  # tk-search: kinds that run from ms to > 30 s by labelling
SWEEP_CAP_S = 10.0     # verify-sweep: every call takes well under 0.1 s
CLI_CAP_S = 20.0       # cli-session: every call takes well under 1 s


@dataclass
class Workload:
    frontier: list[Instance]
    rounds: Callable[[int], list[Instance]]
    warmup: Callable[[], None]


def _rng(seed: int, *parts) -> random.Random:
    return random.Random("/".join(str(p) for p in (seed,) + parts))


# --------------------------------------------------------------------------
# verify-sweep


class _FreshPairs:
    """Draws pairs 10 <= n <= 300, m_lo(n) <= m <= n(n-1)/2, never the same
    pair twice, with one bit of memory per possible pair."""

    def __init__(self, m_lo: Callable[[int], int]):
        self.m_lo = m_lo
        self.offset = {}
        total = 0
        for n in range(10, 301):
            self.offset[n] = total - m_lo(n)
            total += n * (n - 1) // 2 - m_lo(n) + 1
        self.bits = bytearray(total // 8 + 1)

    def draw(self, rng: random.Random) -> tuple[int, int]:
        while True:
            n = rng.randrange(10, 301)
            m = rng.randrange(self.m_lo(n), n * (n - 1) // 2 + 1)
            i = self.offset[n] + m
            if not self.bits[i >> 3] & (1 << (i & 7)):
                self.bits[i >> 3] |= 1 << (i & 7)
                return n, m


def verify_sweep(mods: dict, seed: int, out_dir: str, trace: bool) -> Workload:
    """verify_albertson for r = 5..30 once each (the frontier phase), then
    rounds of distinct random bound, counting and lemma357 queries."""
    v, c = mods["verifier"], mods["crossing"]
    order = list(range(5, 31))
    _rng(seed, "verify").shuffle(order)
    # lemma357_check(r) costs ~0.02 r ms.  One query every fourth round keeps
    # it to about two thirds of the time; an r would repeat only after 12000
    # rounds, about seven times the rounds of a 20 s run with the current code.
    lemma_r = list(range(17, 3017))
    _rng(seed, "lemma").shuffle(lemma_r)
    bound_pairs = _FreshPairs(lambda n: 4 * n)
    counting_pairs = _FreshPairs(lambda n: n)

    def verify(r: int) -> Instance:
        def call():
            report = v.verify_albertson(r)
            texts = [v.render_report(report, fmt) for fmt in ("markdown", "csv", "structured")]
            return report, texts, v.parse_report(texts[2]), v.compare_with_reference(report)

        def check(result):
            report, (markdown, csv, _), back, flags = result
            errors = [oracle.row_error(r, row) for row in report.rows]
            errors += [oracle.row_error(r, row, refined=True) for row in report.refined_rows]
            errors.append(oracle.verdict_error(r, report.verdict.value, report.gaps,
                                               report.tail.valid))
            errors.append(oracle.flags_error(r, flags))
            if back != report:
                errors.append("structured round trip changed the report")
            if csv.count("\n") != len(report.rows) or not markdown.endswith(
                    f"Verdict: {report.verdict.value}."):
                errors.append("csv or markdown rendering is malformed")
            return next((e for e in errors if e), None)

        return Instance(f"verify r={r}", call, check, SWEEP_CAP_S)

    def bound(rng) -> Instance:
        n, m = bound_pairs.draw(rng)

        def call():
            p = c.optimize_p(n, m)
            return (c.linear_lower(n, m).value, c.crossing_lemma_lower(n, m).value,
                    p, c.cr_nmp(n, m, p).value)

        def check(result):
            linear, lemma, p, prob = result
            if not 0 < p <= 1 or (p * 1000).denominator != 1:
                return f"p={p} off the 1/1000 grid"
            want = (oracle.linear_value(n, m), oracle.lemma_value(n, m), p,
                    oracle.prob_value(n, m, p))
            return None if result == want else f"got {result}, want {want}"

        return Instance(f"bound n={n} m={m}", call, check, SWEEP_CAP_S)

    def counting(rng) -> Instance:
        n, m = counting_pairs.draw(rng)
        s, rule = rng.randrange(5, min(n, 60) + 1), rng.randrange(1, 6)

        def call():
            base = c.RULE_BY_ID[c.RuleId(f"eq{rule}")]
            return c.counting_lower(n, m, c.SamplingParams(s=s, base=base)).value

        def check(value):
            want = oracle.counting_value(n, m, s, rule)
            return None if value == want else f"got {value}, want {want}"

        return Instance(f"counting n={n} m={m} s={s} eq{rule}", call, check, SWEEP_CAP_S)

    def lemma(r: int) -> Instance:
        def check(result):
            lo, hi = -(-357 * r // 100), 4 * r
            if (result.ok, result.n_lo, result.n_hi) != (True, lo, hi):
                return f"lemma357({r}) = {result}, want ok over [{lo}, {hi}]"
            return None

        return Instance(f"lemma357 r={r}", lambda: v.lemma357_check(r), check, SWEEP_CAP_S)

    def queries(index: int, rng) -> Instance:
        """A round's 24 bound and 16 counting queries as one instance.  One
        query takes ~0.1 ms, too short to time steadily on a shared host: its
        quantiles jump with sub-millisecond bursts of contention, which a
        batch of 40 (~4 ms) averages out."""
        batch = [bound(rng) for _ in range(24)] + [counting(rng) for _ in range(16)]
        rng.shuffle(batch)

        def check(results):
            errors = (inst.check(result) for inst, result in zip(batch, results))
            return next((f"{inst.key}: {e}" for inst, e in zip(batch, errors) if e), None)

        return Instance(f"queries round={index}", lambda: [inst.call() for inst in batch],
                        check, SWEEP_CAP_S)

    def rounds(index: int) -> list[Instance]:
        batch = [queries(index, _rng(seed, "round", index))]
        if index % 4 == 0:
            batch.append(lemma(lemma_r[index // 4 % len(lemma_r)]))
        return batch

    def warmup():
        v.render_report(v.verify_albertson(5), "structured")

    return Workload([verify(r) for r in order], rounds, warmup)


# --------------------------------------------------------------------------
# graph-certify


def graph_certify(mods: dict, seed: int, out_dir: str, trace: bool) -> Workload:
    """graph6 text through parse_graph6, chromatic_number and (for
    criticality claims) is_critical, as check-list runs them."""
    gl = mods["graph_lab"]

    def instance(key, graph, rng, chi, critical_r=None, critical=None) -> Instance:
        graph = oracle.relabel(graph, rng)
        text = oracle.graph6(graph)

        def call():
            g = gl.parse_graph6(text)
            chi_found = gl.chromatic_number(g)
            return g, chi_found, gl.is_critical(g, critical_r) if critical_r else None

        def check(result):
            g, got_chi, got_crit = result
            if (g.vertex_count, g.edges) != graph:
                return "parse_graph6 returned another graph"
            if (got_chi, got_crit) != (chi, critical):
                return f"chi, critical = {got_chi}, {got_crit}; want {chi}, {critical}"
            return None

        return Instance(key, call, check, GRAPH_CAP_S)

    def frontier():
        rng = _rng(seed, "frontier")
        return [instance("Delta9 crit", oracle.delta(9), rng, 9, 9, True),
                instance("Delta10 crit", oracle.delta(10), rng, 10, 10, True),
                instance("Delta11 crit", oracle.delta(11), rng, 11, 11, True),
                instance("Delta12 chi", oracle.delta(12), rng, 12),
                instance("Catlin4 chi", oracle.catlin(4), rng, 10),
                instance("M5 crit", oracle.mycielski(5), rng, 5, 5, True)]

    def rounds(index: int) -> list[Instance]:
        rng = _rng(seed, "round", index)
        batch = []
        for r in range(5, 9):
            batch.append(instance(f"Delta{r} crit", oracle.delta(r), rng, r, r, True))
            batch.append(instance(f"E{r} crit", oracle.efamily(r), rng, r, r, True))
            batch.append(instance(f"Delta{r}+apex crit", oracle.delta_plus_apex_edge(r),
                                  rng, r, r, False))
            batch.append(instance(f"Delta{r}-e crit", oracle.delta_minus_edge(r, rng),
                                  rng, r - 1, r, False))
        batch.append(instance("M4 crit", oracle.mycielski(4), rng, 4, 4, True))
        batch.append(instance("Catlin2 chi", oracle.catlin(2), rng, 5))
        batch.append(instance("Catlin3 chi", oracle.catlin(3), rng, 8))
        rng.shuffle(batch)
        return batch

    def warmup():
        gl.is_critical(gl.parse_graph6(oracle.graph6(oracle.delta(5))), 5)

    return Workload(frontier(), rounds, warmup)


# --------------------------------------------------------------------------
# tk-search


def tk_search(mods: dict, seed: int, out_dir: str, trace: bool) -> Workload:
    """find_topological_clique plus the program's own witness check; every
    witness is re-checked independently and every "no" rests on a theorem
    (Catlin 1979) or a planarity proof."""
    gl = mods["graph_lab"]

    def planar(graph):
        """The graph, once networkx has proved it planar (so it has no TK5)."""
        if not oracle.is_planar(graph):
            raise RuntimeError("generated graph is not planar")
        return graph

    def instance(key, graph, rng, t, exists, cap_s) -> Instance:
        graph = oracle.relabel(graph, rng)
        g = gl.Graph(*graph)

        def call():
            witness = gl.find_topological_clique(g, t)
            return witness, witness is not None and witness.verify(g)

        def check(result):
            witness, verified = result
            if not exists:
                return None if witness is None else "found a witness in a graph with none"
            if witness is None or not verified:
                return "no verified witness where one exists"
            return oracle.check_subdivision(graph, t, witness.branch_vertices, witness.paths)

        return Instance(key, call, check, cap_s)

    def frontier():
        # The label-sensitive searches get a short cap, which bounds what a
        # lucky or unlucky labelling adds to the run; the others always end.
        rng = _rng(seed, "frontier")
        short, full = TK_FRONTIER_CAP_S, TK_CAP_S
        batch = [instance(f"Delta{r} TK{r}", oracle.delta(r), rng, r, True, short)
                 for r in (8, 9, 10)]
        batch += [instance(f"E{r} TK{r}", oracle.efamily(r), rng, r, True, short) for r in (8, 9)]
        batch.append(instance("Catlin3 TK8", oracle.catlin(3), rng, 8, False, short))
        batch += [instance(f"Apollonian{n} TK5", planar(oracle.apollonian(n, rng)), rng, 5,
                           False, short) for n in (16, 17)]
        batch += [instance("Delta7 TK7", oracle.delta(7), rng, 7, True, full),
                  instance("E7 TK7", oracle.efamily(7), rng, 7, True, full),
                  instance("ico TK5", planar(oracle.icosahedron()), rng, 5, False, full),
                  instance("ico TK6", planar(oracle.icosahedron()), rng, 6, False, full)]
        batch += [instance(f"Apollonian{n} TK5", planar(oracle.apollonian(n, rng)), rng, 5,
                           False, full) for n in (14, 15)]
        return batch

    # Searches that end within ~60 ms on every labelling seen, three
    # relabellings each per round.
    light = [("Delta5 TK5", oracle.delta(5), 5, True), ("Delta6 TK6", oracle.delta(6), 6, True),
             ("E5 TK5", oracle.efamily(5), 5, True), ("E6 TK6", oracle.efamily(6), 6, True),
             ("Catlin2 TK5", oracle.catlin(2), 5, True)]

    def rounds(index: int) -> list[Instance]:
        rng = _rng(seed, "round", index)
        batch = [instance(key, graph, rng, t, exists, TK_CAP_S)
                 for key, graph, t, exists in light for _ in range(3)]
        rng.shuffle(batch)
        return batch

    def warmup():
        gl.find_topological_clique(gl.Graph(*oracle.delta(5)), 5)

    return Workload(frontier(), rounds, warmup)


# --------------------------------------------------------------------------
# cli-session

CLI_MAIN = "import sys; from albertson.cli import entry; sys.argv[0] = 'albertson'; entry()"


def _line(out: str, pattern: str) -> str:
    match = re.search(pattern, out, re.MULTILINE)
    if match is None:
        raise ValueError(f"no line matching {pattern!r}")
    return match.group(1)


def cli_session(mods: dict, seed: int, out_dir: str, trace: bool) -> Workload:
    """A seeded mix of `albertson` subcommands, each its own subprocess."""
    src = os.path.dirname(os.path.dirname(mods["albertson"].__file__))
    env = dict(os.environ, PYTHONPATH=src)
    g6_path = os.path.join(out_dir, f"check-list-{seed}.g6")
    rng = _rng(seed, "check-list")
    members = [oracle.relabel(graph, rng)
               for graph in (oracle.delta(5), oracle.efamily(5), oracle.delta(5))]
    with open(g6_path, "w", encoding="utf-8") as handle:
        handle.write("".join(oracle.graph6(g) + "\n" for g in members))

    def checks(args: list[str], out: str, code: int) -> str | None:
        """Known answer for one command's stdout and exit status."""
        cmd, opts = args[0], dict(zip(args[1::2], args[2::2]))
        num = {k: int(x) for k, x in opts.items() if x.lstrip("-").isdigit()}
        if cmd in ("verify", "table"):
            r = num["--r"]
            if r in oracle.VERIFIED_R and code != 0 or r == 17 and code != 1:
                return f"exit {code}"
            if opts.get("--format") == "structured":
                doc = json.loads(out)
                return oracle.verdict_error(r, doc["verdict"], tuple(doc["gaps"]),
                                            doc["tail"]["valid"])
            if opts.get("--format") == "markdown":
                want = "Verified" if code == 0 else "GapsRemain"
                return None if f"Verdict: {want}." in out else "verdict line disagrees with exit"
            header = "n,e,linear_bound,p" if opts.get("--format") == "csv" else "| n | e | bound ("
            return None if out.startswith(header) else "no table header"
        if code != 0 and cmd != "catlin":
            return f"exit {code}"
        if cmd == "edges":
            want = oracle.edge_bound(num["--r"], num["--n"])
            return None if int(_line(out, r"^best: m >= (\d+)")) == want else "best edge bound"
        if cmd == "bound":
            n, m = num["--n"], num["--m"]
            p = Fraction(_line(out, r"^p: (\S+)"))
            got = (int(_line(out, r"^linear: (\d+)")), int(_line(out, r"^crossing lemma: (\d+)")),
                   int(_line(out, r"^probabilistic: (\d+)")))
            want = (oracle.linear_value(n, m), oracle.lemma_value(n, m), oracle.prob_value(n, m, p))
            return None if got == want else f"bounds {got}, want {want}"
        if cmd == "counting":
            want = oracle.counting_value(num["--n"], num["--m"], num["--s"],
                                         int(opts["--base"][2:]))
            return None if int(_line(out, r"^counting: (\d+)")) == want else "counting bound"
        if cmd == "lemma357":
            return None if "holds: yes" in out else "lemma357 does not hold"
        if cmd == "catlin":
            k = num["--k"]
            fails = [x for x in oracle.CATLIN_FAILURES if x <= k]
            want = ", ".join(map(str, [1] + fails))  # k = 1: both sides are 0
            if code != (1 if fails else 0) or _line(out, r"^failing k: (.*)$") != want:
                return f"catlin exit {code}, want failures {want}"
            return None
        if cmd == "check-list":
            lines = out.splitlines()
            ok = len(lines) == len(members) and all(
                line.endswith("critical(5)=yes topological K5=yes") for line in lines)
            return None if ok else "check-list verdicts"
        return None  # families: the exit status carries every claim

    def command(args: list[str]) -> Instance:
        def call():
            proc = subprocess.run([sys.executable, "-c", CLI_MAIN, *args], env=env,
                                  capture_output=True, text=True, check=False)
            return proc.stdout, proc.returncode

        def check(result):
            out, code = result
            error = checks(args, out, code)
            if error is None and trace:
                buffer = io.StringIO()
                with contextlib.redirect_stdout(buffer), contextlib.redirect_stderr(io.StringIO()):
                    mods["cli"].run(args)
                if buffer.getvalue() != out:
                    error = "in-process cli.run output differs from the subprocess"
            return error

        return Instance("albertson " + " ".join(args), call, check, CLI_CAP_S)

    def rounds(index: int) -> list[Instance]:
        rng = _rng(seed, "round", index)
        r = rng.randrange(5, 31)
        n = rng.randrange(10, 201)
        m = rng.randrange(4 * n, n * (n - 1) // 2 + 1)
        bound = ["bound", "--n", str(n), "--m", str(m)]
        if rng.random() < 0.5:
            bound += ["--p", f"{rng.randrange(1, 1001)}/1000"]
        cn = rng.randrange(10, 201)
        batch = [
            ["verify", "--r", str(r), "--format", ("markdown", "csv", "structured")[index % 3]],
            ["table", "--r", str(rng.randrange(5, 31))],
            ["edges", "--r", str(r), "--n", str(rng.randrange(r + 2, 4 * r + 1))],
            bound,
            ["counting", "--n", str(cn), "--m", str(rng.randrange(cn, cn * (cn - 1) // 2 + 1)),
             "--s", str(rng.randrange(5, min(cn, 60) + 1)), "--base", f"eq{rng.randrange(1, 6)}"],
            ["lemma357", "--r", str(rng.randrange(17, 201))],
            ["catlin", "--k", str(rng.randrange(1, 61))],
            rng.choice([["families", "--kind", "Delta", "--r", str(rng.randrange(4, 7))],
                        ["families", "--kind", "EFamily", "--r", str(rng.randrange(4, 6))],
                        ["families", "--kind", "Catlin", "--k", str(rng.randrange(1, 3))],
                        ["families", "--kind", "Complete", "--n", str(rng.randrange(3, 8))]]),
            ["check-list", "--file", g6_path, "--r", "5"],
        ]
        rng.shuffle(batch)
        return [command(args) for args in batch]

    def warmup():
        subprocess.run([sys.executable, "-c", CLI_MAIN, "bound", "--n", "18", "--m", "128"],
                       env=env, capture_output=True, check=True)

    return Workload([], rounds, warmup)


WORKLOADS = {
    "verify-sweep": verify_sweep,
    "graph-certify": graph_certify,
    "tk-search": tk_search,
    "cli-session": cli_session,
}
