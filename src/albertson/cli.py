"""Command-line front end.

Subcommands cover the full verification surface: `verify` and `table` run the
case analysis for one r, `edges` and `bound` expose the individual edge and
crossing bounds, `counting` the subgraph-averaging bound, `lemma357` the
large-n counting sweep, `catlin` the Catlin-family comparison, `families`
builds and checks the structured families, and `check-list` ingests a graph6
file and checks each graph for criticality and topological-K_r containment.

Exit status: 0 when the requested verification succeeded, 1 when it ran but
left gaps or failures or stdout was closed early, 2 for usage, domain, or
resource errors.  Identical
invocations produce byte-identical output; every non-integer number is
printed as an exact rational with a 4-decimal rendering alongside.

Each subcommand imports the modules it runs inside its own function, so a
call loads only those: `edges` loads `bounds` alone, and only `families` and
`check-list` load `graph_lab`.  The same holds for the standard library:
only the helpers that print or parse a rational import `fractions`, and
only the structured report format imports `json`, so `edges`, `families`
and `check-list` load no `fractions`.  The package defines its records as
NamedTuples and slotted classes, so no command loads `dataclasses`.
"""
from __future__ import annotations

import argparse
import os
import sys

from .choices import FamilyKind, ReportFormat, RuleId
from .errors import AlbertsonError, BudgetExceededError, Graph6Error, InapplicableRuleError


def _rational(x, den: int = 1) -> str:
    """x/den exactly, with a 4-decimal rendering unless it is an integer."""
    from fractions import Fraction

    x = Fraction(x, den)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x} ({float(x):.4f})"


def _yes(flag: bool) -> str:
    return "yes" if flag else "no"


def _fraction_arg(text: str) -> Fraction:
    from fractions import Fraction

    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a rational: {text!r}") from None


def _sizes_arg(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated size list: {text!r}") from None


def _budget_arg(text: str) -> dict[str, int]:
    from .graph_lab import _parse_budget

    try:
        return _parse_budget(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _cmd_verify(args) -> int:
    from .verifier import Verdict, compare_with_reference, render_report, verify_albertson

    report = verify_albertson(args.r)
    print(render_report(report, args.format))
    if args.format == ReportFormat.MARKDOWN.value:
        for flag in compare_with_reference(report):
            print(f"note (reference comparison): {flag}")
    return 0 if report.verdict is Verdict.VERIFIED else 1


def _cmd_table(args) -> int:
    from .verifier import Verdict, markdown_table, verify_albertson

    report = verify_albertson(args.r)
    print("\n".join(markdown_table(report)))
    return 0 if report.verdict is Verdict.VERIFIED else 1


def _cmd_edges(args) -> int:
    from .bounds import (CriticalParams, dirac_edges, gallai_edges, join_refined_edges,
                         ks_edges, min_edges)

    params = CriticalParams(r=args.r, n=args.n)
    best = min_edges(params)  # rejects n < r+2 before anything is printed
    print(f"r = {args.r}, n = {args.n}")
    for name, rule in (("Dirac", dirac_edges), ("Gallai", gallai_edges), ("KS", ks_edges)):
        try:
            eb = rule(params)
            print(f"{name}: m >= {eb.m_min} (excess {eb.excess})")
        except InapplicableRuleError as exc:
            print(f"{name}: inapplicable ({exc})")
    print(f"best: m >= {best.m_min} via {best.rule.value} (excess {best.excess})")
    if args.n == 2 * args.r - 2:
        refined = join_refined_edges(args.r)
        print(f"join refinement: m >= {refined.m_min} (excess {refined.excess})")
    return 0


def _cmd_bound(args) -> int:
    from .crossing import cr_nmp, crossing_lemma_lower, linear_lower, optimize_p

    # every bound is computed before the first line is printed, so a domain
    # error leaves stdout empty
    n, m = args.n, args.m
    lin = linear_lower(n, m)
    lines = [f"n = {n}, m = {m}",
             f"linear: {lin.value} via {lin.method.describe()} (raw {_rational(lin.raw)})"]
    try:
        lemma = crossing_lemma_lower(n, m)
        lines.append(f"crossing lemma: {lemma.value} via {lemma.method.describe()} "
                     f"(raw {_rational(lemma.raw)})")
    except InapplicableRuleError as exc:
        lines.append(f"crossing lemma: inapplicable ({exc})")
    if n >= 10:
        if args.p is not None:
            p = args.p
        elif m >= 1:
            p = optimize_p(n, m)
        else:
            p = 1
        prob = cr_nmp(n, m, p)
        lines.append(f"p: {_rational(p)}")
        lines.append(f"probabilistic: {prob.value} (raw {_rational(prob.raw)})")
    else:
        lines.append("probabilistic: inapplicable (needs n >= 10)")
    print("\n".join(lines))
    return 0


def _cmd_counting(args) -> int:
    from .crossing import RULE_BY_ID, SamplingParams, counting_lower

    params = SamplingParams(s=args.s, base=RULE_BY_ID[RuleId(args.base)])
    result = counting_lower(args.n, args.m, params)
    print(f"n = {args.n}, m = {args.m}, s = {args.s}, base = {args.base}")
    print(f"counting: {result.value} (raw {_rational(result.raw)})")
    return 0


def _cmd_lemma357(args) -> int:
    from .verifier import lemma357_check

    result = lemma357_check(args.r)
    print(f"r = {args.r}, n range [{result.n_lo}, {result.n_hi}], "
          f"target {_rational(args.r * (args.r-1) * (args.r-2) * (args.r-3), 64)}")
    print(f"minimal margin: {_rational(result.min_margin)} at n = {result.argmin_n}")
    print(f"holds: {_yes(result.ok)}")
    return 0 if result.ok else 1


def _cmd_catlin(args) -> int:
    from .verifier import catlin_check

    report = catlin_check(args.k)
    print(f"asymptotic coefficients: lower {_rational(report.lower_coefficient)}, "
          f"upper {_rational(report.upper_coefficient)}")
    for row in report.rows:
        print(f"k = {row.k}: L = {row.lower}, R = {row.upper}, "
              f"L > R {_yes(row.holds)}")
    print(f"first k where the comparison holds: {report.first_hold}")
    failing = ", ".join(str(k) for k in report.failures) if report.failures else "none"
    print(f"failing k: {failing}")
    return 0 if all(row.holds for row in report.rows if row.k >= 2) else 1


def _family_specs(args) -> list[FamilySpec]:
    from .graph_lab import FamilySpec, delta_splits, efamily_splits

    kind = FamilyKind(args.kind)
    # Catlin and Complete take one number; Delta and EFamily take --r or --sizes
    one = {FamilyKind.CATLIN: "k", FamilyKind.COMPLETE: "n"}.get(kind)
    takes = (one,) if one else ("r", "sizes")
    given = [opt for opt in ("r", "sizes", "k", "n") if getattr(args, opt) is not None]
    for opt in given:
        if opt not in takes:
            raise ValueError(f"{args.kind} does not take --{opt}")
    if not given:
        raise ValueError(f"{args.kind} needs "
                         + (f"--{one}" if one else "--r (all splits) or --sizes (one split)"))
    if len(given) > 1:
        raise ValueError(f"{args.kind} takes --r or --sizes, not both")
    if one:
        return [FamilySpec(kind, (getattr(args, one),))]
    if args.sizes is not None:
        return [FamilySpec(kind, args.sizes)]
    splits = delta_splits if kind is FamilyKind.DELTA else efamily_splits
    return list(splits(args.r))


def _cmd_families(args) -> int:
    from .graph_lab import (build_family, chromatic_number, contains_topological_clique,
                            is_critical, serialize_graph6)

    coloring = args.budget.get("coloring")
    subdivision = args.budget.get("subdivision")
    ok = True
    for spec in _family_specs(args):
        g = build_family(spec)
        r = spec.r
        print(f"{spec.kind.value} sizes={','.join(str(s) for s in spec.sizes)}: "
              f"n={g.vertex_count} m={g.edge_count} graph6={serialize_graph6(g)}")
        chi = chromatic_number(g, max_n=coloring)
        print(f"  chromatic number: {chi} (expected {r})")
        ok = ok and chi == r
        if spec.kind in (FamilyKind.DELTA, FamilyKind.EFAMILY):
            verified = contains_topological_clique(g, r, max_n=subdivision)
            critical = is_critical(g, r, max_n=coloring)
            print(f"  critical({r}): {_yes(critical)}")
            print(f"  topological K{r}: "
                  + ("yes (witness verified)" if verified else "no"))
            ok = ok and critical and verified
    return 0 if ok else 1


def _cmd_check_list(args) -> int:
    from .graph_lab import (chromatic_number, contains_topological_clique, is_critical,
                            parse_graph6)

    try:
        with open(args.file, encoding="utf-8") as handle:
            lines = handle.read().splitlines()
    except OSError as exc:
        print(f"error: cannot read {args.file}: {exc}", file=sys.stderr)
        return 2
    ok = True
    for index, line in enumerate(lines, start=1):
        text = line.strip()
        if not text or text.startswith("#"):
            continue
        try:
            g = parse_graph6(text)
        except Graph6Error as exc:
            print(f"{index}: parse error: {exc}")
            ok = False
            continue
        try:
            chi = chromatic_number(g, max_n=args.budget.get("coloring"))
            topological = contains_topological_clique(g, args.r, max_n=args.budget.get("subdivision"))
            critical = is_critical(g, args.r, max_n=args.budget.get("coloring"))
        except BudgetExceededError as exc:
            print(f"{index}: budget exceeded: {exc}")
            ok = False
            continue
        print(f"{index}: n={g.vertex_count} m={g.edge_count} chi={chi} "
              f"critical({args.r})={_yes(critical)} "
              f"topological K{args.r}={_yes(topological)}")
        ok = ok and critical and topological
    return 0 if ok else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="albertson",
        description="Exact crossing-number verification for color-critical graphs.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="full case analysis for one r")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--format", choices=[fmt.value for fmt in ReportFormat],
                   default=ReportFormat.MARKDOWN.value)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("table", help="case-analysis rows only")
    p.add_argument("--r", type=int, required=True)
    p.set_defaults(func=_cmd_table)

    p = sub.add_parser("edges", help="edge bounds for an r-critical graph on n vertices")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=_cmd_edges)

    p = sub.add_parser("bound", help="crossing-number lower bounds from (n, m)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--p", type=_fraction_arg,
                   help="sampling probability (rational, e.g. 719/1000 or 0.719); "
                        "optimized when omitted")
    p.set_defaults(func=_cmd_bound)

    p = sub.add_parser("counting", help="subgraph-averaging bound")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--base", choices=[rule.value for rule in RuleId], default=RuleId.EQ4.value)
    p.set_defaults(func=_cmd_counting)

    p = sub.add_parser("lemma357", help="counting-bound sweep for 3.57r <= n <= 4r")
    p.add_argument("--r", type=int, required=True)
    p.set_defaults(func=_cmd_lemma357)

    p = sub.add_parser("catlin", help="Catlin-family comparison up to k")
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(func=_cmd_catlin)

    kinds = [kind.value for kind in FamilyKind]
    p = sub.add_parser("families", help=f"build and check {'/'.join(kinds)} members")
    p.add_argument("--kind", choices=kinds, required=True)
    p.add_argument("--r", type=int, help="enumerate all splits for this r")
    p.add_argument("--sizes", type=_sizes_arg, help="one explicit split, e.g. 3,1,3")
    p.add_argument("--k", type=int, help="Catlin parameter")
    p.add_argument("--n", type=int, help="Complete order")
    p.add_argument("--budget", type=_budget_arg, default={},
                   help="override search budgets, e.g. coloring=50,subdivision=24")
    p.set_defaults(func=_cmd_families)

    p = sub.add_parser("check-list", help="check a graph6 file of candidate r-critical graphs")
    p.add_argument("--file", required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--budget", type=_budget_arg, default={},
                   help="override search budgets, e.g. coloring=50,subdivision=24")
    p.set_defaults(func=_cmd_check_list)

    return parser


def run(argv=None) -> int:
    """Parse argv and execute; returns the exit status."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ValueError, AlbertsonError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    try:
        status = run()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout: send the interpreter's final flush to
        # devnull so it cannot raise again, and exit quietly with status 1
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)
    sys.exit(status)


if __name__ == "__main__":
    entry()
