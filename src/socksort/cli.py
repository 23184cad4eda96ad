"""Command line interface.

Every subcommand accepts --format text|json-lines.  Exit codes: 0 for a
completed command (membership verdicts of both kinds count as success),
1 when a verification or agreement check fails, 2 for usage errors.
Library functions and the commands' own checks raise ValueError for input
outside their bounds; `main` is the one place that turns it into exit 2.
"""

from __future__ import annotations

import argparse
import json
import sys
from bisect import insort

from . import core, image_membership, preimage_fertility, stack_machine, verify
from .core import format_sequence, parse_sequence
from .patterns import parse_patterns

DIVIDER = "‖"  # double vertical bar
SEQUENCE_HELP = "letters a-z or comma-separated integers; - reads it from stdin"


class Emitter:
    def __init__(self, fmt: str) -> None:
        self.json = fmt == "json-lines"

    def line(self, text: str, **record) -> None:
        if self.json:
            print(json.dumps(record, sort_keys=True))
        else:
            print(text)


# ---------------------------------------------------------------------------
# rendering


def render_dividers(seq: core.SockSeq, dividers, mark: int | None = None) -> str:
    """Sequence with divider bars, optionally highlighting one position
    (uppercase in letter form, brackets in integer form)."""
    div = set(dividers)
    letters = all(s < 26 for s in seq)
    out: list[str] = []
    for i, sock in enumerate(seq):
        if i > 0:
            out.append(DIVIDER if i in div else ("" if letters else ","))
        tok = core._LETTERS[sock] if letters else str(sock)
        if mark == i:
            tok = tok.upper() if letters else f"[{tok}]"
        out.append(tok)
    return "".join(out)


def _gamma_rows(trace: image_membership.GammaTrace):
    """Change-point rows: the start, every divider crossing, and every run
    that scores or has length >= 2; each rendered after its own edits."""
    layout = list(trace.initial_dividers)
    yield 0, 0, tuple(layout)
    for st in trace.steps:
        if st.kind == "run":
            if st.score > 0:
                for d in st.dividers:
                    layout.remove(d)
            elif st.score == -1:
                insort(layout, st.dividers[0])
            elif st.run_length < 2:
                continue
        yield st.position, st.gamma_after, tuple(layout)


# ---------------------------------------------------------------------------
# subcommands


def cmd_sort(args, emit: Emitter) -> int:
    seq = parse_sequence(sys.stdin.read() if args.sequence == "-" else args.sequence)
    pats = parse_patterns(args.pattern)
    if args.k < 1:
        raise ValueError("--k must be at least 1")
    letters = all(s < 26 for s in seq)  # every pass permutes the same socks
    current = seq
    for i in range(1, args.k + 1):
        if args.trace:
            trace = stack_machine.phi_trace(current, pats)
            for ev in trace.events:
                side = "input" if ev.kind == "push" else "output"
                sock = core._LETTERS[ev.sock] if letters else ev.sock
                emit.line(
                    f"{ev.kind} {sock} ({side} {ev.index})",
                    record="event", kind=ev.kind, sock=ev.sock, index=ev.index,
                    pass_index=i,
                )
            current = trace.output
        else:
            current = stack_machine.phi(current, pats)
        if args.k > 1:
            emit.line(f"pass {i}: {format_sequence(current)}", record="pass",
                      index=i, sequence=format_sequence(current))
        if core.is_sorted(current) and i < args.k:
            emit.line(f"sorted after {i} passes", record="sorted-early", passes=i)
            break
    emit.line(
        f"output: {format_sequence(current)}",
        record="output",
        sequence=format_sequence(current),
        sorted=core.is_sorted(current),
    )
    return 0


def cmd_image_check(args, emit: Emitter) -> int:
    seq = parse_sequence(sys.stdin.read() if args.sequence == "-" else args.sequence)
    if args.map == "aba" and args.witness:
        raise ValueError("--witness applies to the cons-aba map only")
    if args.map == "cons-aba":
        res = image_membership.in_image_cons(seq)
        if args.trace:
            removed, kept = image_membership.sandwich_decompose(seq)
            extracted = [seq[i] for i in removed]
            emit.line(f"extracted: {format_sequence(extracted)}", record="extracted",
                      socks=extracted, positions=list(removed))
            residual = format_sequence(seq[i] for i in kept)
            emit.line(f"residual: {residual}", record="residual", sequence=residual)
        verdict = "MEMBER" if res.member else "NON-MEMBER"
        emit.line(f"verdict: {verdict}", record="verdict", member=res.member)
        if args.witness:
            witness = None if res.witness is None else format_sequence(res.witness)
            emit.line(f"witness: {'none' if witness is None else witness}",
                      record="witness", sequence=witness)
        return 0
    trace = image_membership.gamma_trace(seq)
    member = trace.final_gamma >= 0
    rendered = render_dividers(seq, trace.initial_dividers)
    emit.line(f"dividers: {rendered}", record="dividers",
              positions=list(trace.initial_dividers), rendered=rendered)
    if args.trace:
        for pos, gamma, layout in _gamma_rows(trace):
            row = render_dividers(seq, layout, mark=pos)
            emit.line(f"  {row}  gamma={gamma}", record="gamma-row",
                      position=pos, gamma=gamma, dividers=list(layout),
                      rendered=row)
    verdict = "MEMBER" if member else "NON-MEMBER"
    emit.line(f"verdict: {verdict} (gamma={trace.final_gamma})",
              record="verdict", member=member, gamma=trace.final_gamma)
    return 0


def cmd_preimages(args, emit: Emitter) -> int:
    seq = parse_sequence(args.sequence)
    report = preimage_fertility.preimages_of(seq, preimage_fertility.MAPS[args.map])
    for q in report.preimages:
        emit.line(f"preimage: {format_sequence(q)}", record="preimage",
                  sequence=format_sequence(q))
    emit.line(f"count: {report.count}", record="count",
              target=format_sequence(report.target), count=report.count)
    return 0


def cmd_fertility(args, emit: Emitter) -> int:
    r = verify.fertility(args.m, args.n, preimage_fertility.MAPS[args.map])
    emit.line(f"witness: {r['witness']} preimages={r['count']} expected={r['expected']} "
              f"match={'yes' if r['match'] else 'NO'}", **r)
    return 0 if r["match"] else 1


def cmd_staircase(args, emit: Emitter) -> int:
    r = verify.staircase(args.n, args.k, preimage_fertility.MAPS[args.map])
    emit.line(f"target: {r['target']} preimages={r['count']} formula={r['expected']} "
              f"match={'yes' if r['match'] else 'NO'}", **r)
    return 0 if r["match"] else 1


def cmd_count_1ss(args, emit: Emitter) -> int:
    ok = True
    for r in verify.count_1ss(args.n_max):
        if r["record"] == "survey":
            emit.line(f"survey aba={r['aba']} aab={r['aab']} "
                      f"totals={','.join(map(str, r['totals']))} "
                      f"doubling={'yes' if r['doubling'] else 'no'}", **r)
            continue
        ok = ok and r["doubling"] and r["shifted_binomial"]
        emit.line(
            f"n={r['n']} total={r['total']} pow2={'PASS' if r['doubling'] else 'FAIL'} "
            f"row={','.join(map(str, r['by_distinct']))} "
            f"shifted_binomial={'PASS' if r['shifted_binomial'] else 'FAIL'} "
            f"unshifted_binomial={'PASS' if r['unshifted_binomial'] else 'FAIL'}", **r)
    return 0 if ok else 1


def cmd_witness(args, emit: Emitter) -> int:
    ok = False
    for r in verify.witness(parse_patterns(args.patterns), args.m):
        if r["record"] == "witness":
            ok = r["verdict"] == "never-sorts"
            emit.line(f"case: {r['case']} witness: {r['witness'] or '-'} "
                      f"verdict: {r['verdict']}", **r)
        elif r["record"] == "pass":
            emit.line(f"pass {r['index']}: {r['sequence']}", **r)
        else:
            emit.line("cycle: output renames to the input", **r)
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# verify


def cmd_verify(args, emit: Emitter) -> int:
    results = verify.run(args.max_n)
    failed = 0
    for name, ok, detail in results:
        status = "PASS" if ok else "FAIL"
        failed += not ok
        pretty = " ".join(f"{k}={v}" for k, v in detail.items())
        emit.line(f"{status} {name} {pretty}", record="check", name=name,
                  status=status, detail=detail)
    summary = "OK" if failed == 0 else "FAILED"
    emit.line(f"{summary}: {len(results) - failed}/{len(results)} checks passed",
              record="summary", status=summary, passed=len(results) - failed,
              failed=failed, max_n=args.max_n)
    return 0 if failed == 0 else 1


# ---------------------------------------------------------------------------
# bench


def cmd_bench(args, emit: Emitter) -> int:
    parts = [part.strip() for part in args.lengths.split(",") if part.strip()]
    if not parts or not all(part.isdecimal() for part in parts):
        raise ValueError(f"bad lengths {args.lengths!r}")
    ok = True
    for r in verify.bench([int(part) for part in parts], args.seed):
        if r["record"] == "poly":
            emit.line(f"length={r['length']} {r['map']}: member="
                      f"{'yes' if r['member'] else 'no'} time={r['seconds']:.6f}s", **r)
        else:
            ok = ok and r["agree"]
            emit.line(f"length={r['length']} brute: enumerated={r['enumerated']} "
                      f"agree={'yes' if r['agree'] else 'NO'} time={r['seconds']:.3f}s", **r)
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="socksort",
        description="Pattern-avoiding stack sorting of sock sequences.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, func, help_: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_)
        p.add_argument("--format", choices=("text", "json-lines"), default="text")
        p.set_defaults(func=func)
        return p

    p = add("sort", cmd_sort, "apply one or more sorting passes")
    p.add_argument("sequence", help=SEQUENCE_HELP)
    p.add_argument("--pattern", required=True,
                   help="comma-separated patterns, ~ prefix for consecutive"
                        " (e.g. '~aba,~aab')")
    p.add_argument("--k", type=int, default=1, help="number of passes")
    p.add_argument("--trace", action="store_true")

    p = add("image-check", cmd_image_check, "membership in a sorting map image")
    p.add_argument("sequence", help=SEQUENCE_HELP)
    p.add_argument("--map", choices=sorted(preimage_fertility.MAPS), required=True)
    p.add_argument("--trace", action="store_true")
    p.add_argument("--witness", action="store_true",
                   help="print a preimage when the cons-aba verdict is MEMBER")

    p = add("preimages", cmd_preimages, "enumerate preimages up to renaming")
    p.add_argument("sequence")
    p.add_argument("--map", choices=sorted(preimage_fertility.MAPS), required=True)

    p = add("fertility", cmd_fertility, "witness with a prescribed preimage count")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--map", choices=sorted(preimage_fertility.MAPS), required=True)

    p = add("staircase", cmd_staircase, "preimage count of a staircase target")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--map", choices=sorted(preimage_fertility.MAPS), required=True)

    p = add("count-1ss", cmd_count_1ss, "count one-pass-sortable sequences")
    p.add_argument("--n-max", type=int, required=True)

    p = add("witness", cmd_witness, "find a sequence no number of passes sorts")
    p.add_argument("--patterns", required=True)
    p.add_argument("--m", type=int, required=True)

    p = add("verify", cmd_verify, "run the derived-value verification suite")
    p.add_argument("max_n", type=int)

    p = add("bench", cmd_bench, "time the membership algorithms")
    p.add_argument("--lengths", default="12,100,1000,10000")
    p.add_argument("--seed", type=int, default=20240801)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2
    emit = Emitter(args.format)
    try:
        return args.func(args, emit)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
