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

from . import core, preimage_fertility, verify
from .core import format_sequence, parse_sequence
from .patterns import parse_patterns

SEQUENCE_HELP = "letters a-z or comma-separated integers; - reads it from stdin"


# ---------------------------------------------------------------------------
# subcommands: each renders the records a verify function returns


def render(fmt: str, records, text: dict, ok=None) -> int:
    """Print each record as a json line or as text[its kind] writes it;
    exit code 1 if ok rejects one."""
    failed = False
    for r in records:
        failed |= ok is not None and not ok(r)
        print(json.dumps(r, sort_keys=True) if fmt == "json-lines" else text[r["record"]](r))
    return int(failed)


def read_sequence(text: str) -> core.SockSeq:
    return parse_sequence(sys.stdin.read() if text == "-" else text)


def say(flag: bool, yes: str = "yes", no: str = "NO") -> str:
    return yes if flag else no


PASS = "pass {index}: {sequence}".format_map


def cmd_sort(args) -> int:
    seq = read_sequence(args.sequence)
    letters = core.letter_form(seq)  # every pass permutes the same socks
    records = verify.sort(seq, parse_patterns(args.pattern), args.k, args.trace)
    return render(args.format, records, {
        "event": lambda r: f"{r['kind']} {format_sequence((r['sock'],), letters)} "
                           f"({'input' if r['kind'] == 'push' else 'output'} {r['index']})",
        "pass": PASS,
        "sorted-early": "sorted after {passes} passes".format_map,
        "output": "output: {sequence}".format_map,
    })


def cmd_image_check(args) -> int:
    seq = read_sequence(args.sequence)
    return render(args.format, verify.image_check(seq, args.map, args.trace, args.witness), {
        "extracted": lambda r: "extracted: " + format_sequence(r["socks"], core.letter_form(seq)),
        "residual": "residual: {sequence}".format_map,
        "witness": lambda r: f"witness: {'none' if r['sequence'] is None else r['sequence']}",
        "dividers": "dividers: {rendered}".format_map,
        "gamma-row": "  {rendered}  gamma={gamma}".format_map,
        "verdict": lambda r: f"verdict: {say(r['member'], 'MEMBER', 'NON-MEMBER')}"
                             + (f" (gamma={r['gamma']})" if "gamma" in r else ""),
    })


def cmd_preimages(args) -> int:
    seq = parse_sequence(args.sequence)
    return render(args.format, verify.preimages(seq, preimage_fertility.MAPS[args.map]), {
        "preimage": "preimage: {sequence}".format_map, "count": "count: {count}".format_map})


def cmd_fertility(args) -> int:
    records = [verify.fertility(args.m, args.n, preimage_fertility.MAPS[args.map])]
    return render(args.format, records, {
        "fertility": lambda r: f"witness: {r['witness']} preimages={r['count']} "
                               f"expected={r['expected']} match={say(r['match'])}",
    }, lambda r: r["match"])


def cmd_staircase(args) -> int:
    records = [verify.staircase(args.n, args.k, preimage_fertility.MAPS[args.map])]
    return render(args.format, records, {
        "staircase": lambda r: f"target: {r['target']} preimages={r['count']} "
                               f"formula={r['expected']} match={say(r['match'])}",
    }, lambda r: r["match"])


def cmd_count_1ss(args) -> int:
    return render(args.format, verify.count_1ss(args.n_max), {
        "survey": lambda r: f"survey aba={r['aba']} aab={r['aab']} "
                            f"totals={','.join(map(str, r['totals']))} "
                            f"doubling={say(r['doubling'], no='no')}",
        "count": lambda r: f"n={r['n']} total={r['total']} "
                           f"pow2={say(r['doubling'], 'PASS', 'FAIL')} "
                           f"row={','.join(map(str, r['by_distinct']))} "
                           f"shifted_binomial={say(r['shifted_binomial'], 'PASS', 'FAIL')} "
                           f"unshifted_binomial={say(r['unshifted_binomial'], 'PASS', 'FAIL')}",
    }, lambda r: r["record"] != "count" or r["doubling"] and r["shifted_binomial"])


def cmd_witness(args) -> int:
    return render(args.format, verify.witness(parse_patterns(args.patterns), args.m), {
        "witness": lambda r: f"case: {r['case']} witness: {r['witness'] or '-'} "
                             f"verdict: {r['verdict']}",
        "pass": PASS,
        "cycle": lambda r: "cycle: output renames to the input",
    }, lambda r: r["record"] != "witness" or r["verdict"] == "never-sorts")


def cmd_bench(args) -> int:
    parts = [part.strip() for part in args.lengths.split(",") if part.strip()]
    if not parts or not all(part.isdecimal() for part in parts):
        raise ValueError(f"bad lengths {args.lengths!r}")
    return render(args.format, verify.bench([int(part) for part in parts], args.seed), {
        "poly": lambda r: f"length={r['length']} {r['map']}: member={say(r['member'], no='no')} "
                          f"time={r['seconds']:.6f}s",
        "brute": lambda r: f"length={r['length']} brute: enumerated={r['enumerated']} "
                           f"agree={say(r['agree'])} time={r['seconds']:.3f}s",
    }, lambda r: r["record"] != "brute" or r["agree"])


def cmd_verify(args) -> int:
    return render(args.format, verify.run(args.max_n), {
        "check": lambda r: f"{r['status']} {r['name']} "
                           + " ".join(f"{k}={v}" for k, v in r["detail"].items()),
        "summary": lambda r: f"{r['status']}: {r['passed']}/{r['passed'] + r['failed']} "
                             "checks passed",
    }, lambda r: r["record"] != "summary" or r["status"] == "OK")


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
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
