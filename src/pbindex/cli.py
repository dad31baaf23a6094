"""Command-line front end: argument parsing, reports and the four subcommands.

Subcommands: ``analyze``, ``approximate``, ``verify``, ``generate``.  Game
files are read and written by :mod:`pbindex.games`, and ``verify`` runs the
battery of :mod:`pbindex.checks`.
``analyze`` and ``approximate --format csv`` write their rows through one
writer, :func:`write_rows`, from float columns aligned with an array of
subsets.
Exit codes: 0 success, 1 validation or parse error, 2 verification failure.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import itertools
import sys
from typing import List, Mapping, Optional, Sequence, TextIO, Union

import numpy as np

from . import approx as approx_mod
from . import checks, indices
from .core import Coalition, mask_from_players, players_from_mask
from .errors import PbindexError, ValidationError
from .games import (
    UNANIMITY_NEEDS,
    WEIGHTED_VOTING_NEEDS,
    _expand_random,
    _expand_unanimity,
    _expand_weighted_voting,
    parse_game,
    serialize_game,
)
from .measure import ProbabilityProfile

MAX_ENUMERATED_PLAYERS = 16  # "all subsets" explodes past this


# ---------------------------------------------------------------------------
# report rows and rendering
# ---------------------------------------------------------------------------

def format_subset(mask: Coalition) -> str:
    return "{" + ",".join(str(i) for i in players_from_mask(mask)) + "}"


VALUE_SPEC = ".12g"


# subsets formatted and written at a time by write_rows
REPORT_CHUNK = 4096


def _joined_players(bits: range) -> List[str]:
    # entry m: the 1-based labels of the set bits of m (taken from ``bits``), comma-joined
    out = [""]
    for i in bits:
        label = str(i + 1)
        out += [f"{s},{label}" if s else label for s in out]
    return out


def _subset_labeler(n: int):
    """A function mask -> format_subset(mask) for masks over n players.

    It joins two precomputed lists, one over the low and one over the high
    half of the bits, so it does no per-player work.
    """
    low = (n + 1) // 2
    lo, hi = _joined_players(range(low)), _joined_players(range(low, n))
    lo_mask = (1 << low) - 1

    def label(mask: int) -> str:
        a, b = lo[mask & lo_mask], hi[mask >> low]
        return "{" + (f"{a},{b}" if a and b else a or b) + "}"

    return label


def _label_width(masks: np.ndarray, n: int) -> int:
    # len(format_subset(S)) = 2 + sum over players (digits + 1), less the
    # missing trailing comma of a nonempty S
    width = 2 - (masks != 0).astype(np.int64)
    for i in range(n):
        width += (masks >> i & 1) * (len(str(i + 1)) + 1)
    return int(width.max(initial=2))


def write_rows(
    subsets: np.ndarray, columns: Mapping[str, np.ndarray], n: int, fmt: str, out: TextIO
) -> None:
    """Write the rows (subset, index, value) of a report held as columns.

    ``columns`` maps each index name to a float64 array aligned with
    ``subsets`` (masks over n players).  Every subset gets one row per
    column, in column order; a NaN value writes no row.  ``fmt`` is "csv"
    (a ``subset,index,value`` header, labels with a comma quoted as
    ``csv.writer`` quotes them) or "text" (aligned columns).  Rows are
    formatted ``REPORT_CHUNK`` subsets at a time.
    """
    names = list(columns)
    if fmt == "csv":
        out.write("subset,index,value\n")
        heads = [f"{name}," for name in names]

        def prefix(text: str) -> str:
            return f'"{text}",' if "," in text else f"{text},"

    else:
        width = _label_width(subsets, n)
        iwidth = max(map(len, names))
        heads = [f"{name:<{iwidth}}  " for name in names]

        def prefix(text: str) -> str:
            return f"{text:<{width}}  "

    label = _subset_labeler(n)
    for start in range(0, len(subsets), REPORT_CHUNK):
        part = slice(start, start + REPORT_CHUNK)
        pres = [prefix(label(S)) for S in subsets[part].tolist()]
        rows = []
        for head, column in zip(heads, columns.values()):
            # a NaN (value != value) writes no row and is not formatted
            rows.append([
                f"{pre}{head}{value:{VALUE_SPEC}}\n" if value == value else ""
                for pre, value in zip(pres, column[part].tolist())
            ])
        # subset by subset, its rows in column order
        out.write("".join(itertools.chain.from_iterable(zip(*rows))))


# ---------------------------------------------------------------------------
# argument parsing helpers
# ---------------------------------------------------------------------------

def _comma_list(text: str, convert, needs: str) -> list:
    try:
        return [convert(item) for item in text.split(",")]
    except ValueError as exc:
        raise ValidationError(f"{needs}: {exc}") from exc


def parse_profile(spec: Optional[str], n: int) -> ProbabilityProfile:
    """Build a profile from ``--p``: omitted = uniform, scalar = replicated."""
    if spec is None:
        return ProbabilityProfile.uniform(n)
    parts = _comma_list(spec, float, f"cannot parse probabilities from {spec!r}")
    if len(parts) == 1:
        return ProbabilityProfile.constant(n, parts[0])
    if len(parts) != n:
        raise ValidationError(f"profile has {len(parts)} entries but the game has n={n}")
    return ProbabilityProfile(parts)


def parse_subsets(selector: str, n: int) -> Union[List[Coalition], np.ndarray]:
    """Subset selector: 'all', 'singletons', 'pairs', or '1,2;3' (0 = empty set).

    'all' gives the int64 array of every mask; the others give lists.
    """
    if selector == "all":
        if n > MAX_ENUMERATED_PLAYERS:
            raise ValidationError(
                f"'all' enumerates 2**{n} subsets; capped at n <= {MAX_ENUMERATED_PLAYERS}"
            )
        return np.arange(1 << n, dtype=np.int64)
    if selector == "singletons":
        return [1 << i for i in range(n)]
    if selector == "pairs":
        return [(1 << i) | (1 << j) for i in range(n) for j in range(i + 1, n)]
    subsets = []
    for group in selector.split(";"):
        group = group.strip()
        if group in ("", "0"):
            subsets.append(0)
            continue
        players = _comma_list(group, int, f"cannot parse subset {group!r}")
        subsets.append(mask_from_players(players, n))
    return subsets


def _open_out(path: Optional[str]):
    # a context manager over the output stream; it leaves stdout open
    if path is None:
        return contextlib.nullcontext(sys.stdout)
    return open(path, "w", encoding="utf-8")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_analyze(args: argparse.Namespace) -> int:
    game = parse_game(args.game)
    profile = parse_profile(args.p, game.n)
    subsets = parse_subsets(args.subsets, game.n)
    report = indices.index_report(game, profile, subsets)
    columns = {
        "I_B": report.interaction,
        "Phi_B": report.influence,
        "Phi_Sh": report.shapley,
        "r": report.correlation,
    }
    with _open_out(args.out) as out:
        write_rows(report.subsets, columns, game.n, args.format, out)
    return 0


def cmd_approximate(args: argparse.Namespace) -> int:
    game = parse_game(args.game)
    profile = parse_profile(args.p, game.n)
    picked = parse_subsets(args.subset, game.n)
    if len(picked) != 1:
        raise ValidationError(f"--subset must name one subset, got {len(picked)}")
    (subset,) = picked
    approximation = approx_mod.best_s_approximation(game, subset, profile)
    residual = approx_mod.residual_norm(game, approximation, profile)
    subsets, coeffs = approximation.keys, approximation.unanimity
    with _open_out(args.out) as out:
        if args.format == "csv":
            # I_B and the residual are rows of S alone, the last submask
            only_s = np.full((2, subsets.size), np.nan)
            only_s[:, -1] = coeffs[-1], residual
            columns = {"coeff": coeffs, "I_B": only_s[0], "residual": only_s[1]}
            write_rows(subsets, columns, game.n, "csv", out)
        else:
            label = _subset_labeler(game.n)
            out.write(f"best approximation on variables {label(subset)}\n")
            for T, coeff in zip(subsets.tolist(), coeffs.tolist()):
                marker = "  (leading coefficient = interaction index I_B)" if T == subset else ""
                out.write(f"  coeff u_{label(T)} = {coeff:{VALUE_SPEC}}{marker}\n")
            out.write(f"  residual = {residual:{VALUE_SPEC}}\n")
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    if args.trials < 1:
        raise ValidationError(f"--trials must be at least 1, got {args.trials}")
    if args.seed < 0:
        raise ValidationError(f"--seed must be non-negative, got {args.seed}")
    game = parse_game(args.game)
    profile = parse_profile(args.p, game.n)
    results = checks.run(game, profile, args.trials, args.samples, args.seed, args.inject_fault)
    with _open_out(args.out) as out:
        for check in results:
            status = "PASS" if check.passed else "FAIL"
            out.write(f"{status}  {check.name:<20}  max deviation {check.deviation:.3e}\n")
        failed = [c.name for c in results if not c.passed]
        if failed:
            out.write(f"verification failed: {failed[0]}\n")
            return 2
        out.write("all checks passed\n")
        return 0


def cmd_generate(args: argparse.Namespace) -> int:
    if args.kind == "weighted-voting":
        if args.quota is None or args.weights is None:
            raise ValidationError("weighted-voting needs --quota and --weights")
        weights = _comma_list(args.weights, float, WEIGHTED_VOTING_NEEDS)
        game = _expand_weighted_voting({"quota": args.quota, "weights": weights})
    elif args.kind == "unanimity":
        if args.n is None or args.players is None:
            raise ValidationError("unanimity needs --n and --players")
        players = _comma_list(args.players, int, UNANIMITY_NEEDS)
        game = _expand_unanimity({"players": players}, args.n)
    elif args.kind == "random":
        if args.n is None:
            raise ValidationError("random needs --n")
        game = _expand_random({"seed": args.seed, "distribution": args.distribution}, args.n)
    serialize_game(game, sys.stdout if args.out is None else args.out)
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built on the first call and shared by every later one: do not mutate it."""
    parser = argparse.ArgumentParser(
        prog="pbindex",
        description="Power, interaction and influence indexes for cooperative games.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser("analyze", help="index report for selected subsets")
    analyze.add_argument("game", help="path to a game file")
    analyze.add_argument("--p", default=None, help="profile: scalar or comma list (default 1/2)")
    analyze.add_argument("--subsets", default="all", help="all | singletons | pairs | '1,2;3'")
    analyze.add_argument("--format", choices=("csv", "text"), default="csv")
    analyze.add_argument("--out", default=None, help="output file (default stdout)")
    analyze.set_defaults(func=cmd_analyze)

    approximate = sub.add_parser("approximate", help="best S-approximation of a game")
    approximate.add_argument("game")
    approximate.add_argument("--subset", required=True, help="players to keep, e.g. '1,2'")
    approximate.add_argument("--p", default=None)
    approximate.add_argument("--format", choices=("csv", "text"), default="text")
    approximate.add_argument("--out", default=None)
    approximate.set_defaults(func=cmd_approximate)

    verify = sub.add_parser("verify", help="run the self-verification battery")
    verify.add_argument("game")
    verify.add_argument("--p", default=None)
    verify.add_argument("--trials", type=int, default=8, help="four-way agreement trials")
    verify.add_argument("--samples", type=int, default=10_000, help="Monte Carlo sample count")
    verify.add_argument("--seed", type=int, default=20_260_809)
    verify.add_argument("--out", default=None)
    verify.add_argument(
        "--inject-fault",
        action="store_true",
        help="corrupt the projection route (negative control; must fail)",
    )
    verify.set_defaults(func=cmd_verify)

    generate = sub.add_parser("generate", help="write a game file")
    generate.add_argument("kind", choices=("weighted-voting", "unanimity", "random"))
    generate.add_argument("--n", type=int, default=None)
    generate.add_argument("--quota", type=float, default=None)
    generate.add_argument("--weights", default=None, help="comma list, e.g. '2,2,1'")
    generate.add_argument("--players", default=None, help="comma list, e.g. '1,2'")
    generate.add_argument("--seed", type=int, default=0)
    generate.add_argument("--distribution", choices=("uniform", "normal"), default="uniform")
    generate.add_argument("--out", default=None)
    generate.set_defaults(func=cmd_generate)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on bad flags; that code means
        return 0 if exc.code == 0 else 1  # "verification failure" here, so remap
    try:
        return args.func(args)
    except (PbindexError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
