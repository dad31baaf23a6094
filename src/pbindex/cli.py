"""Command-line front end: game files, generators, reports, verification.

Game files are JSON with a version field and either an explicit table or a
generator spec, e.g.

    {"version": 1, "n": 2, "values": [0, 1, 1, 1]}
    {"version": 1, "weighted_voting": {"quota": 3, "weights": [2, 2, 1]}}
    {"version": 1, "n": 3, "unanimity": {"players": [1, 2]}}
    {"version": 1, "n": 10, "random": {"seed": 7, "distribution": "uniform"}}

Generators expand at parse time, so everything downstream sees a dense table.
Subcommands: ``analyze``, ``approximate``, ``verify``, ``generate``.
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
import json
import math
import reprlib
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import List, Mapping, Optional, Sequence, TextIO, Union

import numpy as np

from . import approx as approx_mod
from . import indices, measure, oracle
from .core import (
    Coalition,
    PseudoBooleanFunction,
    check_players,
    mask_from_players,
    players_from_mask,
    product_table,
    unanimity_game,
    weighted_voting_game,
)
from .errors import ParseError, PbindexError, ValidationError
from .measure import ProbabilityProfile

GAME_FORMAT_VERSION = 1
MAX_ENUMERATED_PLAYERS = 16  # "all subsets" explodes past this


# ---------------------------------------------------------------------------
# game files
# ---------------------------------------------------------------------------

# generator fields take JSON types as they are, as worths do: a number is an
# int or a float (bool is neither), an integer an int
WEIGHTED_VOTING_NEEDS = "weighted_voting needs numeric 'quota' and 'weights'"
UNANIMITY_NEEDS = "unanimity needs a list of integer 'players'"


def _expand_weighted_voting(spec: dict) -> PseudoBooleanFunction:
    quota = spec.get("quota") if isinstance(spec, dict) else None
    weights = spec.get("weights") if isinstance(spec, dict) else None
    if type(quota) not in (int, float):
        raise ParseError(f"{WEIGHTED_VOTING_NEEDS}: 'quota' is {reprlib.repr(quota)}")
    if type(weights) is not list or not set(map(type, weights)) <= {int, float}:
        raise ParseError(f"{WEIGHTED_VOTING_NEEDS}: 'weights' is {reprlib.repr(weights)}")
    try:
        return weighted_voting_game(float(quota), [float(w) for w in weights])
    except OverflowError as exc:  # an integer past the float range
        raise ParseError(f"{WEIGHTED_VOTING_NEEDS}: {exc}") from exc


def _expand_unanimity(spec: dict, n: Optional[int]) -> PseudoBooleanFunction:
    if n is None:
        raise ParseError("unanimity generator needs a top-level 'n'")
    check_players(n)
    players = spec.get("players") if isinstance(spec, dict) else None
    if type(players) is not list or not set(map(type, players)) <= {int}:
        raise ParseError(f"{UNANIMITY_NEEDS}: 'players' is {reprlib.repr(players)}")
    return unanimity_game(n, mask_from_players(players, n))


def _expand_random(spec: dict, n: Optional[int]) -> PseudoBooleanFunction:
    if n is None:
        raise ParseError("random generator needs a top-level 'n'")
    check_players(n)  # before drawing 2**n worths
    seed = spec.get("seed") if isinstance(spec, dict) else None
    if type(seed) is not int or seed < 0:  # a JSON integer: no bool, no float
        raise ParseError(f"random generator needs a non-negative integer 'seed', got {seed!r}")
    distribution = spec.get("distribution", "uniform")
    rng = np.random.default_rng(seed)
    if distribution == "uniform":
        values = rng.random(1 << n)
    elif distribution == "normal":
        values = rng.standard_normal(1 << n)
    else:
        raise ParseError(f"unknown random distribution {distribution!r}")
    return PseudoBooleanFunction(n, values)


def parse_game(source: Union[str, Path, TextIO]) -> PseudoBooleanFunction:
    """Load a game file (path or open stream) into a dense table.

    Raises :class:`ParseError` on malformed input, including worths that are
    not JSON numbers (strings, booleans), and :class:`ValidationError` on
    structurally invalid tables (wrong length, n > 24, non-finite values).
    """
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8") as handle:
            return parse_game(handle)
    try:
        doc = json.load(source)
    except json.JSONDecodeError as exc:
        raise ParseError(f"not valid JSON (line {exc.lineno}, column {exc.colno}): {exc.msg}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"not valid UTF-8 (byte offset {exc.start}): {exc.reason}") from exc
    except RecursionError as exc:
        raise ParseError("not valid JSON: nested too deeply") from exc
    if not isinstance(doc, dict):
        raise ParseError("game file must be a JSON object")
    version = doc.get("version", GAME_FORMAT_VERSION)
    if type(version) is not int or version != GAME_FORMAT_VERSION:
        raise ParseError(f"unsupported game file version {reprlib.repr(version)}")
    n = doc.get("n")
    if n is not None and not isinstance(n, int):
        raise ParseError(f"field 'n' must be an integer, got {n!r}")

    if "values" in doc:
        if n is None:
            raise ParseError("explicit game table needs field 'n'")
        values = doc["values"]
        if not isinstance(values, list):
            raise ParseError("field 'values' must be a list")
        if not set(map(type, values)) <= {int, float}:  # JSON numbers; bool is not one
            k, bad = next((k, v) for k, v in enumerate(values) if type(v) not in (int, float))
            raise ParseError(f"game table needs numeric entries: entry {k} is {bad!r}")
        return PseudoBooleanFunction(n, values)
    if "weighted_voting" in doc:
        return _expand_weighted_voting(doc["weighted_voting"])
    if "unanimity" in doc:
        return _expand_unanimity(doc["unanimity"], n)
    if "random" in doc:
        return _expand_random(doc["random"], n)
    raise ParseError(
        "game file needs one of 'values', 'weighted_voting', 'unanimity', 'random'"
    )


def serialize_game(f: PseudoBooleanFunction, dest: Union[str, Path, TextIO]) -> None:
    """Write a game as an explicit-table file (generators are not preserved)."""
    if isinstance(dest, (str, Path)):
        with open(dest, "w", encoding="utf-8") as handle:
            serialize_game(f, handle)
        return
    json.dump({"version": GAME_FORMAT_VERSION, "n": f.n, "values": f.values.tolist()}, dest)
    dest.write("\n")


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


@dataclass
class CheckResult:
    name: str
    passed: bool
    deviation: float


def _check_four_way(game, profile, rng, trials, inject_fault) -> CheckResult:
    worst = 0.0
    for _ in range(trials):
        S = int(rng.integers(0, 1 << game.n))
        vals = [
            indices.banzhaf_influence(game, S, profile, method=m)
            for m in indices.INFLUENCE_METHODS
        ]
        if inject_fault:
            vals[indices.INFLUENCE_METHODS.index("projection")] += 1e-3
        worst = max(worst, max(vals) - min(vals))
    return CheckResult("four-way-influence", worst <= 1e-9, worst)


# the orthonormality Gram is multiplied over groups of ORTHO_CHUNK_BITS
# players, ORTHO_ROW_BLOCK of its rows at a time
ORTHO_CHUNK_BITS = 16
ORTHO_ROW_BLOCK = 16


def _orthonormality_gram(profile: ProbabilityProfile, picks: np.ndarray) -> np.ndarray:
    """Gram matrix <v_S, v_T> of the basis tables v_{T,p}, T in ``picks``.

    They and the weights are products of per-player factors, so the Gram is
    the entrywise product of the Grams over groups of players (one group,
    the dense Gram, at n <= 16).  A group's rows are filled into one table,
    and their weighted copy is made ORTHO_ROW_BLOCK rows at a time; OpenBLAS
    gives a block the bits of one 64-row product (checked for 8 to 32 rows).
    """
    pairs = [measure._basis_pairs(profile, int(T)) for T in picks]
    gram = np.ones((len(picks), len(picks)))
    for lo in range(0, profile.n, ORTHO_CHUNK_BITS):
        hi = min(lo + ORTHO_CHUNK_BITS, profile.n)
        rows = np.empty((len(picks), 1 << (hi - lo)))
        for row, pair in zip(rows, pairs):
            row[:] = product_table(pair[lo:hi])
        w = ProbabilityProfile(profile.p[lo:hi]).weights()
        for r in range(0, len(picks), ORTHO_ROW_BLOCK):
            gram[r : r + ORTHO_ROW_BLOCK] *= (rows[r : r + ORTHO_ROW_BLOCK] * w) @ rows.T
    return gram


def _check_orthonormality(game, profile, rng) -> CheckResult:
    size = 1 << game.n
    if size <= 64:
        picks = np.arange(size)
    else:
        picks = rng.choice(size, size=64, replace=False)
    gram = _orthonormality_gram(profile, picks)
    worst = float(np.max(np.abs(gram - np.eye(len(picks)))))
    return CheckResult("orthonormality", worst <= 1e-10, worst)


def _check_parseval(game, profile) -> CheckResult:
    # on the game / 2**e, so no square overflows; the floor 2**-2e is 1 unscaled
    scale = math.ldexp(1.0, -measure._scale_exponent(game.values))
    game = PseudoBooleanFunction(game.n, game.values * scale)
    total = measure.inner_product(profile, game, game)
    coeffs = approx_mod.fourier_table(game, profile)
    dev = abs(measure._fsum(coeffs * coeffs) - total)
    rel = dev / max(total, scale * scale)
    return CheckResult("parseval", rel <= 1e-9, rel)


def _check_monte_carlo(game, profile, rng, samples, seed) -> CheckResult:
    S = int(rng.integers(1, 1 << game.n))
    closed = {
        "identity": measure.expectation(profile, game),
        "sigma": indices.banzhaf_influence(game, S, profile),
        "delta": indices.banzhaf_interaction(game, S, profile),
    }
    worst = 0.0
    ok = True
    for transform, truth in closed.items():
        est = oracle.mc_expectation(game, transform, S, profile, samples, seed)
        gap = abs(est.mean - truth)
        ok = ok and gap <= 5.0 * est.std_error + 1e-12
        worst = max(worst, gap)
    cdf = oracle.cdf_integral_check(game, S, profile, max(samples, 1000), seed)
    gap = abs(cdf.mean - closed["sigma"])
    ok = ok and gap <= 5.0 * cdf.std_error + 1e-12
    worst = max(worst, gap)
    return CheckResult("monte-carlo", ok, worst)


def _check_quadrature(game, rng) -> CheckResult:
    S = int(rng.integers(0, 1 << game.n))
    dev_diag = abs(oracle.diagonal_quadrature(game, S) - indices.shapley_generalized_value(game, S))
    uniform = ProbabilityProfile.uniform(game.n)
    dev_cube = abs(oracle.cube_average(game, S) - indices.banzhaf_influence(game, S, uniform))
    passed = dev_diag <= 1e-10 and dev_cube <= 1e-12
    return CheckResult("quadrature", passed, max(dev_diag, dev_cube))


def cmd_verify(args: argparse.Namespace) -> int:
    if args.trials < 1:
        raise ValidationError(f"--trials must be at least 1, got {args.trials}")
    if args.seed < 0:
        raise ValidationError(f"--seed must be non-negative, got {args.seed}")
    game = parse_game(args.game)
    profile = parse_profile(args.p, game.n)
    rng = np.random.default_rng(args.seed)
    checks = [
        _check_four_way(game, profile, rng, args.trials, args.inject_fault),
        _check_orthonormality(game, profile, rng),
        _check_parseval(game, profile),
        _check_monte_carlo(game, profile, rng, args.samples, args.seed),
        _check_quadrature(game, rng),
    ]
    with _open_out(args.out) as out:
        for check in checks:
            status = "PASS" if check.passed else "FAIL"
            out.write(f"{status}  {check.name:<20}  max deviation {check.deviation:.3e}\n")
        failed = [c.name for c in checks if not c.passed]
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
    else:  # pragma: no cover - argparse restricts choices
        raise ValidationError(f"unknown generator {args.kind!r}")
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
