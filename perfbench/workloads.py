"""Seeded inputs and command plans for the benchmark workloads.

Every input is drawn from the benchmark seed: game tables (uniform random
worths written as explicit-table JSON), heterogeneous profiles with p_i in
[0.05, 0.95], subset lists and the ``verify --seed`` values.  The program
under test sees only these files and flags.  Each input role has its own
random stream, so the n=12 battery game is the same file whichever workload
builds it (the negative control reuses it).

Each workload is one CLI session that runs ``analyze``, ``approximate`` and
``verify``; the sizes decide which layer dominates.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List

import numpy as np

P_LOW, P_HIGH = 0.05, 0.95
VERIFY_TRIALS = 8  # the verify subcommand's default --trials

# Sizes per workload.  FULL is what the benchmark measures; TINY is for the
# self-test.  Tuples list subset sizes: one seeded subset per entry.
FULL = {
    "all_n": 11,
    "all_approx": (7,) * 16,
    "all_sample": 24,
    "point_n": 20,
    "point_subsets": (1, 2, 4, 8),
    "point_approx": 4,
    "point_verify_n": 12,
    "point_sample": 2,
    "battery_n": (12, 14),
    "battery_subsets": (1, 2, 3, 4, 5, 6, 7, 8) * 4,
    "battery_approx": (5,) * 8,
    "battery_sample": 4,
}
TINY = {
    "all_n": 4,
    "all_approx": (2, 3),
    "all_sample": 16,
    "point_n": 9,
    "point_subsets": (1, 2, 4, 8),
    "point_approx": 4,
    "point_verify_n": 4,
    "point_sample": 4,
    "battery_n": (5, 6),
    "battery_subsets": (1, 2, 3),
    "battery_approx": (3, 2),
    "battery_sample": 3,
}


@dataclass
class Game:
    """A generated game and profile, kept in memory for the correctness gate."""

    path: Path
    values: np.ndarray
    p: np.ndarray

    @property
    def n(self) -> int:
        return int(self.p.size)

    @property
    def p_spec(self) -> str:
        return ",".join(repr(float(x)) for x in self.p)


@dataclass
class Command:
    """One CLI call: ``kind`` is the subcommand, ``argv`` what ``cli.main`` gets."""

    kind: str
    argv: List[str]
    out: Path
    game: Game
    subsets: List[int] = field(default_factory=list)  # analyze/approximate masks
    sample: List[int] = field(default_factory=list)  # analyze masks the gate checks


def _rng(seed: int, role: str) -> np.random.Generator:
    return np.random.default_rng([seed, zlib.crc32(role.encode())])


def make_game(seed: int, role: str, n: int, workdir: Path) -> Game:
    """Write an explicit-table game file with uniform worths and draw its profile."""
    rng = _rng(seed, role)
    values = rng.random(1 << n)
    p = rng.uniform(P_LOW, P_HIGH, n)
    path = workdir / f"{role}.json"
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(f'{{"version": 1, "n": {n}, "values": [')
        handle.write(", ".join(map(repr, values.tolist())))
        handle.write("]}\n")
    return Game(path, values, p)


def _mask(rng: np.random.Generator, n: int, size: int) -> int:
    return sum(1 << int(i) for i in rng.choice(n, size=size, replace=False))


def _players(mask: int) -> str:
    return ",".join(str(i + 1) for i in range(mask.bit_length()) if mask >> i & 1)


def verify_seed(seed: int, role: str, n: int) -> int:
    """A ``verify --seed`` drawn from the benchmark seed, screened for fixed work.

    The four-way check of ``verify`` draws ``VERIFY_TRIALS`` random subsets S
    and its projection route costs about 2^|S| dense tables plus a 3^|S|
    expansion each, so an arbitrary seed changes the run time by tens of
    percent.  The first candidate whose draws (the first ``VERIFY_TRIALS``
    calls of ``integers(0, 2**n)`` on its generator, as ``verify`` makes them)
    total within 5% of the expected 2^|S| work and 10% of the expected 3^|S|
    work is taken, so every seed does the same amount of work.
    """
    rng = _rng(seed, role + ":verify-seed")
    want2 = VERIFY_TRIALS * 1.5**n  # E[2^|S|] for S uniform over 2^n subsets
    want3 = VERIFY_TRIALS * 2.0**n  # E[3^|S|]
    for _ in range(1_000_000):
        cand = int(rng.integers(0, 2**31))
        draws = np.random.default_rng(cand)
        sizes = [int(draws.integers(0, 1 << n)).bit_count() for _ in range(VERIFY_TRIALS)]
        if (
            abs(sum(2**k for k in sizes) - want2) <= 0.05 * want2
            and abs(sum(3**k for k in sizes) - want3) <= 0.10 * want3
        ):
            return cand
    raise RuntimeError(f"no verify seed with typical work found for n={n}")


def _analyze(game: Game, subsets: List[int], selector: str, out: Path, sample: List[int]) -> Command:
    argv = ["analyze", str(game.path), "--p", game.p_spec, "--subsets", selector,
            "--format", "csv", "--out", str(out)]
    return Command("analyze", argv, out, game, subsets, sample)


def _approximate(game: Game, mask: int, out: Path) -> Command:
    argv = ["approximate", str(game.path), "--p", game.p_spec, "--subset", _players(mask),
            "--format", "csv", "--out", str(out)]
    return Command("approximate", argv, out, game, [mask])


def _verify(game: Game, seed: int, out: Path, inject_fault: bool = False) -> Command:
    argv = ["verify", str(game.path), "--p", game.p_spec, "--seed", str(seed), "--out", str(out)]
    if inject_fault:
        argv.append("--inject-fault")
    return Command("verify", argv, out, game)


def _sample(seed: int, role: str, subsets: List[int], k: int) -> List[int]:
    picks = _rng(seed, role + ":sample").choice(len(subsets), size=min(k, len(subsets)), replace=False)
    return sorted(subsets[int(i)] for i in picks)


def _battery_game(seed: int, workdir: Path, n: int) -> Game:
    return make_game(seed, f"battery-{n}", n, workdir)


def analyze_all(seed: int, workdir: Path, sizes: Dict) -> List[Command]:
    n = sizes["all_n"]
    game = make_game(seed, "all", n, workdir)
    subsets = list(range(1 << n))
    rng = _rng(seed, "all:subsets")
    return [
        _analyze(game, subsets, "all", workdir / "all-analyze.csv",
                 _sample(seed, "all", subsets, sizes["all_sample"])),
        *(_approximate(game, _mask(rng, n, k), workdir / f"all-approx-{i}.csv")
          for i, k in enumerate(sizes["all_approx"])),
        _verify(game, verify_seed(seed, "all", n), workdir / "all-verify.txt"),
    ]


def point_queries(seed: int, workdir: Path, sizes: Dict) -> List[Command]:
    n = sizes["point_n"]
    game = make_game(seed, "point", n, workdir)
    rng = _rng(seed, "point:subsets")
    subsets = [_mask(rng, n, k) for k in sizes["point_subsets"]]
    selector = ";".join(_players(S) for S in subsets)
    vn = sizes["point_verify_n"]
    small = make_game(seed, "point-verify", vn, workdir)
    return [
        _analyze(game, subsets, selector, workdir / "point-analyze.csv",
                 _sample(seed, "point", subsets, sizes["point_sample"])),
        _approximate(game, _mask(rng, n, sizes["point_approx"]), workdir / "point-approx.csv"),
        _verify(small, verify_seed(seed, "point-verify", vn), workdir / "point-verify.txt"),
    ]


def verify_battery(seed: int, workdir: Path, sizes: Dict) -> List[Command]:
    small_n, large_n = sizes["battery_n"]
    small = _battery_game(seed, workdir, small_n)
    large = _battery_game(seed, workdir, large_n)
    rng = _rng(seed, "battery:subsets")
    subsets = [_mask(rng, large_n, k) for k in sizes["battery_subsets"]]
    selector = ";".join(_players(S) for S in subsets)
    return [
        _verify(small, verify_seed(seed, f"battery-{small_n}", small_n), workdir / "battery-verify-small.txt"),
        _verify(large, verify_seed(seed, f"battery-{large_n}", large_n), workdir / "battery-verify-large.txt"),
        _analyze(large, subsets, selector, workdir / "battery-analyze.csv",
                 _sample(seed, "battery", subsets, sizes["battery_sample"])),
        *(_approximate(large, _mask(rng, large_n, k), workdir / f"battery-approx-{i}.csv")
          for i, k in enumerate(sizes["battery_approx"])),
    ]


def negative_control(seed: int, workdir: Path, sizes: Dict) -> Command:
    """``verify --inject-fault`` on the verify-battery n=12 game; it must exit 2."""
    n = sizes["battery_n"][0]
    game = _battery_game(seed, workdir, n)
    return _verify(game, verify_seed(seed, f"battery-{n}", n), workdir / "negative-control.txt",
                   inject_fault=True)


WORKLOADS = {
    "analyze-all": analyze_all,
    "point-queries": point_queries,
    "verify-battery": verify_battery,
}


def build(workload: str, seed: int, workdir: Path, sizes: Dict) -> List[Command]:
    return WORKLOADS[workload](seed, workdir, sizes)
