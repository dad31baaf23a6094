"""Replay a fixed list of CLI commands and print a digest line per command.

Usage, from any directory:

    python3 tools/replay_cli.py > replay.txt

Every command runs as ``python -m pbindex.cli ...`` in a fresh process, with
the ``src/`` of the checkout this file sits in on ``PYTHONPATH`` and that
checkout as the working directory.  Each output line is

    exit-code sha256(stdout) sha256(stderr) argv

so two checkouts compare with ``diff``: a line differs exactly where the exit
code or a byte of output does.  Generated games are written to a temporary
directory, shown as ``$TMP`` in the argv and in the hashed outputs, where the
checkout's own directory reads ``$ROOT`` (numpy warnings name their file).

The list is seeded and fixed: the bundled games; ``generate random`` games,
uniform and normal, at n = 2, 3, 5, 8, 11, 14, 17 and 20; a unanimity game, a
weighted-voting game, and the n = 3 game with worths +-1.7e308.  On each,
``analyze`` runs with the selectors all, singletons, pairs and an explicit
list that starts with the empty set, ``approximate`` at S = 0, S = N and a
random S, each in csv and text, and ``verify`` (at n <= 14, where a run takes
seconds).  The profiles 0.3, 0.5, a heterogeneous one and one with 1e-9 and
1 - 1e-9 entries rotate over the commands.  Two commands run at a time; the
whole list takes about 90 s on a 2-vCPU Xeon guest.

``tests/test_bits.py`` covers the commands whose game has n <= 11 in
process, through ``tools/bits.py``, which takes its list from here.  This
two-checkout replay remains the check for the n = 14-20 commands and for
the stderr of a fresh process.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import shlex
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIZES = (2, 3, 5, 8, 11, 14, 17, 20)
VERIFY_MAX_N = 14
JOBS = 2
TIMEOUT_S = 300
# the n = 3 game whose variance and expansions pass the float range
HUGE = [1.7e308, -1.7e308, -1.7e308, 1.7e308, -1.7e308, 1.7e308, -1.7e308, 1.7e308]


def _neutral(data: bytes, tmp: str) -> bytes:
    # the same bytes from any checkout: $TMP and $ROOT for the two directories
    return data.replace(tmp.encode(), b"$TMP").replace(str(ROOT).encode(), b"$ROOT")


def run(argv: list, tmp: str) -> tuple:
    """(exit code, stdout, stderr) of ``python -m pbindex.cli argv``, the directories replaced."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-m", "pbindex.cli", *argv], cwd=ROOT, env=env,
                          capture_output=True, timeout=TIMEOUT_S)
    return proc.returncode, _neutral(proc.stdout, tmp), _neutral(proc.stderr, tmp)


def profiles(n: int, rng: random.Random) -> list:
    hetero = ",".join(f"{rng.uniform(0.05, 0.95):.4f}" for _ in range(n))
    edges = ",".join(("1e-9", "0.999999999", f"{rng.uniform(0.05, 0.95):.4f}")[i % 3] for i in range(n))
    return ["0.3", "0.5", hetero, edges]


def players(mask: int) -> str:
    return ",".join(str(i + 1) for i in range(mask.bit_length()) if mask >> i & 1)


def commands_for(game: str, n: int, rng: random.Random) -> list:
    """The analyze, approximate and verify commands on one game, profiles in rotation."""
    ps = profiles(n, rng)
    explicit = "0;" + ";".join(players(rng.randrange(1 << n)) or "0" for _ in range(3))
    out = []
    for selector in ("all", "singletons", "pairs", explicit):
        for fmt in ("csv", "text"):
            out.append(["analyze", game, "--subsets", selector, "--format", fmt])
    for S in (0, (1 << n) - 1, rng.randrange(1 << n)):
        for fmt in ("csv", "text"):
            out.append(["approximate", game, "--subset", players(S), "--format", fmt])
    if n <= VERIFY_MAX_N:
        out.append(["verify", game, "--seed", str(rng.randrange(1 << 16))])
    return [argv + ["--p", ps[k % len(ps)]] for k, argv in enumerate(out)]


# (argv, n) of each generate command, in replay order
GENERATORS = [(["generate", "random", "--n", str(n), "--seed", str(n), "--distribution", d], n)
              for n in SIZES for d in ("uniform", "normal")]
GENERATORS += [(["generate", "unanimity", "--n", "6", "--players", "1,3,4"], 6),
               (["generate", "weighted-voting", "--quota", "6", "--weights", "4,3,2,2,1"], 5)]
BUNDLED = [("games/or.json", 2), ("games/majority_221.json", 3), ("games/random10.json", 10)]


def write_huge(tmp: str) -> str:
    """Write the +-1.7e308 game into ``tmp`` and return its path."""
    huge = os.path.join(tmp, "huge.json")
    with open(huge, "w", encoding="utf-8") as handle:
        json.dump({"version": 1, "n": 3, "values": HUGE}, handle)
    return huge


def commands(games: list, huge: str) -> list:
    """The replayed commands on ``games`` ((path, n) in order), then three on the huge game."""
    rng = random.Random(2027)
    todo = [argv for game, n in games for argv in commands_for(game, n, rng)]
    edge = ["--p", "1e-9,0.5,0.999999999"]
    todo += [["analyze", huge, *edge], ["analyze", huge, "--subsets", "1", *edge],
             ["approximate", huge, "--subset", "1,3", *edge]]
    return todo


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        games = list(BUNDLED)
        results = []
        for k, (argv, n) in enumerate(GENERATORS):
            path = os.path.join(tmp, f"game{k}.json")
            result = run(argv, tmp)
            with open(path, "wb") as handle:
                handle.write(result[1])
            results.append((argv, result))
            games.append((path, n))
        huge = write_huge(tmp)
        games.append((huge, 3))

        todo = commands(games, huge)
        with ThreadPoolExecutor(JOBS) as pool:
            results += zip(todo, pool.map(lambda argv: run(argv, tmp), todo))
        for argv, (code, out, err) in results:
            shown = shlex.join(argv).replace(tmp, "$TMP")
            print(code, hashlib.sha256(out).hexdigest(), hashlib.sha256(err).hexdigest(), shown)
    return 0

if __name__ == "__main__":
    sys.exit(main())
