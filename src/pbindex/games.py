"""Game files: the JSON format, its generators and its writer.

A game file is JSON with a version field and either an explicit table or a
generator spec, e.g.

    {"version": 1, "n": 2, "values": [0, 1, 1, 1]}
    {"version": 1, "weighted_voting": {"quota": 3, "weights": [2, 2, 1]}}
    {"version": 1, "n": 3, "unanimity": {"players": [1, 2]}}
    {"version": 1, "n": 10, "random": {"seed": 7, "distribution": "uniform"}}

Generators expand at parse time, so everything downstream sees a dense table.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import reprlib
from pathlib import Path
from typing import Optional, TextIO, Union

import numpy as np

from .core import (
    PseudoBooleanFunction,
    check_players,
    mask_from_players,
    unanimity_game,
    weighted_voting_game,
)
from .errors import ParseError

GAME_FORMAT_VERSION = 1

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


# (SHA-256 of a file's bytes, its game) last parsed from a path, from a process's second path on
_last_parsed: Optional[tuple[bytes, PseudoBooleanFunction]] = None
_keying = False


def parse_game(source: Union[str, Path, TextIO]) -> PseudoBooleanFunction:
    """Load a game file (path or open stream) into a dense table.

    Raises :class:`ParseError` on malformed input, including worths that are
    not JSON numbers (strings, booleans), and :class:`ValidationError` on
    structurally invalid tables (wrong length, n > 24, non-finite values).

    From a process's second path on, the last game parsed from a path is kept,
    keyed by the SHA-256 of the file's bytes: the same bytes return that frozen
    game and its Mobius table for a read and a hash (about 20 ms at n = 20);
    other bytes drop it before parsing.
    """
    global _last_parsed, _keying
    data = digest = None
    if isinstance(source, (str, Path)):
        data = Path(source).read_bytes()  # decoded below as open(source, encoding="utf-8") decodes
        if _keying:
            digest, kept = hashlib.sha256(data).digest(), _last_parsed  # read once: a thread may replace it
            if kept is not None and kept[0] == digest:
                return kept[1]
            _last_parsed = kept = None  # before the parse, so that a miss never holds two games
        _keying = True
    try:
        text = source.read() if data is None else io.TextIOWrapper(io.BytesIO(data), encoding="utf-8").read()
        data = None  # the bytes go before json.loads builds its list, the text after it
        doc, text = json.loads(text), None
    except json.JSONDecodeError as exc:
        raise ParseError(f"not valid JSON (line {exc.lineno}, column {exc.colno}): {exc.msg}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"not valid UTF-8 (byte offset {exc.start}): {exc.reason}") from exc
    except ValueError as exc:  # after its subclasses above: an integer past the digit limit
        raise ParseError(f"not valid JSON: {exc}") from exc
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
        game = PseudoBooleanFunction(n, values)
    elif "weighted_voting" in doc:
        game = _expand_weighted_voting(doc["weighted_voting"])
    elif "unanimity" in doc:
        game = _expand_unanimity(doc["unanimity"], n)
    elif "random" in doc:
        game = _expand_random(doc["random"], n)
    else:
        raise ParseError("game file needs one of 'values', 'weighted_voting', 'unanimity', 'random'")
    if digest is not None:
        _last_parsed = (digest, game)
    return game


def serialize_game(f: PseudoBooleanFunction, dest: Union[str, Path, TextIO]) -> None:
    """Write a game as an explicit-table file (generators are not preserved)."""
    is_path = isinstance(dest, (str, Path))
    with open(dest, "w", encoding="utf-8") if is_path else contextlib.nullcontext(dest) as handle:
        json.dump({"version": GAME_FORMAT_VERSION, "n": f.n, "values": f.values.tolist()}, handle)
        handle.write("\n")
