"""Digest the outputs that must keep their bits, and rewrite tests/data/bits.json.

Usage, from any directory:

    python3 tools/bits.py

``tests/test_bits.py`` recomputes every digest in the file and fails on any
that differs.  A change that alters a digest on purpose reruns this script
and names each changed key in CHANGES.md.

Two groups of outputs are digested, each as sha256 over its exact bytes
(a float by ``float.hex``, an array by its dtype, shape and ``tobytes()``, a
typed error or an escaping RuntimeWarning by its type and message):

* ``library``: 28 public outputs over ``CASES`` seeded games, one digest per
  output over all cases.  Games have n = 1-10 uniform worths in [-1, 1]
  times 1, 1e-300, 1e300 or 1e6, every seventh with a 1e6 offset; every
  fifth profile has a 1e-9 entry.  ``gv_q_to_p.perturbed`` converts a q-form
  with one entry raised by 0.5, which breaks its class where that class holds
  more than one entry.  ``lsq_normal_equations`` is left out, and
  ``weighted_voting_game`` gets integer weights only: BLAS orders their sums.
* ``cli``: exit code, stdout and stderr of in-process ``cli.main`` on every
  command of ``tools/replay_cli.py`` whose game has n <= ``CLI_MAX_N``: the
  generators, and analyze, approximate and verify on the bundled games, the
  generated ones and the +-1.7e308 game.  One digest per command, keyed by
  its argv.

The script computes every digest in two fresh processes, with
``OPENBLAS_NUM_THREADS=1`` and ``=2``.  A key whose digests differ is listed
under ``blas_ordered`` and not checked.  The file also records the numpy
version and the BLAS and LAPACK that numpy reports; the test skips, naming
both, where they differ.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import os
import shlex
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import replay_cli  # noqa: E402
from pbindex import (  # noqa: E402
    PbindexError,
    ProbabilityProfile,
    PseudoBooleanFunction,
    banzhaf_influence,
    banzhaf_interaction,
    ben_or_linial_influence,
    best_k_approximation,
    best_s_approximation,
    GeneralizedValueCoefficients,
    cdf_integral_check,
    cube_average,
    diagonal_quadrature,
    eval_multilinear_extension,
    expectation,
    gv_p_to_q,
    gv_q_to_p,
    index_report,
    influence_value_coefficients,
    interaction_table,
    mc_expectation,
    mobius,
    normalized_influence,
    residual_norm,
    s_difference,
    shapley_generalized_value,
    sigma_s,
    variance,
    weighted_voting_game,
)
from pbindex import cli  # noqa: E402
from pbindex.indices import INFLUENCE_METHODS  # noqa: E402
from pbindex.oracle import TRANSFORMS  # noqa: E402

DATA = ROOT / "tests" / "data" / "bits.json"
CASES = 120
SCALES = (1.0, 1e-300, 1e300, 1e6)
CLI_MAX_N = 11


def environment() -> dict:
    """The numpy version and the BLAS and LAPACK names numpy reports."""
    deps = np.show_config(mode="dicts")["Build Dependencies"]
    return {"numpy": np.__version__, "blas": deps["blas"]["name"], "lapack": deps["lapack"]["name"]}


def _bytes(value) -> bytes:
    if isinstance(value, float):
        return value.hex().encode()
    if isinstance(value, np.ndarray):
        return f"{value.dtype}{value.shape}".encode() + value.tobytes()
    if dataclasses.is_dataclass(value):
        value = [getattr(value, field.name) for field in dataclasses.fields(value)]
    if isinstance(value, PseudoBooleanFunction):
        value = [value.values]
    return b"(" + b",".join(map(_bytes, value)) + b")"


def _approximation(approx) -> tuple:
    return approx.keys, approx.fourier, approx.unanimity, approx.table().values


def _perturbed_q_form(S, profile, mask) -> GeneralizedValueCoefficients:
    table = gv_p_to_q(influence_value_coefficients(S, profile)).table.copy()
    table[mask] += 0.5
    return GeneralizedValueCoefficients(profile.n, S, "q", table)


def _case(k: int):
    """Case k: (game, profile, S, rng); S is a nonempty mask."""
    rng = np.random.default_rng(k)
    n = 1 + k % 10
    values = rng.uniform(-1.0, 1.0, 1 << n) * SCALES[k % len(SCALES)]
    if k % 7 == 0:
        values += 1e6
    p = rng.uniform(0.05, 0.95, n)
    if k % 5 == 0:
        p[rng.integers(n)] = 1e-9
    return PseudoBooleanFunction(n, values), ProbabilityProfile(p), int(rng.integers(1, 1 << n)), rng


def _outputs(f, profile, S, rng) -> dict:
    """Output name -> a call giving its value on one case."""
    full = (1 << f.n) - 1
    seed = int(rng.integers(1 << 16))
    weights = rng.integers(1, 6, f.n)
    quota = float(rng.integers(1, weights.sum() + 1))
    raised = int(rng.integers(1 << f.n)) | (S & -S)  # a mask meeting S
    return {
        "index_report.all": lambda: index_report(f, profile, np.arange(1 << f.n)),
        "index_report.few": lambda: index_report(f, profile, [S, 0, full]),
        **{f"banzhaf_influence.{m}": (lambda m=m: banzhaf_influence(f, S, profile, m))
           for m in INFLUENCE_METHODS},
        "banzhaf_interaction": lambda: banzhaf_interaction(f, S, profile),
        "interaction_table": lambda: interaction_table(f, profile),
        "shapley_generalized_value": lambda: shapley_generalized_value(f, S),
        "ben_or_linial_influence": lambda: ben_or_linial_influence(f, S),
        "best_s_approximation": lambda: _approximation(best_s_approximation(f, S, profile)),
        "best_k_approximation": lambda: _approximation(best_k_approximation(f, f.n // 2, profile)),
        "residual_norm": lambda: residual_norm(f, best_s_approximation(f, S, profile), profile),
        "normalized_influence": lambda: normalized_influence(f, S, profile),
        "mc_expectation": lambda: [mc_expectation(f, t, S, profile, 500, seed) for t in TRANSFORMS],
        "cdf_integral_check": lambda: cdf_integral_check(f, S, profile, 1000, seed),
        "diagonal_quadrature": lambda: diagonal_quadrature(f, S),
        "cube_average": lambda: cube_average(f, S),
        "influence_value_coefficients": lambda: influence_value_coefficients(S, profile).table,
        "gv_p_to_q": lambda: gv_p_to_q(influence_value_coefficients(S, profile)).table,
        "gv_q_to_p": lambda: gv_q_to_p(gv_p_to_q(influence_value_coefficients(S, profile))).table,
        "gv_q_to_p.perturbed": lambda: gv_q_to_p(_perturbed_q_form(S, profile, raised)).table,
        "expectation": lambda: expectation(profile, f),
        "variance": lambda: variance(profile, f),
        "eval_multilinear_extension": lambda: eval_multilinear_extension(mobius(f), profile.p),
        "s_difference": lambda: s_difference(f, S),
        "sigma_s": lambda: sigma_s(f, S),
        "weighted_voting_game": lambda: weighted_voting_game(quota, weights.tolist()),
    }


def library_digests() -> dict:
    """Output name -> sha256 of its bytes over every case, in case order."""
    hashes: dict = {}
    for k in range(CASES):
        for name, call in _outputs(*_case(k)).items():
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                try:
                    data = _bytes(call())
                except (PbindexError, RuntimeWarning) as exc:
                    data = f"{type(exc).__name__}: {exc}".encode()
            hashes.setdefault(name, hashlib.sha256()).update(data + b"\n")
    return {name: h.hexdigest() for name, h in hashes.items()}


def _run(argv: list, tmp: str) -> tuple:
    # warnings as in a fresh process: the default filter, every registry reset
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("default")
        code = cli.main(argv)
    return (code, *(replay_cli._neutral(s.getvalue().encode(), tmp) for s in (out, err)))


def cli_digests() -> dict:
    """Shown argv -> sha256 of (exit code, stdout, stderr) of in-process ``cli.main``."""
    digests = {}
    with tempfile.TemporaryDirectory() as tmp:

        def record(argv) -> bytes:
            code, out, err = _run(argv, tmp)
            shown = replay_cli._neutral(shlex.join(argv).encode(), tmp).decode()
            digests[shown] = hashlib.sha256(b"%d\0%s\0%s" % (code, out, err)).hexdigest()
            return out

        games = [(str(ROOT / path), n) for path, n in replay_cli.BUNDLED]
        for k, (argv, n) in enumerate(replay_cli.GENERATORS):
            path = os.path.join(tmp, f"game{k}.json")
            if n <= CLI_MAX_N:  # the game file is the command's stdout, as in the replay
                Path(path).write_bytes(record(argv))
            games.append((path, n))
        huge = replay_cli.write_huge(tmp)
        games.append((huge, 3))
        sizes = dict(games)
        for argv in replay_cli.commands(games, huge):
            if sizes[argv[1]] <= CLI_MAX_N:
                record(argv)
    return digests


def main() -> int:
    children = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        proc = subprocess.run([sys.executable, __file__, "--digests"], env=env,
                              capture_output=True, text=True, check=True)
        children.append(json.loads(proc.stdout))
    one, two = children
    doc = {"environment": one["environment"], "blas_ordered": []}
    for group in ("library", "cli"):
        doc[group] = {key: digest for key, digest in one[group].items() if two[group][key] == digest}
        doc["blas_ordered"] += [key for key in one[group] if key not in doc[group]]
    DATA.parent.mkdir(exist_ok=True)
    DATA.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {DATA}: {len(doc['library'])} library and {len(doc['cli'])} cli digests, "
          f"{len(doc['blas_ordered'])} BLAS-ordered keys left out")
    return 0


if __name__ == "__main__":
    if sys.argv[1:] == ["--digests"]:
        json.dump({"environment": environment(), "library": library_digests(), "cli": cli_digests()},
                  sys.stdout)
        sys.exit(0)
    sys.exit(main())
