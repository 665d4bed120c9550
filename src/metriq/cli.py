"""Command line front end: validate metrics, run simulations, play the game.

Exit codes are part of the interface: 0 success (or accept), 1 reject,
2 domain error, 3 unreadable input or config, 64 usage. Runs are always
seeded; identical configs produce byte-identical output files.

Configs are JSON, and this module alone decodes them; it alone encodes the
output rows too, as CSV or JSON through one renderer. Every config number
is a finite JSON number: a string, a boolean, NaN, +-Infinity or an integer
too large for a float exits 3 with the field named. seed, shots and dim
must also be integral. A complex matrix is a list of equally long rows
whose entries are exactly [re, im] pairs, or an object {"dim": n,
"matrix": rows}. PT parameters are r, s, phi and t; a dishonest prover is
{"kind": "dishonest", "unitaries": [matrix, ...], "probs": [p, ...]}.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import sys

import numpy as np

from .errors import MetriqError
from .hilbert import validate_metric
from .montecarlo import chained_success_probability, simulate_g_eta, simulate_pt
from .ptsym import PtHamiltonian, build_pt_system
from .rng import RngStream
from .tomography import (
    default_design,
    dishonest_prover,
    honest_prover,
    reconstruct,
    run_prover,
    threshold,
    verify,
)

EXIT_OK = 0
EXIT_REJECT = 1
EXIT_DOMAIN = 2
EXIT_PARSE = 3
EXIT_USAGE = 64

# a simulate row's keys, in CSV column order
_CSV_COLUMNS = ("seed", "N", "total_copies", "success_ratio", "analytic_prob", "abs_error")

# RngStream keeps the low 64 bits of a seed, so a larger one would silently
# alias a smaller one
_MAX_SEED = (1 << 64) - 1


class ConfigError(Exception):
    """A file or config that cannot be understood; maps to exit code 3."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


# ---------------------------------------------------------------------------
# config plumbing
# ---------------------------------------------------------------------------

def _read_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON: {exc}") from None


def _read_config(path):
    cfg = _read_json(path)
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    return cfg


def _number(value, what):
    """A config number: a finite JSON int or float, returned unchanged."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            if math.isfinite(value):
                return value
        except OverflowError:  # an int beyond float range
            pass
    raise ConfigError(f"{what} must be a finite number in float range, got {value!r:.40}")


def _integer(value, what):
    """int(value) for a config number that is integral."""
    value = _number(value, what)
    if isinstance(value, float) and not value.is_integer():
        raise ConfigError(f"{what} must be an integer, got {value!r}")
    return int(value)


def _matrix(rows, what):
    """Equally long, nonempty rows of [re, im] pairs to a complex matrix."""
    if not (isinstance(rows, list) and rows and isinstance(rows[0], list) and rows[0]):
        raise ConfigError(f"{what} must be a nonempty list of rows of [re, im] pairs")
    mat = np.empty((len(rows), len(rows[0])), dtype=complex)
    for i, row in enumerate(rows):
        if not (isinstance(row, list) and len(row) == len(rows[0])):
            raise ConfigError(f"{what}[{i}] must be a row as long as the first")
        for j, entry in enumerate(row):
            field = f"{what}[{i}][{j}]"
            if not (isinstance(entry, list) and len(entry) == 2):
                raise ConfigError(f"{field} must be an [re, im] pair, got {entry!r:.40}")
            mat[i, j] = complex(_number(entry[0], field), _number(entry[1], field))
    return mat


def _decode_matrix(blob, what):
    """Accept a bare [[re, im], ...] matrix or a {'dim', 'matrix'} wrapper."""
    if not isinstance(blob, dict):
        return _matrix(blob, what)
    if "dim" not in blob or "matrix" not in blob:
        raise ConfigError(f"{what}: object form needs 'dim' and 'matrix'")
    mat = _matrix(blob["matrix"], what)
    dim = _integer(blob["dim"], f"{what}: 'dim'")
    if mat.shape != (dim, dim):
        raise ConfigError(f"{what}: dim {dim} does not match matrix shape {mat.shape}")
    return mat


def _merged_int(flag_value, cfg, key, minimum, maximum=None):
    """Flag wins over config; the value must be present in one of them."""
    value = flag_value if flag_value is not None else cfg.get(key)
    if value is None:
        raise ConfigError(f"'{key}' must be given via --{key} or the config file")
    value = _integer(value, f"'{key}'")
    if value < minimum:
        raise ConfigError(f"'{key}' must be >= {minimum}, got {value}")
    if maximum is not None and value > maximum:
        raise ConfigError(f"'{key}' must be <= {maximum}, got {value}")
    return value


def _decode_pt(cfg):
    """(PtHamiltonian, t); its regime errors stay domain errors."""
    if not {"r", "s", "phi", "t"} <= set(cfg):
        raise ConfigError("pt config needs 'r', 's', 'phi' and 't'")
    r, s, phi, t = (float(_number(cfg[key], f"'{key}'")) for key in ("r", "s", "phi", "t"))
    return PtHamiltonian(r=r, s=s, phi=phi), t


def _decode_prover(blob):
    if blob == "honest":
        return honest_prover()
    if isinstance(blob, dict) and blob.get("kind") == "dishonest":
        for key in ("unitaries", "probs"):
            if not isinstance(blob.get(key), list):
                raise ConfigError(f"dishonest prover needs a list '{key}'")
        mats = [_matrix(u, f"unitaries[{i}]") for i, u in enumerate(blob["unitaries"])]
        probs = [float(_number(p, f"probs[{i}]")) for i, p in enumerate(blob["probs"])]
        try:
            return dishonest_prover(mats, probs)
        except MetriqError as exc:
            raise ConfigError(str(exc)) from None
    raise ConfigError(
        'prover must be "honest" or {"kind": "dishonest", "unitaries": [...], "probs": [...]}'
    )


def _render(row, fmt):
    """The bytes of one output row: sorted, indented JSON, or a CSV header and line."""
    if fmt == "json":
        return json.dumps(row, indent=2, sort_keys=True) + "\n"
    cells = (format(v, ".17g") if isinstance(v, float) else str(v) for v in row.values())
    return ",".join(row) + "\n" + ",".join(cells) + "\n"


def _emit(text, out_path):
    if out_path is None:
        sys.stdout.write(text)
        return
    try:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigError(f"cannot write {out_path}: {exc}") from None


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def _cmd_metric_validate(args) -> int:
    blob = _read_json(args.path)
    mat = _decode_matrix(blob, "metric")
    try:
        eta = validate_metric(mat)
    except MetriqError as exc:
        print(f"invalid: {exc}")
        return EXIT_DOMAIN
    eigs = ", ".join(format(v, ".12g") for v in eta.eig.eigenvalues)
    flag = "subidentity" if eta.subidentity else "exceeds identity"
    print(f"valid, eigenvalues [{eigs}], norm {eta.norm:.12g}, {flag}")
    return EXIT_OK


def _cmd_simulate(args) -> int:
    cfg = _read_config(args.config)
    seed = _merged_int(args.seed, cfg, "seed", minimum=0, maximum=_MAX_SEED)
    shots = _merged_int(args.shots, cfg, "shots", minimum=1)
    rng = RngStream(seed=seed)

    if args.procedure == "g-eta":
        if "metric" not in cfg or "state" not in cfg:
            raise ConfigError("g-eta config needs 'metric' and 'state'")
        eta = validate_metric(_decode_matrix(cfg["metric"], "metric"))
        rho = _decode_matrix(cfg["state"], "state")
        record = simulate_g_eta(eta, rho, shots, rng)
        analytic = float(np.trace(eta.matrix @ rho).real)
    else:
        ham, t = _decode_pt(cfg)
        system = build_pt_system(ham)
        if "state" in cfg:
            rho = _decode_matrix(cfg["state"], "state")
        else:
            rho = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
        record = simulate_pt(system, rho, t, shots, rng)
        analytic = float(chained_success_probability(system, rho, t))

    ratio = record.success_ratio
    row = dict(zip(_CSV_COLUMNS, (
        record.seed, record.requested_successes, record.total_copies_used,
        ratio, analytic, abs(ratio - analytic),
    )))
    _emit(_render(row, args.format), args.out)
    return EXIT_OK


def _cmd_verify(args) -> int:
    cfg = _read_config(args.config)
    if "metric" not in cfg or "prover" not in cfg:
        raise ConfigError("verify config needs 'metric' and 'prover'")
    seed = _merged_int(args.seed, cfg, "seed", minimum=0, maximum=_MAX_SEED)
    exact = cfg.get("exact", False)
    if not isinstance(exact, bool):
        raise ConfigError(f"'exact' must be true or false, got {exact!r}")
    if exact and args.shots is None and "shots" not in cfg:
        shots = 0
    else:
        shots = _merged_int(args.shots, cfg, "shots", minimum=1)
    model = _decode_prover(cfg["prover"])
    eta = validate_metric(_decode_matrix(cfg["metric"], "metric"))
    threshold(eta)  # degenerate metrics are undecidable; fail before sampling

    design = default_design()
    responses = run_prover(model, eta, design, shots, RngStream(seed=seed), exact=exact)
    report = verify(eta, reconstruct(responses, design, shots_per_input=shots))
    row = {**dataclasses.asdict(report), "shots_per_input": shots, "seed": seed}
    _emit(_render(row, "json"), args.out)
    return EXIT_OK if report.verdict == "accept" else EXIT_REJECT


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="metriq", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    mv = sub.add_parser("metric-validate", help="check a metric operator JSON file")
    mv.add_argument("path", help="JSON file: [[re, im], ...] rows or {'dim', 'matrix'}")

    sim = sub.add_parser("simulate", help="run a seeded sampling procedure")
    proc = sim.add_subparsers(dest="procedure", required=True)
    sim_ge = proc.add_parser("g-eta", help="dilate-and-postselect metric channel")
    sim_pt = proc.add_parser("pt", help="full evolution under a PT-symmetric Hamiltonian")
    for p in (sim_ge, sim_pt):
        p.add_argument("--config", required=True, help="JSON config file")
        p.add_argument("--seed", type=int, default=None, help="overrides the config seed")
        p.add_argument("--shots", type=int, default=None, help="successes to collect")
        p.add_argument("--out", default=None, help="output file (default stdout)")
        p.add_argument("--format", choices=("csv", "json"), default="csv")

    ver = sub.add_parser("verify", help="play the tomographic verification game")
    ver.add_argument("--config", required=True, help="JSON config with 'metric' and 'prover'")
    ver.add_argument("--seed", type=int, default=None, help="overrides the config seed")
    ver.add_argument("--shots", type=int, default=None, help="copies per design input")
    ver.add_argument("--out", default=None, help="report file (default stdout)")

    return parser


# parse_args keeps no state between calls, so one parser serves the process
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0

    try:
        if args.command == "metric-validate":
            return _cmd_metric_validate(args)
        if args.command == "simulate":
            return _cmd_simulate(args)
        return _cmd_verify(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except MetriqError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
