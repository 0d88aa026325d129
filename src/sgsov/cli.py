"""Command-line front end: configuration ingestion, command dispatch and
row-oriented result emission (JSON lines or CSV).

Exit codes: 0 success, 1 verification failure, 2 invalid input,
3 numerical degeneracy, 141 standard output closed by its reader.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys

import numpy as np

from .params import ModelParams, SgSovError, DegenerateKappa
from . import model_core as mc
from . import spectrum as sp
from . import separate_states as ss
from . import form_factors as ffm
from . import local_ops as lo
from . import oracle
from .sov_basis import SimplicityViolation, DegenerateSpectrum, GaugeInconsistency
from .local_ops import SingularMatrix

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_BAD_CONFIG = 2
EXIT_DEGENERATE = 3
EXIT_CLOSED_OUTPUT = 141  # 128 + SIGPIPE

# the only keys a configuration may hold, at the top level and in 'model'
CONFIG_KEYS = ("model", "seed", "tolerances")
MODEL_KEYS = ("N", "p", "p_prime", "kappa", "xi", "u", "v")

_DEGENERATE = (SimplicityViolation, DegenerateSpectrum, GaugeInconsistency,
               SingularMatrix, DegenerateKappa)


class ConfigError(Exception):
    pass


def _is_number(x):
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _complex_from(value, where):
    if _is_number(value):
        return complex(value)
    if isinstance(value, (list, tuple)) and len(value) == 2 and all(map(_is_number, value)):
        return complex(value[0], value[1])
    raise ConfigError(f"{where}: complex values must be numbers or [re, im] pairs")


def load_config(path):
    """Parse and validate a run configuration; raises ConfigError on any
    schema violation before any computation happens."""
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}")
    if not isinstance(raw, dict) or not isinstance(raw.get("model"), dict):
        raise ConfigError("config must be an object with a 'model' section")
    model = raw["model"]
    for where, keys, allowed in (("config", raw, CONFIG_KEYS), ("model", model, MODEL_KEYS)):
        for key in keys:
            if key not in allowed:
                raise ConfigError(f"unknown {where} key '{key}'; allowed: {', '.join(allowed)}")
    for key in ("N", "p", "kappa", "xi"):
        if key not in model:
            raise ConfigError(f"model section is missing '{key}'")
    n = model["N"]
    p = model["p"]
    if not isinstance(n, int) or not isinstance(p, int) \
            or isinstance(n, bool) or isinstance(p, bool):
        raise ConfigError("model.N and model.p must be integers")
    if p % 2 == 0 or p < 3:
        raise ConfigError(f"model.p must be an odd integer >= 3, got {p}")
    p_prime = model.get("p_prime", 2)
    if not isinstance(p_prime, int) or p_prime % 2 or p_prime <= 0:
        raise ConfigError("model.p_prime must be a positive even integer")

    def site_list(key):
        if key not in model:
            return None
        vals = model[key]
        if not isinstance(vals, list) or len(vals) != n:
            raise ConfigError(f"model.{key} must be a list of length N={n}")
        return [_complex_from(v, f"model.{key}[{i}]") for i, v in enumerate(vals)]

    kwargs = dict(
        n_sites=n, p=p, p_prime=p_prime,
        kappa=site_list("kappa"), xi=site_list("xi"),
        u=site_list("u"), v=site_list("v"),
    )
    try:
        params = ModelParams(**kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc))
    seed = raw.get("seed", 0)
    if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
        raise ConfigError("seed must be a nonnegative integer")
    tolerances = raw.get("tolerances", {})
    if not isinstance(tolerances, dict):
        raise ConfigError("tolerances must be an object")
    for k, v in tolerances.items():
        if k not in oracle.DEFAULT_TOLERANCES or not _is_number(v) or not 0 < v < np.inf:
            raise ConfigError(f"tolerance override '{k}' is unknown or not a finite "
                              f"positive number: {v!r}")
    return params, seed, dict(tolerances)


def _site_arg(text, params, what):
    """An integer site index in 1..N."""
    try:
        n = int(text)
    except ValueError:
        raise ConfigError(f"{what}: site must be an integer, got {text!r}")
    if not 1 <= n <= params.n_sites:
        raise ConfigError(f"{what}: site {n} out of range 1..{params.n_sites}")
    return n


def _parse_op(token, params):
    """('v2' or 'u', site) of one ``--ops`` token such as 'u1' or 'v21'."""
    token = token.strip()
    for name in ("v2", "u"):
        if token.startswith(name):
            return name, _site_arg(token[len(name):], params, f"--ops token '{token}'")
    raise ConfigError(f"--ops: unknown operator token '{token}'")


def _parse_factors(text, params):
    """The ``--factors`` string 'a:k:alpha,...' (1-based variable a) as
    0-based (a, k, alpha) triples with a in 1..n_separate strictly
    ascending, k in 0..p-1 and alpha in 1..p."""
    factors = []
    for part in text.split(",") if text else []:
        try:
            a, k, alpha = (int(x) for x in part.split(":"))
        except ValueError:
            raise ConfigError(f"--factors: '{part}' is not three integers a:k:alpha")
        if not (1 <= a <= params.n_separate and 0 <= k < params.p and 1 <= alpha <= params.p):
            raise ConfigError(f"--factors: '{part}' needs a in 1..{params.n_separate}, "
                              f"k in 0..{params.p - 1} and alpha in 1..{params.p}")
        if factors and a - 1 <= factors[-1][0]:
            raise ConfigError("--factors: variables must be strictly ascending")
        factors.append((a - 1, k, alpha))
    return factors


def fmt_complex(z):
    z = complex(z)
    return f"{z.real:.12g}{z.imag:+.12g}j"


class RowWriter:
    """Append-only row emitter: JSON lines (default) or CSV with a fixed
    column order."""

    def __init__(self, path, fmt):
        self.fmt = fmt
        try:
            self.fh = open(path, "w") if path else sys.stdout
        except OSError as exc:
            raise ConfigError(f"cannot write {path}: {exc}")
        self.owns = path is not None
        self.writer = None

    def emit(self, row: dict):
        if self.fmt == "csv":
            if self.writer is None:
                self.writer = csv.DictWriter(self.fh, fieldnames=list(row))
                self.writer.writeheader()
            self.writer.writerow(row)
        else:
            self.fh.write(json.dumps(row, sort_keys=True) + "\n")
        self.fh.flush()

    def close(self):
        if self.owns:
            self.fh.close()


# commands that emit the report rows of verify_suite on these sections
_SUITE_SECTIONS = {"check-algebra": {"algebra"}, "scalar": {"scalar"},
                   "verify-all": None}


def cmd_verify(params, seed, tolerances, writer, sections):
    sol = ss.prepare(params, seed, tolerances)
    ok = True
    # each section's rows go out as soon as it finishes
    for reports in oracle.section_reports(sol, tolerances, sections):
        for r in reports:
            writer.emit(r.row())
            ok = ok and r.passed
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def cmd_sov_build(params, seed, tolerances, writer):
    sol = ss.prepare(params, seed, tolerances)
    reports = oracle.verify_solution(sol, tolerances, sections={"sov"})
    basis = sol.basis
    # both row kinds carry every column (the absent ones empty): one CSV header
    for a in range(params.n_sites):
        writer.emit({"kind": "variable", "index": a,
                     "zero": fmt_complex(basis.grid.z[a]),
                     "root": fmt_complex(basis.grid.eta0[a]), "tuple": "", "weight": ""})
    for j in range(params.dim):
        writer.emit({"kind": "measure", "index": j, "zero": "", "root": "",
                     "tuple": "".join(map(str, params.tuples[j])),
                     "weight": fmt_complex(basis.measure[j])})
    return EXIT_OK if all(r.passed for r in reports) else EXIT_CHECK_FAILED


def cmd_spectrum(params, seed, tolerances, writer):
    tol = {**oracle.DEFAULT_TOLERANCES, **tolerances}
    sol = ss.prepare(params, seed, tolerances)
    degrees = range(-params.n_bar, params.n_bar + 1, 2)
    spec = sol.states
    fes = sp.check_functional_equations(params, spec.t_rows, sol.rng(4))
    for i, fe in enumerate(fes):
        row = {"index": i,
               "theta_sector": int(spec.theta_m[i]) if params.even_chain else "",
               "functional_eq_residual": fe,
               "nullspace_dim": int(spec.nullspace_dim[i])}
        row.update((f"t[{dg}]", fmt_complex(c)) for dg, c in zip(degrees, spec.t_rows[i]))
        row.update((f"q[{k}]", fmt_complex(c)) for k, c in enumerate(spec.q_poly[i]))
        writer.emit(row)
    return EXIT_OK if np.all(fes <= tol["functional_eq"]) else EXIT_CHECK_FAILED


def cmd_ff(params, seed, tolerances, writer, kind, site, factors, ops):
    tol = {**oracle.DEFAULT_TOLERANCES, **tolerances}
    sol = ss.prepare(params, seed, tolerances)
    grid, spec = sol.grid, sol.states
    if kind == "npoint":
        mats = [lo.reconstruct_v2k(sol.frame(n), 1) if name == "v2"
                else mc.embedded_u(params, n) for name, n in ops]
        values, dense, _, rel = oracle.npoint_errors(sol, mats, np.arange(params.dim))
        passed = rel <= tol["npoint"]
        for i, err in enumerate(rel):
            writer.emit({"state": i, "expansion": fmt_complex(values[i]),
                         "oracle": fmt_complex(dense[i]), "relErr": float(err),
                         "pass": bool(passed[i])})
        return EXIT_OK if passed.all() else EXIT_CHECK_FAILED
    if kind == "u":
        dense_op, tol_key = mc.embedded_u(params, site), "ff_u"
        shift = None if site == 1 else ffm.shift_eigenvalues(
            sol, lo.cyclic_shift_permutation(params, site))
        values, zeros = ffm.ff_u_table(grid, spec, site, shift)
    elif kind == "elementary":
        elem = lo.ElementaryBasisElement(tuple(factors))
        dense_op = elem.to_dense(params, sol.charge_ops, sol.elementary_ops)
        tol_key = "ff_elementary"
        values, zeros = ffm.ff_elementary_table(grid, spec, elem)
    else:
        raise ConfigError(f"unknown form-factor kind '{kind}'")
    dense, rel = oracle.table_rel_err(sol, dense_op, values)
    passed = rel <= tol[tol_key]
    for (i, j), err in np.ndenumerate(rel):
        writer.emit({"bra": i, "ket": j,
                     "determinant": fmt_complex(values[i, j]),
                     "oracle": fmt_complex(dense[i, j]),
                     "relErr": float(err), "selectionZero": bool(zeros[i, j]),
                     "pass": bool(passed[i, j])})
    return EXIT_OK if passed.all() else EXIT_CHECK_FAILED


def build_parser():
    ap = argparse.ArgumentParser(
        prog="sgsov",
        description="Separation-of-variables computations for the lattice "
                    "sine-Gordon chain in cyclic representations")
    ap.add_argument("command", choices=["check-algebra", "sov-build", "spectrum",
                                        "scalar", "ff", "verify-all"])
    ap.add_argument("--config", required=True, help="JSON run configuration")
    ap.add_argument("--seed", type=int, default=None, help="override config seed")
    ap.add_argument("--tol", type=float, default=None,
                    help="replace every error tolerance with this value; the zero_gap "
                         "and functional_eq_reject settings keep their config or "
                         "default values")
    ap.add_argument("--threads", type=int, default=1,
                    help="accepted and ignored; every section runs in the calling thread")
    out = ap.add_mutually_exclusive_group()
    out.add_argument("--csv", metavar="PATH", help="write CSV rows to PATH")
    out.add_argument("--json", metavar="PATH", help="write JSON lines to PATH")
    ap.add_argument("--kind", choices=["u", "elementary", "npoint"], default="u",
                    help="form-factor family for the ff command")
    ap.add_argument("--site", type=int, default=1, help="site index for ff u")
    ap.add_argument("--factors", default="",
                    help="elementary factors 'a:k:alpha,a:k:alpha' (1-based a)")
    ap.add_argument("--ops", default="u1,u1",
                    help="operator tokens for ff npoint, e.g. 'u1,u1' or 'u1,v21'")
    return ap


def main(argv=None):
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        params, seed, tolerances = load_config(args.config)
        if args.tol is not None and not 0 < args.tol < np.inf:
            raise ConfigError(f"--tol must be a finite positive number, got {args.tol}")
        if args.seed is not None and args.seed < 0:
            raise ConfigError(f"--seed must be a nonnegative integer, got {args.seed}")
        if args.command == "ff":
            site = _site_arg(args.site, params, "--site")
            if args.kind == "u" and site != 1 and not params.homogeneous:
                raise ConfigError(f"--site {site}: form factors beyond the first site "
                                  "need the chain-shift symmetry of a homogeneous chain")
            factors = _parse_factors(args.factors, params)
            ops = [_parse_op(tok, params) for tok in args.ops.split(",")]
        writer = RowWriter(args.csv or args.json, "csv" if args.csv else "json")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_BAD_CONFIG
    if args.seed is not None:
        seed = args.seed
    if args.tol is not None:
        tolerances = {k: tolerances.get(k, v) if k in oracle.NOT_ERROR_BOUNDS else args.tol
                      for k, v in oracle.DEFAULT_TOLERANCES.items()}
    try:
        if args.command in _SUITE_SECTIONS:
            return cmd_verify(params, seed, tolerances, writer,
                              _SUITE_SECTIONS[args.command])
        if args.command == "sov-build":
            return cmd_sov_build(params, seed, tolerances, writer)
        if args.command == "spectrum":
            return cmd_spectrum(params, seed, tolerances, writer)
        if args.command == "ff":
            return cmd_ff(params, seed, tolerances, writer, args.kind, args.site, factors, ops)
        return EXIT_BAD_CONFIG
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_BAD_CONFIG
    except _DEGENERATE as exc:
        print(f"numerical degeneracy: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except SgSovError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    except BrokenPipeError:
        # the reader closed stdout (say ``| head``); pointing it at devnull
        # keeps the interpreter's flush at exit quiet
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_CLOSED_OUTPUT
    finally:
        writer.close()


if __name__ == "__main__":
    sys.exit(main())
