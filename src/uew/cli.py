"""Command-line front end.

Subcommands: gs, pc, scan, detect, alpha0, plane. Reports go to stdout;
tabular commands (scan, plane) print bare CSV on stdout and keep their
config echo on stderr so the CSV bytes stay reproducible. Exit codes:
0 success, 1 input error, 2 non-convergence, 3 infeasible constraint.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import re
import sys
import time
from fractions import Fraction
from pathlib import Path

from . import __version__
from .analysis import MINUS_INF, alpha_sweep, plane_samples, rotated_witness
from .fileio import load_density, load_operator
from .linalg import BOUNDARY_TOL, DimensionMismatch
from .optimize import (
    AssumptionViolated,
    EmptyFeasibleSet,
    OptimizerConfig,
    classify_case,
    compute_alpha0,
    sup_product_constrained,
    sup_product_unconstrained,
)
from .states import DensityMatrix, Example31Config, NoisyStateFamily, build_example31
from .witness import ConstraintSpec, HalfSpaceSide, UewPair, detect as run_detect, halfspace_membership

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_NO_CONVERGENCE = 2
EXIT_INFEASIBLE = 3


def _parse_real(text: str) -> float:
    """Accept decimal literals and exact rationals like 2/3."""
    text = text.strip()
    if "/" in text:
        try:
            return float(Fraction(text))
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {text!r}") from None
    return float(text)


def _parse_alpha(tok: str) -> float:
    """A rotation parameter < 1; -inf selects the limit witness."""
    val = _parse_real(tok)
    if not val < 1.0:
        raise ValueError(f"alpha {tok.strip()!r} must be < 1 or -inf")
    return val


def _parse_alphas(text: str):
    return [_parse_alpha(tok) for tok in text.split(",")]


def _resolve_seed(flag_value) -> int:
    if flag_value is not None:
        return int(flag_value)
    env = os.environ.get("UEW_SEED")
    if env is not None:
        return int(env)
    return 0


def _config(args) -> OptimizerConfig:
    return OptimizerConfig(restarts=args.restarts, seed=_resolve_seed(args.seed))


def _fmt(x: float) -> str:
    return repr(float(x))


def _amps(ket) -> str:
    return "[" + ", ".join(f"{z.real:.12g}{z.imag:+.12g}j" for z in ket.amplitudes) + "]"


def _report_header(args, cfg: OptimizerConfig, stream) -> float:
    echo = getattr(args, "raw_argv", None) or [args.command]
    print(f"command: {' '.join(echo)}", file=stream)
    print(f"config: seed={cfg.seed} restarts={cfg.restarts}", file=stream)
    print(f"tool: uew {__version__}", file=stream)
    return time.perf_counter()


def _finish(t0: float, stream) -> None:
    print(f"wall_time_s: {time.perf_counter() - t0:.3f}", file=stream)


def cmd_gs(args) -> int:
    cfg = _config(args)
    t0 = _report_header(args, cfg, sys.stdout)
    L = load_operator(args.test)
    res = sup_product_unconstrained(L, cfg)
    print(f"g_s: {_fmt(res.value)}")
    print(f"argmax_a: {_amps(res.argmax.a)}")
    print(f"argmax_b: {_amps(res.argmax.b)}")
    print(f"converged: {str(res.converged).lower()}")
    _finish(t0, sys.stdout)
    return EXIT_OK if res.converged else EXIT_NO_CONVERGENCE


def cmd_pc(args) -> int:
    cfg = _config(args)
    t0 = _report_header(args, cfg, sys.stdout)
    L = load_operator(args.test)
    C = load_operator(args.constraint)
    spec = ConstraintSpec(C=C, c=_parse_real(args.cvalue))
    side = HalfSpaceSide.LEQ if args.side == "leq" else HalfSpaceSide.GEQ
    res = sup_product_constrained(L, spec, side, cfg)
    boundary_active = abs(res.constraint_value - spec.c) <= BOUNDARY_TOL
    print(f"p_c: {_fmt(res.value)}")
    print(f"argmax_a: {_amps(res.argmax.a)}")
    print(f"argmax_b: {_amps(res.argmax.b)}")
    print(f"constraint_value: {_fmt(res.constraint_value)}")
    print(f"boundary_active: {str(boundary_active).lower()}")
    print(f"method: {res.method}")
    _finish(t0, sys.stdout)
    return EXIT_OK if res.converged else EXIT_NO_CONVERGENCE


def cmd_scan(args) -> int:
    if not args.example31:
        raise ValueError("scan currently supports only the built-in --example31 instance")
    cfg = _config(args)
    t0 = _report_header(args, cfg, sys.stderr)
    alphas = _parse_alphas(args.alphas)
    ex = Example31Config(x=_parse_real(args.x), c=_parse_real(args.cvalue))
    C, L, phi = build_example31(ex)
    spec = ConstraintSpec(C=C, c=ex.c)
    family = NoisyStateFamily(pure=DensityMatrix.from_ket(phi, dims=(2, 2)))
    rows = alpha_sweep(L, spec, alphas, family, cfg)
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(["alpha", "bound", "threshold_p"])
    for row in rows:
        alpha_txt = "-inf" if row.alpha == MINUS_INF else _fmt(row.alpha)
        thr_txt = "" if row.threshold_p is None else _fmt(row.threshold_p)
        writer.writerow([alpha_txt, _fmt(row.bound), thr_txt])
    _finish(t0, sys.stderr)
    return EXIT_OK


def _build_pair(L, spec: ConstraintSpec, alpha, cfg: OptimizerConfig) -> UewPair:
    """Pair of half-space witnesses for L itself or its rotation by alpha,
    one analysis.rotated_witness per side."""
    w_c, w_ct = (rotated_witness(L, spec, alpha, side, cfg) for side in (HalfSpaceSide.LEQ, HalfSpaceSide.GEQ))
    return UewPair(w_c=w_c, w_ctilde=w_ct, constraint=spec)


def cmd_detect(args) -> int:
    cfg = _config(args)
    t0 = _report_header(args, cfg, sys.stdout)
    rho = load_density(args.state)
    L = load_operator(args.test)
    C = load_operator(args.constraint)
    spec = ConstraintSpec(C=C, c=_parse_real(args.cvalue))
    alpha = None if args.alpha is None else _parse_alpha(args.alpha)
    halfspace_membership(rho, spec)  # a state on the wrong space fails here, before any solve
    pair = _build_pair(L, spec, alpha, cfg)
    verdict = run_detect(rho, pair)
    print(f"side: {verdict.side_used.value}")
    print(f"witness_value: {_fmt(verdict.witness_value)}")
    print(f"verdict: {verdict.label.value}")
    _finish(t0, sys.stdout)
    return EXIT_OK


def cmd_alpha0(args) -> int:
    cfg = _config(args)
    t0 = _report_header(args, cfg, sys.stdout)
    L = load_operator(args.test)
    C = load_operator(args.constraint)
    if L.allclose(C):
        raise ValueError("constraint and test operators must differ")
    spec = ConstraintSpec(C=C, c=_parse_real(args.cvalue))
    label = classify_case(L, spec, cfg)
    print(f"case: {label.value}")
    pc_res = sup_product_constrained(L, spec, HalfSpaceSide.LEQ, cfg)
    if not pc_res.converged:
        _finish(t0, sys.stdout)
        return EXIT_NO_CONVERGENCE
    alpha0 = compute_alpha0(L, spec, cfg, p_c=pc_res.value)
    if alpha0 is None:
        print("alpha0: none")
        print("note: the rotated witness stays valid down to its limit witness, which is the optimal member")
    else:
        print(f"alpha0: {alpha0:.6f}")
    _finish(t0, sys.stdout)
    return EXIT_OK


def cmd_plane(args) -> int:
    cfg = _config(args)
    t0 = _report_header(args, cfg, sys.stderr)
    L = load_operator(args.test)
    C = load_operator(args.constraint)
    spec = ConstraintSpec(C=C, c=0.0)
    paths = sorted(Path(args.states).glob("*.json"))
    states = []
    bad = []
    for p in paths:
        try:
            states.append((p.stem, load_density(p)))
        except (ValueError, OSError, json.JSONDecodeError) as exc:
            bad.append(f"{p.name}: {exc}")
    if bad:
        raise ValueError("unreadable state files: " + "; ".join(bad))
    samples = plane_samples(states, spec, L)
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(["label", "x", "y"])
    for s in samples:
        writer.writerow([s.label, _fmt(s.x), _fmt(s.y)])
    _finish(t0, sys.stderr)
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="uew", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=int, default=None, help="rng seed (env UEW_SEED otherwise)")
        p.add_argument("--restarts", type=int, default=64)

    p = sub.add_parser("gs", help="unconstrained product supremum of a test operator")
    p.add_argument("--test", required=True, help="test operator JSON file")
    common(p)
    p.set_defaults(func=cmd_gs)

    p = sub.add_parser("pc", help="constrained product supremum on one half-space")
    p.add_argument("--test", required=True, help="test operator JSON file")
    p.add_argument("--constraint", required=True, help="constraint operator JSON file")
    p.add_argument("--cvalue", required=True, help="constraint value (decimal or rational like 1/100)")
    p.add_argument("--side", required=True, choices=["leq", "geq"], help="half-space to search")
    common(p)
    p.set_defaults(func=cmd_pc)

    p = sub.add_parser("scan", help="alpha sweep with noise thresholds, CSV on stdout")
    p.add_argument("--example31", action="store_true", help="use the built-in worked instance")
    p.add_argument("--x", default="2/3", help="instance parameter x in (0,1)")
    p.add_argument("--cvalue", default="1/100", help="constraint value")
    p.add_argument("--alphas", required=True, help="comma list of alphas < 1, -inf allowed")
    common(p)
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("detect", help="detection verdict for a state file")
    p.add_argument("--state", required=True, help="density matrix JSON file")
    p.add_argument("--test", required=True, help="test operator JSON file")
    p.add_argument("--constraint", required=True, help="constraint operator JSON file")
    p.add_argument("--cvalue", required=True, help="constraint value")
    p.add_argument("--alpha", default=None, help="rotation parameter < 1 or -inf (default: none)")
    common(p)
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser("alpha0", help="validity threshold of the rotated witness family")
    p.add_argument("--test", required=True, help="test operator JSON file")
    p.add_argument("--constraint", required=True, help="constraint operator JSON file")
    p.add_argument("--cvalue", required=True, help="constraint value")
    common(p)
    p.set_defaults(func=cmd_alpha0)

    p = sub.add_parser("plane", help="constraint/test expectation samples, CSV on stdout")
    p.add_argument("--states", required=True, help="directory of density matrix JSON files")
    p.add_argument("--test", required=True, help="test operator JSON file")
    p.add_argument("--constraint", required=True, help="constraint operator JSON file")
    common(p)
    p.set_defaults(func=cmd_plane)
    return ap


_VALUE_FLAGS = {"--alpha", "--alphas", "--cvalue", "--x", "--seed"}
_NEGATIVE_VALUE = re.compile(r"^-(inf|\d|\.\d)", re.IGNORECASE)


def _merge_negative_values(argv):
    """Join value flags with arguments like -inf or -1,-10 that argparse
    would otherwise read as options."""
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok in _VALUE_FLAGS and i + 1 < len(argv) and _NEGATIVE_VALUE.match(argv[i + 1]):
            out.append(f"{tok}={argv[i + 1]}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def main(argv=None) -> int:
    ap = _build_parser()
    if argv is None:
        argv = sys.argv[1:]
    argv = list(argv)
    try:
        args = ap.parse_args(_merge_negative_values(argv))
    except SystemExit as exc:
        return EXIT_INPUT if exc.code not in (0, None) else 0
    args.raw_argv = argv
    try:
        return args.func(args)
    except EmptyFeasibleSet as exc:
        print(f"error: infeasible constraint: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except AssumptionViolated as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (ValueError, DimensionMismatch, OSError, json.JSONDecodeError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
