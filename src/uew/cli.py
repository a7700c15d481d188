"""Command-line front end.

Subcommands: gs, pc, scan, detect, alpha0, plane. Reports go to stdout;
tabular commands (scan, plane) print bare CSV on stdout and keep their
config echo on stderr so the CSV bytes stay reproducible. Exit codes:
0 success, 1 input error, 2 non-convergence, 3 infeasible constraint.
"""

from __future__ import annotations

import argparse
import csv
import os
import re
import sys
import time
from fractions import Fraction
from pathlib import Path

from . import __version__
from .analysis import MINUS_INF, alpha_sweep, plane_samples, rotated_witness
from .fileio import load_density, load_operator
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


def _fmt(x: float) -> str:
    return repr(float(x))


def _amps(ket) -> str:
    return "[" + ", ".join(f"{z.real:.12g}{z.imag:+.12g}j" for z in ket.amplitudes) + "]"


def _operands(args):
    """The test operator and the constraint spec named by --test, --constraint and --cvalue."""
    L = load_operator(args.test)
    return L, ConstraintSpec(C=load_operator(args.constraint), c=_parse_real(args.cvalue))


def cmd_gs(args, cfg: OptimizerConfig) -> int:
    res = sup_product_unconstrained(load_operator(args.test), cfg)
    print(f"g_s: {_fmt(res.value)}")
    print(f"argmax_a: {_amps(res.argmax.a)}")
    print(f"argmax_b: {_amps(res.argmax.b)}")
    print(f"converged: {str(res.converged).lower()}")
    return EXIT_OK if res.converged else EXIT_NO_CONVERGENCE


def cmd_pc(args, cfg: OptimizerConfig) -> int:
    L, spec = _operands(args)
    res = sup_product_constrained(L, spec, HalfSpaceSide(args.side), cfg)
    boundary_active = halfspace_membership(res.argmax, spec) is HalfSpaceSide.BOUNDARY
    print(f"p_c: {_fmt(res.value)}")
    print(f"argmax_a: {_amps(res.argmax.a)}")
    print(f"argmax_b: {_amps(res.argmax.b)}")
    print(f"constraint_value: {_fmt(res.constraint_value)}")
    print(f"boundary_active: {str(boundary_active).lower()}")
    print(f"method: {res.method}")
    return EXIT_OK if res.converged else EXIT_NO_CONVERGENCE


def cmd_scan(args, cfg: OptimizerConfig) -> int:
    if not args.example31:
        raise ValueError("scan currently supports only the built-in --example31 instance")
    alphas = [_parse_alpha(tok) for tok in args.alphas.split(",")]
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
    return EXIT_OK


def _build_pair(L, spec: ConstraintSpec, alpha, cfg: OptimizerConfig) -> UewPair:
    """Pair of half-space witnesses for L itself or its rotation by alpha,
    one analysis.rotated_witness per side."""
    w_c, w_ct = (rotated_witness(L, spec, alpha, side, cfg) for side in (HalfSpaceSide.LEQ, HalfSpaceSide.GEQ))
    return UewPair(w_c=w_c, w_ctilde=w_ct, constraint=spec)


def cmd_detect(args, cfg: OptimizerConfig) -> int:
    rho = load_density(args.state)
    L, spec = _operands(args)
    alpha = None if args.alpha is None else _parse_alpha(args.alpha)
    halfspace_membership(rho, spec)  # a state on the wrong space fails here, before any solve
    pair = _build_pair(L, spec, alpha, cfg)
    verdict = run_detect(rho, pair)
    print(f"side: {verdict.side_used.value}")
    print(f"witness_value: {_fmt(verdict.witness_value)}")
    print(f"verdict: {verdict.label.value}")
    return EXIT_OK


def cmd_alpha0(args, cfg: OptimizerConfig) -> int:
    L, spec = _operands(args)
    if L.allclose(spec.C):
        raise ValueError("constraint and test operators must differ")
    label = classify_case(L, spec, cfg)
    print(f"case: {label.value}")
    pc_res = sup_product_constrained(L, spec, HalfSpaceSide.LEQ, cfg)
    if not pc_res.converged:
        return EXIT_NO_CONVERGENCE
    alpha0 = compute_alpha0(L, spec, cfg, p_c=pc_res.value)
    if alpha0 is None:
        print("alpha0: none")
        print("note: the rotated witness stays valid down to its limit witness, which is the optimal member")
    else:
        print(f"alpha0: {alpha0:.6f}")
    return EXIT_OK


def cmd_plane(args, cfg: OptimizerConfig) -> int:
    L, spec = _operands(args)
    paths = sorted(Path(args.states).glob("*.json"))
    states = []
    bad = []
    for p in paths:
        try:
            states.append((p.stem, load_density(p)))
        except (ValueError, OSError) as exc:
            bad.append(f"{p.name}: {exc}")
    if bad:
        raise ValueError("unreadable state files: " + "; ".join(bad))
    samples = plane_samples(states, spec, L)
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(["label", "x", "y"])
    for s in samples:
        writer.writerow([s.label, _fmt(s.x), _fmt(s.y)])
    return EXIT_OK


def _flag(name: str, **kw):
    return name, kw


_TEST = _flag("--test", required=True, help="test operator JSON file")
_CONSTRAINT = _flag("--constraint", required=True, help="constraint operator JSON file")
_CVALUE = _flag("--cvalue", required=True, help="constraint value")
_COMMON = (
    _flag("--seed", type=int, default=None, help="rng seed (env UEW_SEED otherwise)"),
    _flag("--restarts", type=int, default=OptimizerConfig.restarts),
)


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="uew", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    def command(name, func, help, *flags, report="stdout", **defaults):
        """A subcommand with its flags in usage order; ``report`` names the
        sys stream of its report frame, looked up when main runs."""
        p = sub.add_parser(name, help=help)
        for flag, kw in (*flags, *_COMMON):
            p.add_argument(flag, **kw)
        p.set_defaults(func=func, report=report, **defaults)

    command("gs", cmd_gs, "unconstrained product supremum of a test operator", _TEST)
    command(
        "pc", cmd_pc, "constrained product supremum on one half-space",
        _TEST, _CONSTRAINT,
        _flag("--cvalue", required=True, help="constraint value (decimal or rational like 1/100)"),
        _flag("--side", required=True, choices=["leq", "geq"], help="half-space to search"),
    )
    command(
        "scan", cmd_scan, "alpha sweep with noise thresholds, CSV on stdout",
        _flag("--example31", action="store_true", help="use the built-in worked instance"),
        _flag("--x", default="2/3", help="instance parameter x in (0,1)"),
        _flag("--cvalue", default="1/100", help="constraint value"),
        _flag("--alphas", required=True, help="comma list of alphas < 1, -inf allowed"),
        report="stderr",
    )
    command(
        "detect", cmd_detect, "detection verdict for a state file",
        _flag("--state", required=True, help="density matrix JSON file"),
        _TEST, _CONSTRAINT, _CVALUE,
        _flag("--alpha", default=None, help="rotation parameter < 1 or -inf (default: none)"),
    )
    command("alpha0", cmd_alpha0, "validity threshold of the rotated witness family", _TEST, _CONSTRAINT, _CVALUE)
    command(
        "plane", cmd_plane, "constraint/test expectation samples, CSV on stdout",
        _flag("--states", required=True, help="directory of density matrix JSON files"),
        _TEST, _CONSTRAINT,
        report="stderr", cvalue="0",
    )
    return ap


_PARSER = _build_parser()

_VALUE_FLAGS = {"--alpha", "--alphas", "--cvalue", "--x", "--seed"}
_NEGATIVE_VALUE = re.compile(r"^-(inf|\d|\.\d)", re.IGNORECASE)


def _merge_negative_values(argv):
    """Join value flags with arguments like -inf or -1,-10 that argparse
    would otherwise read as options."""
    out = []
    for tok in argv:
        # a merged token holds "=", so it never counts as a flag again
        if out and out[-1] in _VALUE_FLAGS and _NEGATIVE_VALUE.match(tok):
            out[-1] = f"{out[-1]}={tok}"
        else:
            out.append(tok)
    return out


def main(argv=None) -> int:
    """Run one subcommand inside its report frame.

    The frame is the command, config and tool lines before the command's
    own report and the wall_time_s line after it, on the stream the
    subcommand names: stdout, or stderr for the CSV commands. wall_time_s
    follows every return (exit 0 or 2); an error (exit 1 or 3) prints an
    ``error:`` line on stderr instead, and a bad seed or restart count
    fails before the header.
    """
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = _PARSER.parse_args(_merge_negative_values(argv))
    except SystemExit as exc:
        return EXIT_INPUT if exc.code not in (0, None) else EXIT_OK
    report = getattr(sys, args.report)
    try:
        seed = args.seed if args.seed is not None else int(os.environ.get("UEW_SEED", OptimizerConfig.seed))
        cfg = OptimizerConfig(restarts=args.restarts, seed=seed)
        print(f"command: {' '.join(argv)}", file=report)
        print(f"config: seed={cfg.seed} restarts={cfg.restarts}", file=report)
        print(f"tool: uew {__version__}", file=report)
        t0 = time.perf_counter()
        code = args.func(args, cfg)
    except EmptyFeasibleSet as exc:
        print(f"error: infeasible constraint: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (AssumptionViolated, ValueError, OSError, KeyError) as exc:  # ValueError covers JSON and dims errors
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    print(f"wall_time_s: {time.perf_counter() - t0:.3f}", file=report)
    return code


if __name__ == "__main__":
    sys.exit(main())
