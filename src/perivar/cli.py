"""Command-line interface.

Exit codes: 0 success, 2 input/validation error, 3 solver error
(non-submodular energy — report serialized to stderr — an instance too
large for exhaustive search, a solve that ran out of memory, or an
internal failure: a recursion limit or a self-check of the library that
did not hold).
"""

from __future__ import annotations

import argparse
import inspect
import sys
from fractions import Fraction
from pathlib import Path
from typing import Optional

from . import experiments
from .energy import (
    FullSpace,
    MeasureSupportError,
    assemble,
    evaluate,
)
from .fileio import (
    ProblemFile,
    ProblemFileError,
    _parse_cellset,
    dumps_json,
    format_rational,
    load_problem,
    parse_face,
    parse_rational,
    read_mask,
    write_csv,
    write_json,
    write_mask,
)
from .grid import perimeter
from .ic import (
    ICVariant,
    Infeasible,
    capacity,
    divergence_certificate,
    resolve_cap,
    small_volume_profile,
    strong_excess,
)
from .maxflow import NonSubmodularError
from .measure import mass_on_closure, mass_on_interior
from .oracle import ExhaustiveCapacityExceeded
from .render import write_svg
from .solve import EmptyClassError, solve_dirichlet, solve_obstacle, solve_volume

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_SOLVER = 3


class CliInputError(Exception):
    pass


def _variant_from_options(pf: ProblemFile) -> ICVariant:
    spec = pf.options.get("variant", {"kind": "plain"})
    return ICVariant(spec["kind"], omega=pf.region, radius=spec.get("radius"))


def _resolve_c(pf: ProblemFile, flag: Optional[str]) -> Fraction:
    if flag is not None:
        return parse_rational(flag)
    if "c" in pf.options:
        return parse_rational(pf.options["c"])
    return Fraction(1)


def _resolve_cap_for(pf: ProblemFile, flag: Optional[int]) -> int:
    return resolve_cap(flag, pf.options.get("exhaustive_cap"), explicit_name="--cap")


def _write_mask(path: Path, A) -> None:
    """PGM mask of A on 1D and 2D grids; the JSON report lists A's cells."""
    if A.domain.d <= 2:
        write_mask(path, A)


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_eval(args) -> int:
    pf = load_problem(args.problem)
    A = read_mask(args.set, pf.domain)
    energy = assemble(pf.pair, FullSpace())
    value = evaluate(energy, A)
    p = perimeter(A)
    plus = mass_on_interior(pf.pair.plus, A)
    minus = mass_on_closure(pf.pair.minus, A)
    print(format_rational(value))
    print(f"perimeter = {format_rational(p)}")
    print(f"mu_plus(A^1) = {format_rational(plus)}")
    print(f"mu_minus(A+) = {format_rational(minus)}")
    return EXIT_OK


def _solve_from_problem(pf: ProblemFile, cap: Optional[int]):
    spec = pf.problem
    if spec is None:
        raise CliInputError("problem file has no 'problem' section")
    kind = spec["kind"]
    if kind == "obstacle":
        inner = _parse_cellset(pf.domain, spec.get("inner"), default_all=False)
        outer = _parse_cellset(pf.domain, spec.get("outer"), default_all=True)
        return solve_obstacle(inner, outer, pf.pair, pf.region)
    if kind == "dirichlet":
        a0 = _parse_cellset(pf.domain, spec.get("a0"), default_all=False)
        return solve_dirichlet(a0, pf.region, pf.pair)
    if kind == "volume":
        if "v" not in spec:
            raise CliInputError("volume problem requires 'v'")
        if not pf.pair.plus.is_zero:
            raise CliInputError("volume problem requires mu_plus = 0")
        return solve_volume(spec["v"], pf.pair.minus, pf.region, exhaustive_cap=cap)
    raise CliInputError(f"cannot minimize a problem of kind {kind!r}")


def cmd_minimize(args) -> int:
    pf = load_problem(args.problem)
    cap = _resolve_cap_for(pf, args.cap)
    result = _solve_from_problem(pf, cap)
    out = _out_dir(args)
    _write_mask(out / "minimizer.pgm", result.minimizer)
    write_json(
        out / "result.json",
        {
            "value": result.value,
            "exactness": result.exactness,
            "certificate": result.certificate,
            "minimizer": result.minimizer,
            "minimizer_volume": result.minimizer.volume,
        },
    )
    print(format_rational(result.value))
    return EXIT_OK


def cmd_ic(args) -> int:
    pf = load_problem(args.problem)
    mu = pf.pair.minus if pf.pair.plus.is_zero else pf.pair.plus
    if not pf.pair.plus.is_zero and not pf.pair.minus.is_zero:
        raise CliInputError("ic commands take a single measure (mu_plus or mu_minus)")
    c = _resolve_c(pf, args.c)
    cap = _resolve_cap_for(pf, args.cap)
    variant = _variant_from_options(pf)
    out = _out_dir(args)

    if args.ic_command == "strong":
        res = strong_excess(mu, c, variant, exhaustive_cap=cap)
        write_json(
            out / "report.json",
            {
                "excess": res.value,
                "holds": res.value <= 0,
                "c": c,
                "method": res.method,
                "witness": res.witness,
                "witness_volume": res.witness.volume,
            },
        )
        _write_mask(out / "witness.pgm", res.witness)
        print(f"excess = {format_rational(res.value)}")
        print(f"strong IC holds: {res.value <= 0}")
        return EXIT_OK

    if args.ic_command == "profile":
        v_max = args.v_max if args.v_max is not None else pf.options.get("v_max")
        profile = small_volume_profile(mu, c, variant, v_max, exhaustive_cap=cap)
        write_csv(
            out / "profile.csv",
            ("v", "phi", "method"),
            [(e.volume, e.phi, e.method) for e in profile.entries],
        )
        write_json(
            out / "report.json",
            {
                "c": c,
                "entries": [
                    {
                        "v": e.volume,
                        "phi": e.phi,
                        "method": e.method,
                        "upper_bound_only": e.upper_bound_only,
                    }
                    for e in profile.entries
                ],
            },
        )
        print(f"entries = {len(profile.entries)}")
        return EXIT_OK

    if args.ic_command == "divcert":
        outcome = divergence_certificate(mu, c)
        if isinstance(outcome, Infeasible):
            write_json(
                out / "report.json",
                {
                    "feasible": False,
                    "excess": outcome.excess,
                    "witness": outcome.witness,
                    "overloaded_faces": outcome.overloaded_faces,
                },
            )
            if outcome.witness is not None:
                _write_mask(out / "witness.pgm", outcome.witness)
            print("infeasible")
            return EXIT_OK
        write_json(
            out / "certificate.json",
            {
                "feasible": True,
                "bound": outcome.bound,
                "max_abs_sigma": outcome.max_abs_sigma(),
                "sigma": outcome.sigma,
            },
        )
        print("feasible")
        return EXIT_OK

    if args.ic_command == "capacity":
        spec = pf.problem or {}
        if spec.get("kind") != "capacity":
            raise CliInputError("capacity needs a problem of kind 'capacity'")
        faces = [parse_face(pf.domain, f) for f in spec.get("faces", [])]
        cells = [tuple(c) for c in spec.get("cells", [])]
        value, witness = capacity(pf.domain, faces=faces, cells=cells, exhaustive_cap=cap)
        write_json(
            out / "report.json",
            {"capacity": value, "witness": witness, "witness_volume": witness.volume},
        )
        _write_mask(out / "witness.pgm", witness)
        print(format_rational(value))
        return EXIT_OK

    raise CliInputError(f"unknown ic subcommand {args.ic_command!r}")


def _parse_params(pairs) -> dict:
    params = {}
    for item in pairs or []:
        if "=" not in item:
            raise CliInputError(f"--param expects key=value, got {item!r}")
        key, raw = item.split("=", 1)
        if "," in raw:
            params[key] = [_parse_scalar(v) for v in raw.split(",") if v]
        else:
            params[key] = _parse_scalar(raw)
    return params


def _parse_scalar(raw: str):
    try:
        return int(raw)
    except ValueError:
        pass
    try:
        return Fraction(raw)
    except ValueError:
        return raw
    except ZeroDivisionError:
        raise CliInputError(f"--param value {raw!r} has a zero denominator") from None


def cmd_experiment(args) -> int:
    name = args.name
    if name not in experiments.SCENARIOS:
        raise CliInputError(
            f"unknown scenario {name!r}; available: {sorted(experiments.SCENARIOS)}"
        )
    params = _parse_params(args.param)
    scenario = experiments.SCENARIOS[name]
    try:
        # only the binding is checked: a TypeError inside a scenario is a library fault
        inspect.signature(scenario).bind(**params, outdir=args.out)
    except TypeError as e:
        raise CliInputError(f"scenario {name!r}: {e}") from None
    report = scenario(**params, outdir=_out_dir(args))
    for key, verdict in sorted(report.verdicts.items()):
        print(f"{key}: {verdict}")
    return EXIT_OK


def cmd_render(args) -> int:
    pf = load_problem(args.problem)
    mask = read_mask(args.set, pf.domain) if args.set else None
    write_svg(args.out, pf.domain, mask, pf.pair)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="perivar",
        description="Exact perimeter-plus-measure functionals on lattice domains",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate the functional on a mask")
    p_eval.add_argument("--problem", required=True)
    p_eval.add_argument("--set", required=True, help="PGM mask of the cell set")
    p_eval.set_defaults(func=cmd_eval)

    p_min = sub.add_parser("minimize", help="solve the problem in the file")
    p_min.add_argument("--problem", required=True)
    p_min.add_argument("--out", required=True)
    p_min.add_argument("--cap", type=int, default=None)
    p_min.set_defaults(func=cmd_minimize)

    p_ic = sub.add_parser("ic", help="isoperimetric-condition tools")
    ic_sub = p_ic.add_subparsers(dest="ic_command", required=True)
    for name in ("strong", "profile", "divcert", "capacity"):
        p = ic_sub.add_parser(name)
        p.add_argument("--problem", required=True)
        p.add_argument("--out", required=True)
        p.add_argument("--c", default=None, help="IC constant as p/q")
        p.add_argument("--cap", type=int, default=None)
        if name == "profile":
            p.add_argument("--v-max", type=int, default=None)
        p.set_defaults(func=cmd_ic)

    p_exp = sub.add_parser("experiment", help="run a named scenario")
    p_exp.add_argument("name")
    p_exp.add_argument("--out", required=True)
    p_exp.add_argument("--param", action="append", help="key=value (comma lists ok)")
    p_exp.set_defaults(func=cmd_experiment)

    p_render = sub.add_parser("render", help="render a grid/mask/measures to SVG")
    p_render.add_argument("--problem", required=True)
    p_render.add_argument("--set", default=None)
    p_render.add_argument("--out", required=True)
    p_render.set_defaults(func=cmd_render)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except NonSubmodularError as e:
        report = e.report
        payload = {
            "error": "non-submodular energy",
            "violations": [
                {
                    "face": v.face,
                    "margin": v.margin,
                }
                for v in report.violations
            ],
        }
        sys.stderr.write(dumps_json(payload))
        return EXIT_SOLVER
    except (ExhaustiveCapacityExceeded, RecursionError, AssertionError) as e:
        sys.stderr.write(f"error: {e}\n")
        return EXIT_SOLVER
    except MemoryError:
        sys.stderr.write("error: out of memory\n")
        return EXIT_SOLVER
    except (
        CliInputError,
        ProblemFileError,
        EmptyClassError,
        MeasureSupportError,
        ValueError,
        FileNotFoundError,
    ) as e:
        sys.stderr.write(f"error: {e}\n")
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
