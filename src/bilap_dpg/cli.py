"""Study driver: convergence experiments and trace-lab tables as CSV.

Two subcommands::

    bilap-dpg study    --problem smooth|singular --scheme 1|2
                       --refine uniform|adaptive [--theta T]
                       [--levels N | --max-dofs M]
                       [--field-degree P] [--test-degree K]
                       [--output FILE] [--config FILE]

    bilap-dpg tracelab --mode dirac|unbounded|norm-identity
                       [--eps-min-pow A --eps-max-pow B]
                       [--n-list "1,10,100"] [--degrees "4:8"]
                       [--output FILE] [--config FILE]

Uniform refinement of the smooth problem walks the nested structured
unit-square meshes (n doubling per level); everything else refines by
newest-vertex bisection.  Options may also come from a plain ``key=value``
config file; command-line flags take precedence over the file, which
takes precedence over the defaults.  Exit codes: 0 success, 1 usage
error (including a missing or malformed config file, an unknown option,
a value that does not parse or is out of range, and an output file in a
missing directory; all found before any work), 2 numerical failure.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass

from bilap_dpg import problems, trace_lab
from bilap_dpg.forms import Formulation, FormsError
from bilap_dpg.linsolve import LinearSolveError
from bilap_dpg.mesh import MeshError, make_unit_square, refine_nvb
from bilap_dpg.dpg_solver import SolverError, adaptive_loop, solve_and_record

STUDY_HEADER = "level,ndof_total,ndof_field,h_max,eta,err_u,err_sigma,solve_seconds"


class UsageError(Exception):
    """Invalid configuration."""


@dataclass(frozen=True)
class StudyConfig:
    problem: str = "smooth"
    scheme: int = 2
    refine: str = "uniform"
    theta: float = 0.5
    levels: int = 5
    max_dofs: int = 10000
    field_degree: int = 0
    test_degree: int = 4
    output: str = "study.csv"

    def __post_init__(self):
        if self.problem not in ("smooth", "singular"):
            raise UsageError(f"unknown problem {self.problem!r}")
        if self.scheme not in (1, 2):
            raise UsageError(f"scheme must be 1 or 2, got {self.scheme}")
        if self.refine not in ("uniform", "adaptive"):
            raise UsageError(f"unknown refinement mode {self.refine!r}")
        if not 0.0 < self.theta <= 1.0:
            raise UsageError(f"theta must be in (0, 1], got {self.theta}")
        if self.levels < 1:
            raise UsageError("levels must be positive")
        if self.max_dofs < 1:
            raise UsageError("max_dofs must be positive")
        if self.field_degree < 0:
            raise UsageError("field degree must be nonnegative")
        if self.test_degree < self.field_degree + 2:
            raise UsageError("test degree must be at least field degree + 2")


def _fmt(x):
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


def write_csv(path, header, rows):
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def run_study(config):
    """Run a refinement study and write one CSV row per level."""
    problem = (
        problems.smooth_problem()
        if config.problem == "smooth"
        else problems.singular_problem()
    )
    formulation = Formulation(
        scheme=config.scheme,
        field_degree=config.field_degree,
        test_degree=config.test_degree,
    )

    if config.refine == "adaptive":
        records = adaptive_loop(
            problem.make_domain(), formulation, problem, config.theta, config.max_dofs
        )
    elif config.problem == "smooth":
        # nested structured meshes, n doubling from 2
        records = []
        for level in range(config.levels):
            mesh = make_unit_square(2 * 2**level)
            record, _, _ = solve_and_record(mesh, formulation, problem, level)
            records.append(record)
    else:
        # uniform newest-vertex bisection of the sector
        mesh = problem.make_domain()
        records = []
        for level in range(config.levels):
            record, _, _ = solve_and_record(mesh, formulation, problem, level)
            records.append(record)
            mesh = refine_nvb(mesh, range(mesh.num_triangles))

    rows = [
        (
            r.level,
            r.ndof_total,
            r.ndof_field,
            r.h_max,
            r.eta,
            r.err_u,
            r.err_sigma,
            r.solve_seconds,
        )
        for r in records
    ]
    write_csv(config.output, STUDY_HEADER, rows)
    return records


def run_tracelab(mode, params):
    """Run one trace-lab experiment and write its CSV table.

    ``params`` holds parsed values, keyed as in ``_TRACELAB_TYPES``;
    missing ones take ``_TRACELAB_DEFAULTS``.
    """
    params = {**_TRACELAB_DEFAULTS, **params}
    output = params["output"]
    if mode == "dirac":
        lo, hi = params["eps_min_pow"], params["eps_max_pow"]
        study = trace_lab.dirac_convergence_study(
            eps_list=[2.0**-k for k in range(lo, hi + 1)]
        )
        rows = [(e, err, study.slope) for e, err in zip(study.eps, study.error)]
        write_csv(output, "eps,error,slope", rows)
        return study
    if mode == "unbounded":
        rows = trace_lab.unboundedness_demo(params["n_list"])
        write_csv(output, "n,corner_value,l2_norm", rows)
        return rows
    if mode == "norm-identity":
        lo, hi = params["degrees"]
        rows = []
        for degree in range(lo, hi + 1):
            duality, extension = trace_lab.norm_identity_check(
                trace_lab.REFERENCE_TRIANGLE,
                trace_lab.Poly2.monomial(2, 1),
                degree,
                degree,
            )
            gap = (extension - duality) / extension if extension > 0 else 0.0
            rows.append((degree, duality, extension, gap))
        write_csv(output, "degree,duality_norm,extension_norm,gap", rows)
        return rows
    raise UsageError(f"unknown tracelab mode {mode!r}")


def read_config_file(path):
    """Plain ASCII key=value option file; '#' starts a comment."""
    options = {}
    try:
        with open(path, "rb") as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise UsageError(f"{path}: cannot read config file: {exc.strerror}") from None
    for lineno, raw in enumerate(lines, 1):
        try:
            line = raw.decode("ascii")
        except UnicodeDecodeError:
            raise UsageError(f"{path}:{lineno}: non-ASCII byte") from None
        text = line.split("#", 1)[0].strip()
        if not text:
            continue
        if "=" not in text:
            raise UsageError(f"{path}:{lineno}: expected key=value")
        key, value = (part.strip() for part in text.split("=", 1))
        options[key.replace("-", "_")] = value
    return options


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors; the contract is 1
    def error(self, message):
        self.print_usage(sys.stderr)
        raise UsageError(message)


def build_parser():
    parser = _Parser(prog="bilap-dpg", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    study = sub.add_parser("study", help="convergence study -> CSV")
    study.add_argument("--problem", choices=["smooth", "singular"])
    study.add_argument("--scheme", type=int, choices=[1, 2])
    study.add_argument("--refine", choices=["uniform", "adaptive"])
    study.add_argument("--theta", type=float)
    study.add_argument("--levels", type=int)
    study.add_argument("--max-dofs", type=int, dest="max_dofs")
    study.add_argument("--field-degree", type=int, dest="field_degree")
    study.add_argument("--test-degree", type=int, dest="test_degree")
    study.add_argument("--output")
    study.add_argument("--config")

    lab = sub.add_parser("tracelab", help="trace-space experiment -> CSV")
    lab.add_argument("--mode", choices=["dirac", "unbounded", "norm-identity"])
    lab.add_argument("--eps-min-pow", type=int, dest="eps_min_pow")
    lab.add_argument("--eps-max-pow", type=int, dest="eps_max_pow")
    lab.add_argument("--n-list", dest="n_list")
    lab.add_argument("--degrees")
    lab.add_argument("--output")
    lab.add_argument("--config")
    return parser


def _int_list(text):
    return tuple(int(v) for v in text.split(","))


def _int_range(text):
    lo, hi = (int(v) for v in text.split(":"))
    return lo, hi


_STUDY_TYPES = {
    "problem": str,
    "scheme": int,
    "refine": str,
    "theta": float,
    "levels": int,
    "max_dofs": int,
    "field_degree": int,
    "test_degree": int,
    "output": str,
}

_TRACELAB_TYPES = {
    "mode": str,
    "eps_min_pow": int,
    "eps_max_pow": int,
    "n_list": _int_list,
    "degrees": _int_range,
    "output": str,
}

_TRACELAB_DEFAULTS = dict(
    eps_min_pow=2, eps_max_pow=10, n_list=(1, 10, 100, 1000), degrees=(4, 8),
    output="tracelab.csv",
)


def _merge_options(args, types, command):
    """Config file, then flags over it, each value parsed by ``types``.

    A usage error names where the offending option came from: the config
    file or the flag.
    """
    options = {}
    if args.config:
        for key, value in read_config_file(args.config).items():
            options[key] = (value, args.config)
    for name in types:
        flag = getattr(args, name, None)
        if flag is not None:
            options[name] = (flag, "--" + name.replace("_", "-"))
    parsed = {}
    for key, (value, origin) in options.items():
        if key not in types:
            raise UsageError(f"{origin}: unknown {command} option {key!r}")
        try:
            parsed[key] = types[key](value)
        except ValueError:
            raise UsageError(f"{origin}: invalid {key} value {value!r}") from None
    return parsed


def _check_tracelab(params):
    """Out-of-range tracelab values, as usage errors before any work."""
    n_list = params["n_list"]
    if min(n_list) < 1:
        raise UsageError(f"--n-list values must be at least 1, got {','.join(map(str, n_list))}")
    lo, hi = params["degrees"]
    if not 4 <= lo <= hi:
        raise UsageError(f"--degrees must be lo:hi with 4 <= lo <= hi, got {lo}:{hi}")
    lo, hi = params["eps_min_pow"], params["eps_max_pow"]
    if not 2 <= lo <= hi:
        raise UsageError(
            f"--eps-min-pow and --eps-max-pow must satisfy 2 <= min <= max, got {lo}, {hi}"
        )


def _check_output_dir(path):
    """A missing output directory is a usage error, found before any work."""
    folder = os.path.dirname(path) or "."
    if not os.path.isdir(folder):
        raise UsageError(f"--output {path}: directory {folder} does not exist")


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"bilap-dpg: error: {exc}", file=sys.stderr)
        return 1
    try:
        if args.command == "study":
            config = StudyConfig(**_merge_options(args, _STUDY_TYPES, "study"))
            _check_output_dir(config.output)
            records = run_study(config)
            print(f"wrote {len(records)} levels to {config.output}")
            return 0
        params = {**_TRACELAB_DEFAULTS, **_merge_options(args, _TRACELAB_TYPES, "tracelab")}
        mode = params.pop("mode", None)
        if mode is None:
            raise UsageError("tracelab requires --mode")
        _check_tracelab(params)
        _check_output_dir(params["output"])
        run_tracelab(mode, params)
        print(f"wrote {params['output']}")
        return 0
    except UsageError as exc:
        print(f"bilap-dpg: error: {exc}", file=sys.stderr)
        return 1
    except (MeshError, FormsError, SolverError, LinearSolveError, ValueError) as exc:
        print(f"bilap-dpg: numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
