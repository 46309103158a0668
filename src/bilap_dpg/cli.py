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
newest-vertex bisection.

Each subcommand's options are the fields of one frozen config class,
``StudyConfig`` or ``TracelabConfig``: a field ``max_dofs`` is the flag
``--max-dofs`` and the config-file key ``max_dofs`` (or ``max-dofs``),
with the field's default, value parser, allowed values and checks.
Options may also come from a plain ``key=value`` config file;
command-line flags take precedence over the file, which takes
precedence over the defaults.  Exit codes: 0 success, 1 usage error
(including a missing or malformed config file, an unknown option, a
value that does not parse, is not among the allowed values, which the
message lists, or is out of range, and an output path in a missing
directory or naming a directory; all found before any work), 2
numerical failure.  A usage error names where each value at fault came
from: FILE:LINE of the config file, or the flag.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import astuple, dataclass, field, fields

import numpy as np

from bilap_dpg import problems, shape, trace_lab
from bilap_dpg.forms import Formulation, FormsError
from bilap_dpg.mesh import MeshError, make_unit_square, refine_nvb
from bilap_dpg.dpg_solver import SolverError, StudyRecord, adaptive_loop, solve_and_record

STUDY_HEADER = ",".join(f.name for f in fields(StudyRecord))

#: eps = 2^-k: the mollifier forms eps^2, a normal float64 up to k = 511
MAX_EPS_POW = int(-np.log2(np.finfo(float).tiny)) // 2
#: the unboundedness demo hands each n to numpy, which reads it as an int64
MAX_N = int(np.iinfo(np.int64).max)


class UsageError(Exception):
    """Invalid configuration; `names` are the config fields at fault."""

    def __init__(self, message, *names):
        super().__init__(message)
        self.names = names


def _int_list(text):
    return tuple(int(v) for v in text.split(","))


def _int_range(text):
    lo, hi = (int(v) for v in text.split(":"))
    return lo, hi


def _option(default, choices=None, parse=None):
    """A config field whose value must be among `choices`, if given, and
    whose flag and file values `parse` reads (default: the default's type)."""
    return field(default=default, metadata={"choices": choices, "parse": parse})


def _allowed(f):
    choices = f.metadata.get("choices")
    return f" (allowed: {', '.join(map(str, choices))})" if choices else ""


def _read(f, text):
    """A flag or config-file value of field f; ValueError if it does not
    parse or is not among the field's choices."""
    value = (f.metadata.get("parse") or type(f.default))(text)
    if f.metadata.get("choices") and value not in f.metadata["choices"]:
        raise ValueError(text)
    return value


def _check_choices(config):
    for f in fields(config):
        value = getattr(config, f.name)
        if f.metadata.get("choices") and value not in f.metadata["choices"]:
            raise UsageError(f"invalid {f.name} value {value!r}{_allowed(f)}", f.name)


def _check_output_dir(path):
    """An empty output path, a missing output directory, or an output path
    that is a directory, is a usage error of the field `output`."""
    if not path:
        raise UsageError("output is empty", "output")
    folder = os.path.dirname(path) or "."
    if not os.path.isdir(folder):
        raise UsageError(f"output {path}: directory {folder} does not exist", "output")
    if os.path.isdir(path):
        raise UsageError(f"output {path} is a directory", "output")


@dataclass(frozen=True)
class StudyConfig:
    problem: str = _option("smooth", ("smooth", "singular"))
    scheme: int = _option(2, (1, 2))
    refine: str = _option("uniform", ("uniform", "adaptive"))
    theta: float = 0.5
    levels: int = 5
    max_dofs: int = 10000
    field_degree: int = 0
    test_degree: int = 4
    output: str = "study.csv"

    def __post_init__(self):
        _check_choices(self)
        if not 0.0 < self.theta <= 1.0:
            raise UsageError(f"theta must be in (0, 1], got {self.theta}", "theta")
        if self.levels < 1:
            raise UsageError("levels must be positive", "levels")
        if self.max_dofs < 1:
            raise UsageError("max_dofs must be positive", "max_dofs")
        if self.field_degree < 0:
            raise UsageError("field degree must be nonnegative", "field_degree")
        if self.test_degree < self.field_degree + 2:
            raise UsageError(
                "test degree must be at least field degree + 2", "field_degree", "test_degree"
            )
        if self.test_degree > shape.MAX_TABLE_DEGREE:
            raise UsageError(
                f"test degree must be at most {shape.MAX_TABLE_DEGREE}, got {self.test_degree}",
                "test_degree",
            )
        _check_output_dir(self.output)


@dataclass(frozen=True)
class TracelabConfig:
    mode: str | None = _option(None, ("dirac", "unbounded", "norm-identity"), str)
    eps_min_pow: int = 2
    eps_max_pow: int = 10
    n_list: tuple = _option((1, 10, 100, 1000), parse=_int_list)
    degrees: tuple = _option((4, 8), parse=_int_range)
    output: str = "tracelab.csv"

    def __post_init__(self):
        if self.mode is None:
            raise UsageError("tracelab requires --mode")
        _check_choices(self)
        if min(self.n_list) < 1:
            raise UsageError(
                f"n_list values must be at least 1, got {','.join(map(str, self.n_list))}",
                "n_list",
            )
        if max(self.n_list) > MAX_N:
            raise UsageError(f"n_list values must be at most {MAX_N}, got {max(self.n_list)}",
                             "n_list")
        lo, hi = self.degrees
        if not 4 <= lo <= hi <= shape.MAX_TABLE_DEGREE:
            raise UsageError(
                f"degrees must be lo:hi with 4 <= lo <= hi <= {shape.MAX_TABLE_DEGREE}, "
                f"got {lo}:{hi}",
                "degrees",
            )
        lo, hi = self.eps_min_pow, self.eps_max_pow
        if not 2 <= lo <= hi:
            raise UsageError(
                f"eps_min_pow and eps_max_pow must satisfy 2 <= min <= max, got {lo}, {hi}",
                "eps_min_pow", "eps_max_pow",
            )
        if hi > MAX_EPS_POW:
            raise UsageError(f"eps_max_pow must be at most {MAX_EPS_POW}, got {hi}",
                             "eps_max_pow")
        _check_output_dir(self.output)


_COMMANDS = {
    "study": (StudyConfig, "convergence study -> CSV"),
    "tracelab": (TracelabConfig, "trace-space experiment -> CSV"),
}


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
            if level:
                mesh = refine_nvb(mesh, range(mesh.num_triangles))
            record, _, _ = solve_and_record(mesh, formulation, problem, level)
            records.append(record)

    write_csv(config.output, STUDY_HEADER, [astuple(r) for r in records])
    return records


def run_tracelab(config):
    """Run one trace-lab experiment and write its CSV table."""
    if config.mode == "dirac":
        lo, hi = config.eps_min_pow, config.eps_max_pow
        study = trace_lab.dirac_convergence_study(
            eps_list=[2.0**-k for k in range(lo, hi + 1)]
        )
        header = "eps,error,slope"
        rows = [(e, err, study.slope) for e, err in zip(study.eps, study.error)]
    elif config.mode == "unbounded":
        header = "n,corner_value,l2_norm"
        rows = trace_lab.unboundedness_demo(config.n_list)
    else:  # norm-identity
        header = "degree,duality_norm,extension_norm,gap"
        rows = []
        lo, hi = config.degrees
        for degree in range(lo, hi + 1):
            # z = x^2 y
            duality, extension = trace_lab.norm_identity_check(
                shape.REFERENCE_VERTICES, (2, 1), degree
            )
            rows.append((degree, duality, extension, (extension - duality) / extension))
    write_csv(config.output, header, rows)


def read_config_file(path):
    """Plain ASCII key=value option file; '#' starts a comment.  Returns
    {key: (value, line number)}."""
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
        options[key.replace("-", "_")] = (value, lineno)
    return options


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors; the contract is 1
    def error(self, message):
        self.print_usage(sys.stderr)
        raise UsageError(message)


def build_parser():
    """One subcommand per config class, one flag per field."""
    parser = _Parser(prog="bilap-dpg", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (cls, help_text) in _COMMANDS.items():
        options = sub.add_parser(command, help=help_text)
        for f in fields(cls):
            choices = f.metadata.get("choices")
            options.add_argument(
                "--" + f.name.replace("_", "-"),
                metavar="{" + ",".join(map(str, choices)) + "}" if choices else None,
            )
        options.add_argument("--config")
    return parser


def parse_config(argv=None):
    """The command and its config: the --config file's values, then the
    flags over them, each read as its field's `_option` says.

    A usage error names where each offending value came from: the
    config file's FILE:LINE or the flag.
    """
    args = build_parser().parse_args(argv)
    cls = _COMMANDS[args.command][0]
    options = {}
    if args.config:
        for key, (text, lineno) in read_config_file(args.config).items():
            options[key] = (text, f"{args.config}:{lineno}")
    known = {f.name: f for f in fields(cls)}
    for name in known:
        if getattr(args, name) is not None:
            options[name] = (getattr(args, name), "--" + name.replace("_", "-"))
    values = {}
    for key, (text, origin) in options.items():
        if key not in known:
            raise UsageError(f"{origin}: unknown {args.command} option {key!r}")
        try:
            values[key] = _read(known[key], text)
        except ValueError:
            raise UsageError(
                f"{origin}: invalid {key} value {text!r}{_allowed(known[key])}"
            ) from None
    try:
        return args.command, cls(**values)
    except UsageError as exc:
        origins = [options[name][1] for name in exc.names if name in options]
        if not origins:
            raise
        raise UsageError(f"{', '.join(origins)}: {exc}") from None


def main(argv=None):
    try:
        command, config = parse_config(argv)
        run = run_study if command == "study" else run_tracelab
        run(config)
        print(f"wrote {config.output}")
        return 0
    except UsageError as exc:
        print(f"bilap-dpg: error: {exc}", file=sys.stderr)
        return 1
    except (MeshError, FormsError, SolverError, ValueError) as exc:
        print(f"bilap-dpg: numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
