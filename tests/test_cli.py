import json
import os
import subprocess
import sys
from dataclasses import astuple, fields
from pathlib import Path

import numpy as np
import pytest

from bilap_dpg import cli, dpg_solver, forms
from bilap_dpg.cli import (
    STUDY_HEADER,
    StudyConfig,
    TracelabConfig,
    UsageError,
    main,
    parse_config,
    read_config_file,
    run_study,
    run_tracelab,
)
from bilap_dpg.dpg_solver import StudyRecord
from bilap_dpg.forms import FormsError
from bilap_dpg.linsolve import LinearSolveError
from bilap_dpg.mesh import refine_nvb


def _read_rows(path):
    lines = path.read_text().strip().splitlines()
    return lines[0], [line.split(",") for line in lines[1:]]


def test_study_smooth_writes_csv(tmp_path):
    out = tmp_path / "smooth.csv"
    code = main(
        [
            "study",
            "--problem", "smooth",
            "--scheme", "2",
            "--refine", "uniform",
            "--levels", "3",
            "--output", str(out),
        ]
    )
    assert code == 0
    header, rows = _read_rows(out)
    assert header == STUDY_HEADER
    assert header == "level,ndof_total,ndof_field,h_max,eta,err_u,err_sigma,solve_seconds"
    assert len(rows) == 3
    eta = [float(r[4]) for r in rows]
    h = [float(r[3]) for r in rows]
    assert all(v >= 0 for v in eta)
    assert all(b <= a for a, b in zip(h, h[1:]))  # h_max nonincreasing


def test_study_deterministic_numeric_columns(tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    base = ["study", "--problem", "smooth", "--scheme", "1", "--refine",
            "uniform", "--levels", "2"]
    assert main(base + ["--output", str(out1)]) == 0
    assert main(base + ["--output", str(out2)]) == 0
    _, rows1 = _read_rows(out1)
    _, rows2 = _read_rows(out2)
    # every column except the timing column is bit-identical
    for r1, r2 in zip(rows1, rows2):
        assert r1[:7] == r2[:7]


def test_study_adaptive_singular_small(tmp_path):
    out = tmp_path / "sing.csv"
    code = main(
        [
            "study",
            "--problem", "singular",
            "--scheme", "2",
            "--refine", "adaptive",
            "--theta", "0.5",
            "--max-dofs", "400",
            "--output", str(out),
        ]
    )
    assert code == 0
    _, rows = _read_rows(out)
    assert int(rows[-1][1]) > 400  # stopped after exceeding max dofs
    assert len(rows) >= 3


@pytest.mark.parametrize("scheme", [1, 2])
def test_study_adaptive_smooth_starts_from_the_uniform_level_0(tmp_path, scheme):
    out = tmp_path / "smooth.csv"
    code = main(["study", "--problem", "smooth", "--scheme", str(scheme), "--refine",
                 "adaptive", "--max-dofs", "2000", "--output", str(out)])
    assert code == 0
    _, rows = _read_rows(out)
    assert len(rows) >= 6
    if scheme == 2:  # scheme 1's eta is not monotone
        eta = [float(r[4]) for r in rows]
        assert all(b < a for a, b in zip(eta, eta[1:])), eta


def test_unknown_flag_exits_one(capsys):
    assert main(["study", "--nope", "1"]) == 1
    err = capsys.readouterr().err
    assert "usage" in err.lower()


def test_missing_subcommand_exits_one():
    assert main([]) == 1


def test_invalid_theta_exits_one(capsys):
    code = main(["study", "--problem", "smooth", "--theta", "1.5"])
    assert code == 1
    assert "theta" in capsys.readouterr().err


def test_numerical_failure_exits_two(capsys):
    # adaptive run whose dof budget is below the initial mesh size
    code = main(
        ["study", "--problem", "singular", "--refine", "adaptive", "--max-dofs", "10"]
    )
    assert code == 2
    assert "numerical failure" in capsys.readouterr().err


def test_negative_field_degree_exits_one(capsys):
    assert main(["study", "--field-degree", "-1", "--levels", "1"]) == 1
    assert "field degree" in capsys.readouterr().err


def test_nonpositive_max_dofs_exits_one(capsys):
    code = main(
        ["study", "--problem", "singular", "--refine", "adaptive", "--max-dofs", "0"]
    )
    assert code == 1
    assert "max_dofs" in capsys.readouterr().err


def test_config_file_and_flag_precedence(tmp_path):
    cfg = tmp_path / "study.cfg"
    cfg.write_text(
        "problem = smooth\nscheme = 1\nrefine = uniform\nlevels = 4  # comment\n"
    )
    out = tmp_path / "out.csv"
    code = main(
        ["study", "--config", str(cfg), "--levels", "2", "--output", str(out)]
    )
    assert code == 0
    _, rows = _read_rows(out)
    assert len(rows) == 2  # flag wins over the file's 4


def test_config_file_keeps_each_keys_line(tmp_path):
    cfg = tmp_path / "study.cfg"
    cfg.write_text("# header\nscheme = 1\n\nmax-dofs = 500  # budget\nscheme = 2\n")
    assert read_config_file(cfg) == {"scheme": ("2", 5), "max_dofs": ("500", 4)}


def test_config_file_parsing_errors(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("this is not a key value pair\n")
    with pytest.raises(UsageError):
        read_config_file(bad)


@pytest.mark.parametrize(
    "content, flags, key",
    [
        (b"levels = abc\n", [], "levels"),
        (b"scheme = 2  # \xce\xb8\n", [], ":1: non-ASCII"),
        (None, [], "cannot read config file"),
        (b"scheme = 1\n", ["--scheme", "3"], "--scheme: invalid scheme value '3' (allowed: 1, 2)"),
        (b"", ["--problem", "poisson"],
         "--problem: invalid problem value 'poisson' (allowed: smooth, singular)"),
        (b"levels = 2\ntheta = 1.5\n", [], "study.cfg:2: theta must be in (0, 1], got 1.5"),
        (b"# degrees\nfield_degree = 3\n", ["--test-degree", "4"],
         "study.cfg:2, --test-degree: test degree must be at least field degree + 2"),
    ],
    ids=["unparsable-value", "non-ascii-byte", "missing-file", "scheme-flag-not-allowed",
         "problem-flag-not-allowed", "theta-line", "degrees-file-and-flag"],
)
def test_study_config_file_errors_exit_one(tmp_path, capsys, content, flags, key):
    cfg = tmp_path / "study.cfg"
    if content is not None:
        cfg.write_bytes(content)
    assert main(["study", "--config", str(cfg), *flags]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert key in err
    if not flags:
        assert str(cfg) in err


@pytest.mark.parametrize(
    "flags, config, option",
    [
        (["--mode", "norm-identity", "--degrees", "4"], None, "--degrees"),
        (["--mode", "unbounded", "--n-list", "1,x"], None, "--n-list"),
        ([], "mode = dirac\neps_min_pow = abc\n", "eps_min_pow"),
        ([], "mode = dirac\neps_minpow = 3\n", "unknown tracelab option 'eps_minpow'"),
        (["--mode", "unbounded", "--n-list", "0,-1"], None, "--n-list"),
        (["--mode", "norm-identity", "--degrees", "0:1"], None, "--degrees"),
        (["--mode", "norm-identity", "--degrees", "6:5"], None, "--degrees"),
        (["--mode", "dirac", "--eps-min-pow", "5", "--eps-max-pow", "3"], None, "--eps-min-pow"),
        (["--mode", "dirac", "--eps-min-pow", "12"], None,
         "--eps-min-pow: eps_min_pow and eps_max_pow must satisfy"),
        ([], "mode = bogus\n",
         "invalid mode value 'bogus' (allowed: dirac, unbounded, norm-identity)"),
        ([], "mode = dirac\neps_min_pow = 12\n",
         "lab.cfg:2: eps_min_pow and eps_max_pow must satisfy 2 <= min <= max, got 12, 10"),
        (["--eps-max-pow", "3"], "mode = dirac\n\neps_min_pow = 5\n",
         "lab.cfg:3, --eps-max-pow: eps_min_pow and eps_max_pow must satisfy"),
        ([], "# lab\nmode = bogus\n", "lab.cfg:2: invalid mode value 'bogus'"),
        ([], "mode = unbounded\nn_list = 0,5\n", "lab.cfg:2: n_list values must be at least 1"),
    ],
    ids=["degrees", "n-list", "config-value", "unknown-config-key", "n-below-1",
         "degrees-below-4", "degrees-reversed", "eps-reversed", "eps-above-default-max",
         "mode-not-allowed", "eps-line", "eps-file-and-flag", "mode-line", "n-list-line"],
)
def test_tracelab_option_errors_exit_one(tmp_path, capsys, flags, config, option):
    out = tmp_path / "t.csv"
    argv = ["tracelab", *flags, "--output", str(out)]
    if config is not None:
        cfg = tmp_path / "lab.cfg"
        cfg.write_text(config)
        argv += ["--config", str(cfg)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert option in err and "numerical failure" not in err
    if config is not None:
        assert str(tmp_path / "lab.cfg") in err
    assert not out.exists()


def _no_work(*args, **kwargs):
    raise AssertionError("work started despite a usage error")


def test_study_output_in_missing_directory_exits_one_before_the_study(
    tmp_path, capsys, monkeypatch
):
    monkeypatch.setattr(cli, "solve_and_record", _no_work)
    out = tmp_path / "missing" / "x.csv"
    assert main(["study", "--levels", "1", "--output", str(out)]) == 1
    err = capsys.readouterr().err
    assert str(out) in err and "does not exist" in err
    assert err.count("\n") == 1


def test_study_output_naming_a_directory_exits_one_before_the_study(
    tmp_path, capsys, monkeypatch
):
    monkeypatch.setattr(cli, "solve_and_record", _no_work)
    assert main(["study", "--levels", "2", "--output", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err == f"bilap-dpg: error: --output: output {tmp_path} is a directory\n"


@pytest.mark.parametrize(
    "command", [["study"], ["tracelab", "--mode", "dirac"]], ids=["study", "tracelab"]
)
def test_empty_output_exits_one_before_any_work(command, capsys, monkeypatch):
    # an empty path used to run the whole job and then fail in write_csv
    monkeypatch.setattr(cli, "solve_and_record", _no_work)
    monkeypatch.setattr(cli, "run_tracelab", _no_work)
    assert main(command + ["--output", ""]) == 1
    assert capsys.readouterr().err == "bilap-dpg: error: --output: output is empty\n"


@pytest.mark.parametrize(
    "command", [["study"], ["tracelab", "--mode", "dirac"]], ids=["study", "tracelab"]
)
@pytest.mark.parametrize("case", ["missing", "directory", "empty"])
def test_output_error_names_its_config_line(tmp_path, command, case, capsys, monkeypatch):
    # the output path comes from line 2 of the file, not from --output
    monkeypatch.setattr(cli, "solve_and_record", _no_work)
    monkeypatch.setattr(cli, "run_tracelab", _no_work)
    path, message = {
        "missing": (tmp_path / "missing" / "x.csv",
                    f"output {tmp_path / 'missing' / 'x.csv'}: "
                    f"directory {tmp_path / 'missing'} does not exist"),
        "directory": (tmp_path, f"output {tmp_path} is a directory"),
        "empty": ("", "output is empty"),
    }[case]
    cfg = tmp_path / "c.cfg"
    cfg.write_text(f"# output\noutput = {path}\n")
    assert main(command + ["--config", str(cfg)]) == 1
    assert capsys.readouterr().err == f"bilap-dpg: error: {cfg}:2: {message}\n"


def _fail_at_call(monkeypatch, owner, name, call, error):
    """Make the `call`-th call of owner.name raise `error`; return the
    list of the first arguments of its calls."""
    real = getattr(owner, name)
    firsts = []

    def failing(first, *args, **kwargs):
        firsts.append(first)
        if len(firsts) == call:
            raise error
        return real(first, *args, **kwargs)

    monkeypatch.setattr(owner, name, failing)
    return firsts


def test_uniform_study_failure_names_its_level(tmp_path, capsys, monkeypatch):
    # the second level's sparse solve fails (the 4x4 square, 32 triangles)
    _fail_at_call(monkeypatch, dpg_solver, "sparse_spd_solve", 2,
                  LinearSolveError("normal-equation residual nan above tolerance"))
    assert main(["study", "--levels", "3", "--output", str(tmp_path / "s.csv")]) == 2
    assert capsys.readouterr().err == (
        "bilap-dpg: numerical failure: level 1 (32 triangles): "
        "normal-equation residual nan above tolerance\n"
    )


def test_adaptive_study_local_failure_names_its_level(tmp_path, capsys, monkeypatch):
    # the third level's local systems fail, after two adaptive refinements
    meshes = _fail_at_call(monkeypatch, forms, "build_local_systems", 3,
                           FormsError("degenerate element 0"))
    argv = ["study", "--problem", "singular", "--refine", "adaptive"]
    assert main(argv + ["--output", str(tmp_path / "s.csv")]) == 2
    n = meshes[2].num_triangles
    assert capsys.readouterr().err == (
        f"bilap-dpg: numerical failure: level 2 ({n} triangles): degenerate element 0\n"
    )


@pytest.mark.parametrize("levels", [1, 3])
def test_uniform_sector_study_refines_only_between_levels(tmp_path, monkeypatch, levels):
    calls = []

    def refine(mesh, marked):
        calls.append(mesh.num_triangles)
        return refine_nvb(mesh, marked)

    def record(mesh, formulation, problem, level):
        return StudyRecord(level, mesh.num_triangles, 0, 0.0, 0.0, 0.0, 0.0, 0.0), None, None

    monkeypatch.setattr(cli, "refine_nvb", refine)
    monkeypatch.setattr(cli, "solve_and_record", record)
    out = tmp_path / "sector.csv"
    argv = ["study", "--problem", "singular", "--refine", "uniform", "--levels", str(levels)]
    assert main(argv + ["--output", str(out)]) == 0
    assert len(calls) == levels - 1
    _, rows = _read_rows(out)
    sizes = [int(r[1]) for r in rows]  # each level's triangle count, from the stub
    assert sizes[0] == 5 and sizes[:-1] == calls
    assert all(a < b for a, b in zip(sizes, sizes[1:]))


@pytest.mark.parametrize(
    "argv, flag, rejected, accepted",
    [
        (["study"], "--test-degree", "30", "29"),
        (["tracelab", "--mode", "norm-identity"], "--degrees", "4:30", "4:29"),
        (["tracelab", "--mode", "dirac"], "--eps-max-pow", "512", "511"),
        (["tracelab", "--mode", "unbounded"], "--n-list", f"1,{2**63}", f"1,{2**63 - 1}"),
    ],
    ids=["test-degree", "degrees", "eps-max-pow", "n-list"],
)
def test_values_above_the_upper_bounds_exit_one_before_any_work(
    tmp_path, capsys, monkeypatch, argv, flag, rejected, accepted
):
    # test degrees up to 29, where reference_tables asks the triangle
    # rule for exactness 60; eps = 2^-k up to k = 511, where eps^2 is
    # still a normal float64; n up to the largest int64
    monkeypatch.setattr(cli, "run_study", _no_work)
    monkeypatch.setattr(cli, "run_tracelab", _no_work)
    out = tmp_path / "x.csv"
    assert main([*argv, flag, rejected, "--output", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith(f"bilap-dpg: error: {flag}: ")
    assert err.endswith(f"got {rejected.split(',')[-1]}\n")
    parse_config([*argv, flag, accepted])


@pytest.mark.parametrize(
    "flags",
    [["--mode", "dirac", "--eps-min-pow", "510", "--eps-max-pow", "511"],
     ["--mode", "unbounded", "--n-list", str(2**63 - 1)],
     ["--mode", "norm-identity", "--degrees", "29:29"]],
    ids=["eps-max-pow", "n-list", "degrees"],
)
def test_tracelab_at_the_largest_accepted_values_writes_finite_rows(tmp_path, flags):
    out = tmp_path / "t.csv"
    assert main(["tracelab", *flags, "--output", str(out)]) == 0
    _, rows = _read_rows(out)
    assert np.all(np.isfinite(np.array(rows, dtype=float)))


def test_tracelab_output_in_missing_directory_exits_one(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "run_tracelab", _no_work)
    out = tmp_path / "missing" / "t.csv"
    assert main(["tracelab", "--mode", "unbounded", "--output", str(out)]) == 1
    err = capsys.readouterr().err
    assert str(out) in err and "does not exist" in err


def test_tracelab_output_naming_a_directory_exits_one(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "run_tracelab", _no_work)
    assert main(["tracelab", "--mode", "unbounded", "--output", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err == f"bilap-dpg: error: --output: output {tmp_path} is a directory\n"


def test_tracelab_mode_flag_wins_over_config(tmp_path):
    cfg = tmp_path / "lab.cfg"
    cfg.write_text("mode = dirac\nn_list = 1,10\n")
    out = tmp_path / "unb.csv"
    assert main(["tracelab", "--config", str(cfg), "--mode", "unbounded",
                 "--output", str(out)]) == 0
    header, rows = _read_rows(out)
    assert header == "n,corner_value,l2_norm"
    assert [r[0] for r in rows] == ["1", "10"]


def test_study_config_validation():
    with pytest.raises(UsageError):
        StudyConfig(problem="poisson")
    with pytest.raises(UsageError):
        StudyConfig(scheme=3)
    with pytest.raises(UsageError):
        StudyConfig(theta=0.0)
    with pytest.raises(UsageError):
        StudyConfig(field_degree=2, test_degree=3)


def test_tracelab_dirac(tmp_path):
    out = tmp_path / "dirac.csv"
    code = main(
        ["tracelab", "--mode", "dirac", "--eps-min-pow", "2",
         "--eps-max-pow", "6", "--output", str(out)]
    )
    assert code == 0
    header, rows = _read_rows(out)
    assert header == "eps,error,slope"
    slopes = {float(r[2]) for r in rows}
    assert len(slopes) == 1
    assert slopes.pop() >= 0.40


def test_tracelab_unbounded(tmp_path):
    out = tmp_path / "unb.csv"
    code = main(
        ["tracelab", "--mode", "unbounded", "--n-list", "1,10,100,1000",
         "--output", str(out)]
    )
    assert code == 0
    header, rows = _read_rows(out)
    assert header == "n,corner_value,l2_norm"
    vals = [float(r[1]) for r in rows]
    assert vals == pytest.approx([0.0, -2.302585, -4.60517, -6.907755], abs=1e-5)


def test_tracelab_norm_identity(tmp_path):
    out = tmp_path / "ni.csv"
    code = main(
        ["tracelab", "--mode", "norm-identity", "--degrees", "4:6",
         "--output", str(out)]
    )
    assert code == 0
    header, rows = _read_rows(out)
    assert header == "degree,duality_norm,extension_norm,gap"
    gaps = [float(r[3]) for r in rows]
    for lo, hi in zip(gaps, gaps[1:]):
        assert hi <= lo * 1.05 + 1e-12  # nonincreasing within 5%


def test_tracelab_requires_mode():
    assert main(["tracelab"]) == 1


def test_run_study_returns_records(tmp_path):
    config = StudyConfig(
        problem="smooth", scheme=2, refine="uniform", levels=2,
        output=str(tmp_path / "r.csv"),
    )
    records = run_study(config)
    assert len(records) == 2
    assert records[0].ndof_total < records[1].ndof_total


def test_run_tracelab_rejects_unknown_mode(tmp_path):
    with pytest.raises(UsageError, match="allowed: dirac, unbounded, norm-identity"):
        TracelabConfig(mode="bogus", output=str(tmp_path / "x.csv"))


# a valid value other than the default for every config field
_FIELD_VALUES = {
    "study": dict(problem="singular", scheme="1", refine="adaptive", theta="0.25",
                  levels="3", max_dofs="500", field_degree="1", test_degree="5",
                  output="s.csv"),
    "tracelab": dict(mode="unbounded", eps_min_pow="3", eps_max_pow="7", n_list="1,10",
                     degrees="4:6", output="t.csv"),
}


@pytest.mark.parametrize(
    "command, name",
    [(command, name) for command, values in _FIELD_VALUES.items() for name in values],
)
def test_flag_and_config_key_build_the_same_config(tmp_path, command, name):
    cls = {"study": StudyConfig, "tracelab": TracelabConfig}[command]
    defaults = {f.name: f.default for f in fields(cls)}
    assert set(_FIELD_VALUES[command]) == set(defaults)
    value = _FIELD_VALUES[command][name]
    base = ["--mode", "dirac"] if command == "tracelab" and name != "mode" else []
    cfg = tmp_path / "c.cfg"
    cfg.write_text(f"{name} = {value}\n")
    flag = "--" + name.replace("_", "-")
    by_flag = parse_config([command, *base, flag, value])
    by_file = parse_config([command, *base, "--config", str(cfg)])
    assert by_flag == by_file == (command, by_flag[1])
    assert getattr(by_flag[1], name) != defaults[name]


_IMPORT_GUARD = """
import json, sys
import bilap_dpg.cli as cli
heavy = [m for m in ("scipy.integrate", "scipy.optimize", "scipy.special")
         if m in sys.modules]
before = set(sys.modules)
cli.run_study(cli.StudyConfig(scheme=2, levels=2, output=sys.argv[1]))
print(json.dumps({"heavy": heavy, "added": sorted(set(sys.modules) - before)}))
"""


def test_import_path_stays_light_and_study_imports_nothing(tmp_path):
    # The package's import cost is paid by every CLI invocation: keep
    # scipy.integrate (which loads scipy.optimize and scipy.special) off it,
    # and keep the study from deferring any import into its own run time.
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_GUARD, str(tmp_path / "s.csv")],
        env=env, capture_output=True, text=True, timeout=300, check=True,
    )
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    assert report == {"heavy": [], "added": []}


# (level, ndof_total, ndof_field, h_max, eta, err_u, err_sigma) of three
# small studies: the counts and h_max are exact, the rest agree to 1e-9
# relative (one BLAS thread)
_PINNED_STUDIES = {
    "smooth-s2-uniform": (
        dict(problem="smooth", scheme=2, refine="uniform", levels=4), [
        (0, 69, 16, 0.7071067811865476,
         0.05897230779097696, 0.0015873013300159123, 0.0524479212642184),
        (1, 253, 64, 0.3535533905932738,
         0.03760943774237304, 0.0007229295051011082, 0.029290381798877607),
        (2, 981, 256, 0.1767766952966369,
         0.020198384780559787, 0.0002931827771319993, 0.01491130188985864),
        (3, 3877, 1024, 0.08838834764831845,
         0.010061828015083842, 0.0001246320557017073, 0.007438080507926032),
    ]),
    "singular-s2-adaptive": (
        dict(problem="singular", scheme=2, refine="adaptive", max_dofs=2000), [
        (0, 46, 10, 1.0,
         1.697289599969088, 0.5033690747892793, 1.0744593741608583),
        (1, 99, 24, 1.0,
         1.2676050725776424, 0.323660013943168, 0.8286686317563662),
        (2, 152, 38, 1.0,
         1.1610369061101442, 0.3093686657002828, 0.6763121840933463),
        (3, 183, 46, 0.7653668647301796,
         0.9941790748553495, 0.304085301941512, 0.5873429447658403),
        (4, 267, 68, 0.7653668647301796,
         0.8766598372401245, 0.2836802807579629, 0.5028735473220698),
        (5, 351, 90, 0.7368128791039503,
         0.7188777542559021, 0.23882380521052757, 0.4350995879864862),
        (6, 494, 128, 0.5,
         0.5945561022194977, 0.1808836285476336, 0.3567094439712296),
        (7, 727, 190, 0.5,
         0.5086873257799794, 0.17110742912700974, 0.2998272263513821),
        (8, 983, 258, 0.5,
         0.42670461109274693, 0.14685110886953534, 0.2508952436097897),
        (9, 1333, 350, 0.5,
         0.3686114686787821, 0.13090731923952334, 0.21796352310283867),
        (10, 1710, 450, 0.36840643955197516,
         0.3089276711940369, 0.1109137923335797, 0.18432224125562682),
        (11, 2312, 610, 0.25000000000000006,
         0.2621737322164984, 0.09113259495394922, 0.15531362046652644),
    ]),
    "smooth-s1-p1-uniform": (
        dict(problem="smooth", scheme=1, refine="uniform", levels=4, field_degree=1), [
        (0, 78, 48, 0.7071067811865476,
         1.4073641005159, 0.0013131406482221916, 0.03336578791417007),
        (1, 294, 192, 0.3535533905932738,
         0.69490903881152, 0.0004048689446512526, 0.016150987724612067),
        (2, 1158, 768, 0.1767766952966369,
         0.35519006596579833, 0.0001103062882207464, 0.010814144425753494),
        (3, 4614, 3072, 0.08838834764831845,
         0.17926888305967073, 2.7358550873264384e-05, 0.009453316926677023),
    ]),
}


@pytest.mark.parametrize("name", list(_PINNED_STUDIES))
def test_small_study_outputs_are_pinned(tmp_path, name):
    overrides, want = _PINNED_STUDIES[name]
    records = run_study(StudyConfig(**overrides, output=str(tmp_path / "s.csv")))
    got = [astuple(r)[:7] for r in records]
    assert [row[:4] for row in got] == [row[:4] for row in want]
    for row, pinned in zip(got, want):
        assert row[4:] == pytest.approx(pinned[4:], rel=1e-9, abs=0.0)
