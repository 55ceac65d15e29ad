import contextlib
import dataclasses
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lftident import cli, model as model_mod, oracle, testing
from lftident.errors import ModelFormatError
from lftident.model import Dims

# Runs cli.main on each argv of a JSON list in a new interpreter and prints
# the exit codes and whether scipy got imported.
FRESH = """
import json, sys
from lftident import cli
codes = [cli.main(argv) for argv in json.loads(sys.argv[1])]
print(json.dumps({"codes": codes, "scipy": "scipy" in sys.modules}))
"""

# Arguments past --model of one successful run of each subcommand on siso1.
SISO1_RUNS = {
    "validate": [],
    "ident": ["--theta0", "0", "--freqs", "0,1"],
    "find-freqs": ["--theta0", "0"],
    "sloppiness": ["--theta0", "0", "--freqs", "0,1", "--eps", "1e-3"],
    "oracle": ["--theta0", "0", "--freqs", "0,1", "--trials", "10"],
}


def run(args, capsys):
    code = cli.main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def parse(out):
    return json.loads(out)


def run_fresh(argvs):
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", FRESH, json.dumps(argvs)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_version(capsys):
    code = cli.main(["--version"])
    assert code == 0


def test_usage_error_no_args(capsys):
    assert cli.main([]) == cli.EXIT_USAGE


def test_validate(siso1_path, capsys):
    code, out, err = run(["validate", "--model", str(siso1_path)], capsys)
    assert code == 0
    doc = parse(out)
    assert doc["schema"] == "lftident-report/1"
    assert doc["subcommand"] == "validate"
    assert doc["result"]["psi_fcr"] is True
    assert doc["result"]["g_zu_fnrr"] is True
    assert doc["result"]["assumptions"]["worst_loop_condition"] == 1.0
    assert doc["timing"]["wall_seconds"] is None


def test_validate_samples_inside_a_box(tmp_path, capsys):
    # I - theta D_zv is singular at theta = 0.35, outside the box |theta| < 0.25,
    # so every loop inside it is well posed and validate must pass.
    m = dataclasses.replace(testing.siso1(), D_zv=np.array([[1 / 0.35]]),
                            theta_domain=model_mod.ParameterDomain(radius=0.25, norm="box"))
    p = tmp_path / "box.json"
    model_mod.save_model(m, p)
    code, out, err = run(["validate", "--model", str(p)], capsys)
    assert code == cli.EXIT_OK, err
    samples = np.array(parse(out)["result"]["assumptions"]["theta_samples"])
    assert np.abs(samples).max() == pytest.approx(0.7 * 0.25)
    assert all(m.theta_domain.contains(t) for t in samples)


def test_ident_identifiable(siso1_path, capsys):
    code, out, _ = run(
        ["ident", "--model", str(siso1_path), "--theta0", "0", "--freqs", "1"], capsys
    )
    assert code == 0
    doc = parse(out)
    assert doc["result"]["verdict"]["status"] == "identifiable"
    assert doc["result"]["sufficient_count"] == 3


def test_ident_dup2(dup2_path, capsys):
    code, out, _ = run(
        ["ident", "--model", str(dup2_path), "--theta0", "0,0", "--freqs", "1,2"], capsys
    )
    assert code == 0
    doc = parse(out)
    assert doc["result"]["verdict"]["status"] == "not-identifiable"
    assert doc["result"]["verdict"]["psi_fcr"] is False


def test_ident_csv_rows_name_the_deciding_frequencies(siso1_path, tmp_path, capsys):
    # A shortcut verdict's one row names its shortcut frequency, which need
    # not be the first listed; a chain's rows name the listed frequencies.
    csv = tmp_path / "steps.csv"
    code, out, _ = run(["ident", "--model", str(siso1_path), "--theta0", "0",
                        "--freqs", "2.0,0.5", "--csv", str(csv)], capsys)
    assert code == 0
    verdict = parse(out)["result"]["verdict"]
    assert verdict["shortcut_omega"] == 0.5 and verdict["rank_trace"] == [0]
    assert csv.read_text().splitlines() == ["step,omega,unresolved_dim", "1,0.5,0"]

    # d12-01 of the reports workload at its three certified frequencies.
    p = tmp_path / "d12.json"
    model_mod.save_model(testing.random_regular_model(1, dims=Dims(12, 2, 1, 2, 5, 10)), p)
    w = ["0.01", "1.1226677735108135", "2.354286414322418"]
    code, out, _ = run(["ident", "--model", str(p), "--theta0", ",".join(["0"] * 10),
                        "--freqs", ",".join(w), "--csv", str(csv)], capsys)
    assert code == 0
    verdict = parse(out)["result"]["verdict"]
    assert verdict["shortcut_omega"] is None
    rows = [f"{i + 1},{wi},{dim}" for i, (wi, dim) in enumerate(zip(w, verdict["rank_trace"]))]
    assert len(rows) == 3
    assert csv.read_text().splitlines() == ["step,omega,unresolved_dim", *rows]



@pytest.mark.parametrize("command", ["ident", "sloppiness", "oracle"])
def test_leading_negative_theta0(command, dup2_path, siso1_path, capsys):
    # A value that starts with '-' and holds a comma or an exponent once read
    # as an option.
    path = dup2_path if command == "ident" else siso1_path
    theta0 = "-0.1,0" if command == "ident" else "-2.5e-1"
    rest = SISO1_RUNS[command][2:] if command != "ident" else ["--freqs", "1,2"]
    spaced = run([command, "--model", str(path), "--theta0", theta0, *rest], capsys)
    joined = run([command, "--model", str(path), f"--theta0={theta0}", *rest], capsys)
    assert spaced[0] == 0, spaced[2]
    assert spaced[1] == joined[1]
    assert parse(spaced[1])["parameters"]["theta0"] == theta0


def test_leading_negative_discrete_freqs(tmp_path, capsys):
    m = testing.random_regular_model(0, kernel_rich=True, time_domain="discrete")
    path = tmp_path / "dt.json"
    model_mod.save_model(m, path)
    base = ["ident", "--model", str(path), "--theta0", ",".join(["0"] * m.dims.q)]
    spaced = run([*base, "--freqs", "-3.14,1"], capsys)
    joined = run([*base, "--freqs=-3.14,1"], capsys)
    assert spaced[0] == 0, spaced[2]
    assert spaced[1] == joined[1]
    doc = parse(spaced[1])
    assert doc["parameters"]["freqs"] == "-3.14,1"
    assert doc["result"]["verdict"]["frequencies"] == [-3.14, 1.0]


@pytest.mark.parametrize("argv,message", [
    (["--theta0", "--freqs", "1,2"], "argument --theta0: expected one argument"),
    (["--theta0", "-x", "--freqs", "1,2"], "argument --theta0: expected one argument"),
    (["--theta0", "0,0", "-0.5", "--freqs", "1,2"], "unrecognized arguments: -0.5"),
    (["--theta0", "0,0", "--freqs", "1,2", "--timing", "-1"], "unrecognized arguments: -1"),
])
def test_negative_values_keep_usage_errors(argv, message, dup2_path, capsys):
    # Only a token that starts like a number joins the option before it.
    code, out, err = run(["ident", "--model", str(dup2_path), *argv], capsys)
    assert code == cli.EXIT_USAGE
    assert out == ""
    assert message in err

def test_ident_duplicate_freqs_usage_error(siso1_path, capsys):
    code, _, err = run(
        ["ident", "--model", str(siso1_path), "--theta0", "0", "--freqs", "1,1"], capsys
    )
    assert code == cli.EXIT_USAGE
    assert "distinct" in err


@pytest.mark.parametrize("command", ["ident", "sloppiness", "oracle"])
@pytest.mark.parametrize("freqs", ["nan", "1e400", "0,-inf"])
def test_non_finite_freqs_usage_error(command, freqs, siso1_path, capsys):
    argv = [command, "--model", str(siso1_path), *SISO1_RUNS[command]]
    argv[argv.index("--freqs") + 1] = freqs
    code, _, err = run(argv, capsys)
    assert code == cli.EXIT_USAGE
    assert "must be finite" in err


@pytest.mark.parametrize("grid", [
    ["--grid-min", "nan"],
    ["--grid-min", "-1"],
    ["--grid-max", "inf"],
    ["--grid-min", "10", "--grid-max", "1"],
    ["--grid-points", "0"],
    ["--grid-min", "1", "--grid-max", "1", "--grid-points", "5"],
])
def test_find_freqs_bad_grid_usage_error(grid, siso1_path, capsys):
    code, _, err = run(["find-freqs", "--model", str(siso1_path), "--theta0", "0", *grid], capsys)
    assert code == cli.EXIT_USAGE
    assert err.startswith("error: ")


@pytest.mark.parametrize("grid", [
    ["--grid-min", "nan"],
    ["--grid-min", "-1"],
    ["--grid-min", "0.5", "--grid-max", "0.6"],
    ["--grid-max", "3"],
    ["--grid-min", "0.01"],  # the continuous-time default, given explicitly
])
def test_find_freqs_discrete_grid_bounds_usage_error(grid, tmp_path, capsys):
    # A discrete-time grid spans (0, pi]; bounds it would ignore are refused,
    # and the default report still echoes the continuous-time defaults.
    path = tmp_path / "discrete.json"
    m = testing.random_regular_model(0, kernel_rich=True, time_domain="discrete")
    model_mod.save_model(m, path)
    argv = ["find-freqs", "--model", str(path), "--theta0", ",".join(["0"] * m.dims.q)]
    code, out, err = run([*argv, *grid], capsys)
    assert (code, out) == (cli.EXIT_USAGE, "")
    assert err.startswith("error: a discrete-time grid spans (0, pi] and takes no bounds")
    code, out, _ = run(argv, capsys)
    assert code == 0 and parse(out)["parameters"]["grid"] == [0.01, 100.0, 200, 0]


@pytest.mark.parametrize("command", sorted(SISO1_RUNS))
def test_negative_seed_usage_error(command, siso1_path, capsys):
    argv = [command, "--model", str(siso1_path), *SISO1_RUNS[command], "--seed", "-1"]
    code, out, err = run(argv, capsys)
    assert code == cli.EXIT_USAGE
    assert out == ""
    assert err.startswith("error: --seed must be a non-negative integer")


@pytest.mark.parametrize("command,flag", [("find-freqs", "--refine"), ("oracle", "--trials")])
@pytest.mark.parametrize("value", ["-2", "-1", "0"])
def test_negative_count_usage_error(command, flag, value, siso1_path, capsys):
    argv = [command, "--model", str(siso1_path), *SISO1_RUNS[command]]
    argv += [flag, value]
    code, out, err = run(argv, capsys)
    if value == "0":
        assert code == 0 and parse(out)["subcommand"] == command
        return
    assert code == cli.EXIT_USAGE
    assert out == ""
    assert err.startswith(f"error: {flag[2:]} must be a non-negative integer, got {value}")


def test_sloppiness_infinite_eps_usage_error(siso1_path, capsys):
    argv = ["sloppiness", "--model", str(siso1_path), *SISO1_RUNS["sloppiness"]]
    argv[argv.index("--eps") + 1] = "inf"
    code, _, err = run(argv, capsys)
    assert code == cli.EXIT_USAGE
    assert "eps must be finite" in err


@pytest.mark.parametrize("flag", ["--output", "--csv"])
def test_unwritable_path_usage_error(flag, siso1_path, tmp_path, capsys):
    target = tmp_path / "missing" / "r.json"
    code, out, err = run(["validate", "--model", str(siso1_path), flag, str(target)], capsys)
    assert code == cli.EXIT_USAGE
    assert err.startswith(f"error: cannot write {target}: ")
    assert out == "" and not target.exists()


def test_theta0_outside_domain(siso1_path, capsys):
    code, _, err = run(
        ["ident", "--model", str(siso1_path), "--theta0", "5", "--freqs", "1"], capsys
    )
    assert code == cli.EXIT_USAGE


def test_invalid_model_exit_2(tmp_path, capsys):
    p = tmp_path / "broken.json"
    p.write_text("{}")
    code, _, err = run(["validate", "--model", str(p)], capsys)
    assert code == cli.EXIT_MODEL


def test_assumption_violation_exit_3(tmp_path, capsys):
    # m_z > m_u: G_zu cannot have full normal row rank.
    m = testing.random_regular_model(2, dims=Dims(m_x=2, m_u=1, m_y=1, m_z=2, m_v=2, q=2))
    p = tmp_path / "fnrr.json"
    model_mod.save_model(m, p)
    code, _, err = run(
        ["ident", "--model", str(p), "--theta0", "0,0", "--freqs", "1"], capsys
    )
    assert code == cli.EXIT_ASSUMPTION
    assert "row rank" in err


def loop_and_pole_model():
    """At theta = 1 the loop I - theta G_zv is singular at omega = 0, where
    G_zv = 1; an undamped oscillator puts a pole at omega = 2."""
    e = np.eye(3)
    return model_mod.DescriptorModel(
        time_domain="continuous", dims=Dims(3, 1, 1, 1, 1, 1),
        E=e, A_xx=np.array([[-1.0, 0.0, 0.0], [0.0, 0.0, 2.0], [0.0, -2.0, 0.0]]),
        B_xu=e[:, [1]] + e[:, [2]], B_xv=e[:, [0]], C_yx=e[[1]] + e[[2]], C_zx=e[[0]],
        D_yu=np.zeros((1, 1)), D_yv=np.zeros((1, 1)), D_zu=np.ones((1, 1)),
        D_zv=np.zeros((1, 1)), P=(np.ones((1, 1)),),
        theta_domain=model_mod.ParameterDomain(radius=2.0))


@pytest.mark.parametrize("command,extra", [("ident", []), ("sloppiness", ["--eps", "1e-3"])])
def test_pole_reported_before_singular_loop(command, extra, tmp_path, capsys):
    # The listed frequencies pass the pole guard together before any loop is
    # checked: the pole at the second frequency is reported, not the singular
    # loop at the first.  Each alone keeps its own message.
    p = tmp_path / "loop_pole.json"
    model_mod.save_model(loop_and_pole_model(), p)
    base = [command, "--model", str(p), "--theta0", "1", *extra]
    pole = "omega=2.0: sigma_min(lambda E - A)"
    loop = "I - P(theta0) G_zv singular at omega=0.0"
    code, _, err = run(base + ["--freqs", "0,2"], capsys)
    assert code == cli.EXIT_ASSUMPTION and pole in err and loop not in err
    code, _, err = run(base + ["--freqs", "0"], capsys)
    assert code == cli.EXIT_ASSUMPTION and loop in err


def test_sloppiness_siso1(siso1_path, tmp_path, capsys):
    csv = tmp_path / "mu.csv"
    code, out, _ = run(
        ["sloppiness", "--model", str(siso1_path), "--theta0", "0",
         "--freqs", "0,1", "--eps", "1e-3", "--csv", str(csv)],
        capsys,
    )
    assert code == 0
    doc = parse(out)
    assert doc["result"]["sm_abs"] == pytest.approx(np.sqrt(0.8), abs=1e-9)
    assert doc["result"]["mu"] == [pytest.approx(0.8, abs=1e-9)]
    assert doc["result"]["eps_convention"] == "energy<=eps^2"
    lines = csv.read_text().strip().splitlines()
    assert lines[0].startswith("index,mu,sm_rel")
    assert len(lines) == 2


def test_sloppiness_non_certifying_exit_3(tmp_path, capsys):
    p = tmp_path / "free.json"
    model_mod.save_model(testing.theta_free(), p)
    code, _, err = run(
        ["sloppiness", "--model", str(p), "--theta0", "0", "--freqs", "0.5,1.5",
         "--eps", "1e-3"],
        capsys,
    )
    assert code == cli.EXIT_ASSUMPTION


def test_sloppiness_mixed_scales_exit_3(tmp_path, capsys):
    # At omega = 1e6 both G_yv and G_zu are about 1e-6, so the rows of that
    # frequency scale about 1e12 above those of omega = 1, and one relative
    # null cut drops the genuine constraint sigma = 2: n_s = 2 > q = 1.  The
    # sloppiness report used to carry sm_rel = [inf] and exit 4.
    one, zero = np.ones((1, 1)), np.zeros((1, 1))
    m = model_mod.DescriptorModel(
        time_domain="continuous", dims=Dims(1, 1, 2, 1, 1, 1),
        E=one, A_xx=-one, B_xu=-one, B_xv=one, C_yx=np.array([[1.0], [0.0]]), C_zx=-one,
        D_yu=np.zeros((2, 1)), D_yv=np.zeros((2, 1)), D_zu=zero, D_zv=one,
        P=(np.array([[0.7858449702906646]]),),
        theta_domain=model_mod.ParameterDomain(radius=0.5))
    p = tmp_path / "mixed.json"
    model_mod.save_model(m, p)
    code, out, _ = run(["ident", "--model", str(p), "--theta0", "0", "--freqs", "1,1000000"],
                       capsys)
    assert code == cli.EXIT_OK and parse(out)["result"]["verdict"]["status"] == "identifiable"
    argv = ["sloppiness", "--model", str(p), "--theta0", "0", "--eps", "1e-3", "--freqs"]
    code, _, err = run([*argv, "1,1000000"], capsys)
    assert code == cli.EXIT_ASSUMPTION
    assert "n_s=2" in err and "q=1" in err
    code, out, _ = run([*argv, "1,10000"], capsys)
    assert code == cli.EXIT_OK and parse(out)["result"]["n_s"] == 1
    # The oracle's pencil spectrum comes from the same S matrices; it used
    # to report mu_pencil = [6.48, 0.0] for one parameter.
    code, _, err = run(["oracle", "--model", str(p), "--theta0", "0", "--freqs", "1,1000000",
                        "--trials", "10"], capsys)
    assert code == cli.EXIT_ASSUMPTION and "n_s=2" in err


def test_find_freqs(siso1_path, capsys):
    code, out, _ = run(
        ["find-freqs", "--model", str(siso1_path), "--theta0", "0"], capsys
    )
    assert code == 0
    doc = parse(out)
    assert doc["result"]["plan"]["status"] == "certified"
    assert doc["result"]["plan"]["selected"] == [pytest.approx(1e-2)]
    assert doc["result"]["verdict"]["status"] == "identifiable"


def test_oracle_subcommand(siso1_path, capsys):
    code, out, _ = run(
        ["oracle", "--model", str(siso1_path), "--theta0", "0", "--freqs", "0,1",
         "--trials", "25"],
        capsys,
    )
    assert code == 0
    doc = parse(out)
    res = doc["result"]
    assert res["local_identifiability"] is True
    assert res["verdict"]["status"] == "identifiable"
    assert res["mu_agreement"]["max_rel_difference"] <= 1e-3
    assert res["equivalence_probe"]["counterexample"] is None


def test_oracle_estimates_one_jacobian(siso1_path, capsys, monkeypatch):
    calls = []
    orig = oracle.fd_jacobian
    monkeypatch.setattr(oracle, "fd_jacobian",
                        lambda *args, **kw: calls.append(args) or orig(*args, **kw))
    code, _, _ = run(
        ["oracle", "--model", str(siso1_path), "--theta0", "0", "--freqs", "0,1",
         "--trials", "25"],
        capsys,
    )
    assert code == 0
    assert len(calls) == 1


def test_byte_identical_reports(siso1_path, dup2_path, tmp_path, capsys):
    argsets = [
        ["validate", "--model", str(siso1_path)],
        ["ident", "--model", str(siso1_path), "--theta0", "0", "--freqs", "1,2"],
        ["find-freqs", "--model", str(siso1_path), "--theta0", "0"],
        ["sloppiness", "--model", str(siso1_path), "--theta0", "0",
         "--freqs", "0,1", "--eps", "1e-3"],
        ["oracle", "--model", str(dup2_path), "--theta0", "0,0", "--freqs", "1",
         "--trials", "10", "--seed", "7"],
    ]
    for i, args in enumerate(argsets):
        a = tmp_path / f"a{i}.json"
        b = tmp_path / f"b{i}.json"
        assert cli.main(args + ["--output", str(a)]) == 0
        assert cli.main(args + ["--output", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
    capsys.readouterr()


def test_output_file_and_digest(siso1_path, tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code = cli.main(["validate", "--model", str(siso1_path), "--output", str(out_path)])
    capsys.readouterr()
    assert code == 0
    doc = json.loads(out_path.read_text())
    import hashlib

    assert doc["input_digest"] == hashlib.sha256(siso1_path.read_bytes()).hexdigest()
    assert doc["parameters"]["tolerances"]["rank_rtol"] == 1e-10


def test_exit_4_on_internal_inconsistency(siso1_path, capsys, monkeypatch):
    # An infinite sloppiness eigenvalue on a certified set contradicts the
    # identifiability certificate: the CLI must flag itself, not report it.
    from lftident import sloppiness as slop
    import lftident.cli as cli_mod

    orig = slop.metrics

    def fake_metrics(S, k=1):
        real = orig(S, k=k)
        mu = real.mu.copy()
        mu[0] = np.inf
        return slop.SloppinessReport(
            mu=mu, sm_abs=real.sm_abs, sm_rel=real.sm_rel,
            directions=real.directions, k=real.k,
        )

    monkeypatch.setattr(cli_mod.sloppiness, "metrics", fake_metrics)
    code, _, err = run(
        ["sloppiness", "--model", str(siso1_path), "--theta0", "0",
         "--freqs", "0,1", "--eps", "1e-3"],
        capsys,
    )
    assert code == cli.EXIT_INCONSISTENT
    assert "inconsisten" in err


def test_timing_flag_populates(siso1_path, capsys):
    code, out, _ = run(["validate", "--model", str(siso1_path), "--timing"], capsys)
    assert code == 0
    doc = parse(out)
    assert doc["timing"]["wall_seconds"] is not None


def test_no_state_kept_between_runs(siso1_path, tmp_path, capsys):
    # A report depends only on its own argv: runs of every subcommand in the
    # same process, and a rejected --tol-rank call, leave no trace in it.
    model = ["--model", str(siso1_path), "--theta0", "0"]
    ident = ["ident", *model, "--freqs", "0,1"]
    first = tmp_path / "first.json"
    assert cli.main(ident + ["--output", str(first)]) == 0
    for args in (
        ["find-freqs", *model],
        ["sloppiness", *model, "--freqs", "0,1", "--eps", "1e-3"],
        ["oracle", *model, "--freqs", "0,1", "--trials", "10"],
    ):
        assert cli.main(args + ["--output", str(tmp_path / "other.json")]) == 0
    again = tmp_path / "again.json"
    assert cli.main(ident + ["--output", str(again)]) == 0
    assert again.read_bytes() == first.read_bytes()

    assert cli.main(ident + ["--tol-rank", "1e-6"]) == cli.EXIT_USAGE
    after = tmp_path / "after.json"
    assert cli.main(ident + ["--output", str(after)]) == 0
    assert after.read_bytes() == first.read_bytes()
    assert json.loads(after.read_text())["parameters"]["tolerances"]["rank_rtol"] == 1e-10
    capsys.readouterr()


@pytest.mark.parametrize("command", list(SISO1_RUNS))
def test_subcommand_leaves_scipy_unimported(command, siso1_path, tmp_path):
    # numpy is the only runtime dependency; scipy is a test-time reference.
    argv = [command, "--model", str(siso1_path), *SISO1_RUNS[command],
            "--output", str(tmp_path / "r.json")]
    assert run_fresh([argv]) == {"codes": [0], "scipy": False}


def test_usage_error_then_run_matches_fresh_run(siso1_path, tmp_path, capsys):
    # main reuses one parser; a rejected argv must leave nothing in it.
    args = ["find-freqs", "--model", str(siso1_path), "--theta0", "0", "--grid-points", "50"]
    assert cli.main(["find-freqs", "--model", str(siso1_path), "--theta0"]) == cli.EXIT_USAGE
    assert cli.main(args[:-1] + ["fifty"]) == cli.EXIT_USAGE
    reused, fresh = tmp_path / "reused.json", tmp_path / "fresh.json"
    assert cli.main(args + ["--output", str(reused)]) == 0
    assert run_fresh([args + ["--output", str(fresh)]])["codes"] == [0]
    assert reused.read_bytes() == fresh.read_bytes()
    capsys.readouterr()


# Mutations of the fuzz test: each maps (model, rng) to keyword changes.
BLOCKS = ("B_xu", "B_xv", "C_yx", "C_zx", "D_yu", "D_yv", "D_zu", "D_zv")


def _zeroed(m, rng):
    name = BLOCKS[int(rng.integers(len(BLOCKS)))]
    return {name: np.zeros_like(getattr(m, name))}


def _rounded(m, rng):
    return {name: np.round(getattr(m, name)) for name in ("A_xx", *BLOCKS)}


def _rank_one_bxv(m, rng):
    return {"B_xv": np.outer(rng.standard_normal(m.dims.m_x), rng.standard_normal(m.dims.m_v))}


def _scaled(factor):
    def scale(m, rng):
        name = BLOCKS[int(rng.integers(len(BLOCKS)))]
        return {name: factor * getattr(m, name)}
    return scale


MUTATIONS = {"zeroed": _zeroed, "rounded": _rounded, "rank-one B_xv": _rank_one_bxv,
             "x1e8": _scaled(1e8), "x1e-8": _scaled(1e-8)}
FUZZ_FREQS = {"continuous": (0.0, 1e-9, 1.0, 1e6, 1e200),
              "discrete": (np.pi, -np.pi + 1e-12, 0.0, 1.0)}


FUZZ_KINDS = ["continuous", "discrete", "singular E"]


def fuzz_model(seed, kind):
    """The fuzz test's small random model of ``kind`` and its rng."""
    time_domain = "discrete" if kind == "discrete" else "continuous"
    return (testing.random_model(seed, time_domain=time_domain, singular_E=kind == "singular E"),
            np.random.default_rng(seed))


def assert_documented_exits(m, rng, edit=lambda doc: None):
    """Run every subcommand twice on the model file of ``m``, changed by
    ``edit`` of its JSON document: each exits with a documented code, never
    with an escaping exception, and an identical second call in the same
    process gives the same report (or error) byte for byte."""
    time_domain = m.time_domain
    freqs = ",".join(repr(float(w)) for w in rng.choice(FUZZ_FREQS[time_domain], 2, replace=False))
    model = ["--theta0", ",".join(["0"] * m.dims.q)]
    runs = {
        "validate": [],
        "ident": [*model, "--freqs", freqs],
        "find-freqs": model,
        "sloppiness": [*model, "--freqs", freqs, "--eps", "1e-3"],
        "oracle": [*model, "--freqs", freqs, "--trials", "10"],
    }
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.json"
        model_mod.save_model(m, path)
        doc = json.loads(path.read_text())
        edit(doc)
        path.write_text(json.dumps(doc))
        for command, extra in runs.items():
            seen = []
            for i in range(2):
                out, err = Path(tmp) / f"{command}{i}.json", io.StringIO()
                with contextlib.redirect_stderr(err):
                    code = cli.main([command, "--model", str(path), *extra, "--output", str(out)])
                assert code in (0, 1, 2, 3, 4), (command, code, err.getvalue())
                assert "Traceback" not in err.getvalue()
                seen.append((code, out.read_bytes() if code == 0 else err.getvalue()))
            assert seen[0] == seen[1], command


@given(st.integers(0, 2 ** 31 - 1), st.sampled_from(FUZZ_KINDS), st.sampled_from(sorted(MUTATIONS)))
@settings(max_examples=30, deadline=None, derandomize=True)
def test_fuzz_exit_codes_and_repeatable_reports(seed, kind, mutation):
    # Every subcommand on a small mutated random model.
    m, rng = fuzz_model(seed, kind)
    m = dataclasses.replace(m, **MUTATIONS[mutation](m, rng))
    assert_documented_exits(m, rng)


# Values that the scalar-field fuzz writes into the model file.
SCALARS = {"string": "abc", "null": None, "list": [1.0], "bool": True, "negative": -1.0,
           "inf": float("inf"), "nan": float("nan")}
SCALAR_CASES = [
    *((f"theta_domain.{key}={name}", key, value)
      for key in ("radius", "type") for name, value in SCALARS.items()),
    ("dims.<one>=bool", "dims", True),
    ("dims.<one>=float", "dims", 2.0),
    *((f"<matrix entry>={name}", "matrix", value)
      for name, value in (("bool", True), ("numeric string", "1.5"), ("null", None))),
]


@pytest.mark.parametrize("key,value", [c[1:] for c in SCALAR_CASES], ids=[c[0] for c in SCALAR_CASES])
@given(st.integers(0, 2 ** 31 - 1), st.sampled_from(FUZZ_KINDS))
@settings(max_examples=3, deadline=None, derandomize=True)
def test_fuzz_scalar_fields_exit_codes(key, value, seed, kind):
    # The model file's scalar fields hold a value of the wrong kind: the
    # theta domain's radius or type, one dims entry or one matrix entry
    # (drawn from the seed).  A wrong matrix entry is a model format error.
    m, rng = fuzz_model(seed, kind)
    edited = []

    def edit(doc):
        if key == "dims":
            doc["dims"][sorted(doc["dims"])[int(rng.integers(len(doc["dims"])))]] = value
        elif key == "matrix":
            rows = [row for k in model_mod._MATRIX_KEYS for row in doc[k] if row]
            rows += [row for Pk in doc["P"] for row in Pk if row]
            row = rows[int(rng.integers(len(rows)))]
            row[int(rng.integers(len(row)))] = value
        else:
            doc["theta_domain"][key] = value
        edited.append(json.dumps(doc))

    assert_documented_exits(m, rng, edit)
    if key == "matrix":
        with pytest.raises(ModelFormatError, match="is not a numeric matrix: entry "):
            model_mod.loads_model(edited[0])
