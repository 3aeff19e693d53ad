import json
import os
import subprocess
import sys
import textwrap
import warnings
from pathlib import Path

import pytest

import mfbsde
from mfbsde import ConfigError
from mfbsde.cli import main
from mfbsde.config import build_driver_objects, parse_config
from mfbsde.core import probe_mean_functional

MINIMAL_PICARD = textwrap.dedent("""
    [run]
    mode = picard

    [grid]
    horizon = 1.0
    steps = 100

    [levy]
    atoms =

    [mc]
    paths = 2000
    seed = 7

    [driver]
    name = zero

    [terminal]
    kind = constant
    c = 1.0
""")


class TestParseConfig:
    def test_minimal_scenario_valid(self):
        cfg = parse_config(MINIMAL_PICARD)
        assert cfg.mode == "picard"
        assert cfg.grid.steps == 100
        assert cfg.levy.n_atoms == 0
        assert cfg.terminal.kind == "constant"

    def test_eta_below_floor_named(self):
        text = MINIMAL_PICARD.replace("name = zero", "name = linear") + \
            "\n[linear_coeffs]\neta1 = -1.5\n"
        with pytest.raises(ConfigError, match="eta1"):
            parse_config(text)

    def test_duplicate_atoms_rejected(self):
        text = MINIMAL_PICARD.replace("atoms =", "atoms = 1.0:0.5, 1.0:0.2")
        with pytest.raises(ConfigError, match="distinct"):
            parse_config(text)

    def test_all_errors_collected(self):
        text = textwrap.dedent("""
            [run]
            mode = nosuchmode

            [grid]
            horizon = -1.0
            steps = ten

            [mc]
            paths = 0

            [mystery]
            key = 1
        """)
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        msg = str(err.value)
        for frag in ("run.mode", "grid.steps", "mc.paths", "mystery"):
            assert frag in msg

    def test_unknown_key_has_path(self):
        text = MINIMAL_PICARD + "\n[solver]\nmystery_knob = 3\n"
        with pytest.raises(ConfigError, match="solver.mystery_knob"):
            parse_config(text)

    @pytest.mark.parametrize("mode,sections,path", [
        ("linear", "[terminal]\nkind = constant\nc = 1.0\n"
                   "[linear_coeffs]\n", "linear_coeffs.eta1"),
        ("qcheck", "[terminal]\nkind = constant\nc = 1.0\n[qcheck]\n",
         "qcheck.eta1"),
        ("utility", "[theta]\nkind = constant\nc = 1.0\n"
                    "[wealth]\nx0 = 1.0\n", "wealth.gamma0"),
    ], ids=["linear", "qcheck", "utility"])
    @pytest.mark.parametrize("value", ["-1.5", "abc"])
    def test_one_error_per_bad_floor_value(self, mode, sections, path,
                                           value):
        text = (f"[run]\nmode = {mode}\n[grid]\nhorizon = 1.0\n"
                f"steps = 10\n[mc]\npaths = 10\n{sections}"
                f"{path.split('.')[1]} = {value}\n")
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        entries = str(err.value).splitlines()[1:]
        assert len(entries) == 1
        assert entries[0].strip().startswith(f"{path}:")

    @pytest.mark.parametrize("mode,sections,path", [
        ("picard", "[driver]\nname = zero\n"
                   "[terminal]\nkind = constant\nc = 1.0\n[solver]\n",
         "solver.jump_features"),
        ("utility", "[theta]\nkind = constant\nc = 1.0\n"
                    "[wealth]\nx0 = 1.0\n[control]\n", "control.optimal"),
    ], ids=["picard", "utility"])
    def test_one_error_per_bad_boolean(self, mode, sections, path,
                                       tmp_path, capsys):
        text = (f"[run]\nmode = {mode}\n[grid]\nhorizon = 1.0\n"
                f"steps = 10\n[mc]\npaths = 10\n{sections}"
                f"{path.split('.')[1]} = maybe\n")
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        entries = str(err.value).splitlines()[1:]
        assert len(entries) == 1
        assert entries[0].strip().startswith(f"{path}:")
        ini = tmp_path / "bad.ini"
        ini.write_text(text)
        assert main(["validate", "--config", str(ini)]) == 2
        assert path in capsys.readouterr().err


class TestMeanFunctionalBound:
    TEXT = MINIMAL_PICARD + "\n[mean_functional]\nname = mean_y_squared\n"

    def test_absent_bound_takes_the_functional_default(self):
        cfg = parse_config(self.TEXT)
        _, phi = build_driver_objects(cfg)
        assert phi.derivative_bound == mfbsde.mean_y_squared().derivative_bound
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            probe_mean_functional(phi, cfg.levy.n_atoms)

    def test_explicit_bound_is_honoured(self):
        cfg = parse_config(self.TEXT + "bound = 2.5\n")
        _, phi = build_driver_objects(cfg)
        assert phi.derivative_bound == 2.5
        with pytest.warns(UserWarning, match="exceeds declared 2.5"):
            probe_mean_functional(phi, cfg.levy.n_atoms)


@pytest.fixture()
def picard_ini(tmp_path):
    path = tmp_path / "scenario.ini"
    path.write_text(MINIMAL_PICARD)
    return path


class TestCli:
    def test_validate(self, picard_ini, capsys):
        assert main(["validate", "--config", str(picard_ini)]) == 0
        assert "valid" in capsys.readouterr().out

    def test_validate_rejects_bad(self, tmp_path, capsys):
        bad = tmp_path / "bad.ini"
        bad.write_text("[run]\nmode = warp\n")
        assert main(["validate", "--config", str(bad)]) == 2

    def test_picard_trivial_run(self, picard_ini, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["picard", "--config", str(picard_ini),
                     "--out", str(out)]) == 0
        body = (out / "picard_solution.csv").read_text().splitlines()
        assert body[1] == "node,time,statistic,value,se"
        y0 = [ln for ln in body if ",y0," in ln]
        assert y0 and float(y0[0].split(",")[3]) == pytest.approx(1.0)
        manifest = json.loads((out / "manifest.json").read_text())
        diag = manifest["diagnostics"]["picard"]
        assert diag["converged"]
        assert len(diag["iter_s"]) == diag["iterations"] >= 1

    def test_mode_mismatch(self, picard_ini, tmp_path):
        assert main(["linear", "--config", str(picard_ini),
                     "--out", str(tmp_path / "o")]) == 2

    def test_byte_identical_reruns(self, picard_ini, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert main(["picard", "--config", str(picard_ini),
                         "--out", str(out)]) == 0
            outs.append((out / "picard_solution.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_seed_override_changes_noise(self, tmp_path):
        text = MINIMAL_PICARD.replace("kind = constant\nc = 1.0",
                                      "kind = brownian_linear\na = 1.0")
        ini = tmp_path / "s.ini"
        ini.write_text(text)
        vals = []
        for seed in ("1", "2"):
            out = tmp_path / f"s{seed}"
            assert main(["picard", "--config", str(ini), "--seed", seed,
                         "--out", str(out)]) == 0
            body = (out / "picard_solution.csv").read_text()
            vals.append(body)
        assert vals[0] != vals[1]

    def test_compare_violation_exits_4(self, tmp_path, capsys):
        text = textwrap.dedent("""
            [run]
            mode = compare

            [grid]
            horizon = 1.0
            steps = 50

            [levy]
            atoms = 1.0:0.5

            [mc]
            paths = 2000
            seed = 3

            [driver]
            name = zero

            [terminal]
            kind = constant
            c = 0.0

            [driver2]
            name = zero

            [terminal2]
            kind = constant
            c = 1.0

            [compare]
            n_probes = 50
        """)
        ini = tmp_path / "c.ini"
        ini.write_text(text)
        code = main(["compare", "--config", str(ini),
                     "--out", str(tmp_path / "out")])
        assert code == 4
        err = capsys.readouterr().err
        assert "terminal" in err and "xi1" in err

    def test_nonconvergence_warning_in_manifest(self, tmp_path):
        text = MINIMAL_PICARD.replace(
            "name = zero", "name = affine\nc_y = 0.5\nconst = 1.0"
        ) + "\n[solver]\nmax_iter = 1\n"
        ini = tmp_path / "s.ini"
        ini.write_text(text)
        out = tmp_path / "out"
        assert main(["picard", "--config", str(ini),
                     "--out", str(out)]) == 3
        manifest = json.loads((out / "manifest.json").read_text())
        caught = manifest["diagnostics"]["warnings"]
        assert [w["count"] for w in caught] == [1]
        assert "did not converge" in caught[0]["message"]

    def test_clean_run_records_no_warnings(self, picard_ini, tmp_path):
        out = tmp_path / "out"
        assert main(["picard", "--config", str(picard_ini),
                     "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["diagnostics"]["warnings"] == []

    def test_linear_mode_roundtrip(self, tmp_path):
        text = textwrap.dedent("""
            [run]
            mode = linear

            [grid]
            horizon = 1.0
            steps = 100

            [levy]
            atoms = 1.0:0.5

            [mc]
            paths = 2000
            seed = 5

            [terminal]
            kind = constant
            c = 2.0

            [linear_coeffs]
            alpha1 = 0.1
            alpha2 = 0.2
        """)
        ini = tmp_path / "l.ini"
        ini.write_text(text)
        out = tmp_path / "out"
        assert main(["linear", "--config", str(ini), "--out",
                     str(out)]) == 0
        body = (out / "linear_solution.csv").read_text().splitlines()
        y0 = [ln for ln in body if ",y0," in ln][0]
        assert float(y0.split(",")[3]) == pytest.approx(2.69972, abs=1e-3)

    def test_utility_and_qcheck_modes(self, tmp_path):
        utext = textwrap.dedent("""
            [run]
            mode = utility

            [grid]
            horizon = 1.0
            steps = 50

            [levy]
            atoms = 1.0:0.5

            [mc]
            paths = 3000
            seed = 9

            [wealth]
            x0 = 1.0
            b0 = 0.05
            sigma0 = 0.2
            gamma0 = 0.1

            [utility_coeffs]
            alpha0 = 0.05
            alpha1 = 0.03
            beta0 = 0.15
            eta0 = 0.2

            [theta]
            kind = constant
            c = 2.0

            [control]
            optimal = true
        """)
        ini = tmp_path / "u.ini"
        ini.write_text(utext)
        assert main(["utility", "--config", str(ini),
                     "--out", str(tmp_path / "uo")]) == 0
        man = json.loads((tmp_path / "uo" / "manifest.json").read_text())
        assert "J" in man["diagnostics"]["utility"]

        qtext = textwrap.dedent("""
            [run]
            mode = qcheck

            [grid]
            horizon = 1.0
            steps = 50

            [levy]
            atoms = 1.0:0.5

            [mc]
            paths = 3000
            seed = 9

            [qcheck]
            alpha1 = 0.1
            alpha2 = 0.15
            beta1 = 0.3
            eta1 = 0.4
            gamma = 0.05

            [terminal]
            kind = brownian_linear
            a = 0.5
            b = 1.0
        """)
        qini = tmp_path / "q.ini"
        qini.write_text(qtext)
        assert main(["qcheck", "--config", str(qini),
                     "--out", str(tmp_path / "qo")]) == 0
        man = json.loads((tmp_path / "qo" / "manifest.json").read_text())
        assert man["diagnostics"]["qcheck"]["agree"]


COMPARE_THREE_ATOMS = textwrap.dedent("""
    [run]
    mode = compare
    [grid]
    horizon = 1.0
    steps = 10
    [levy]
    atoms = 1.0:0.5, -0.5:0.3, 2.0:0.2
    [mc]
    paths = 500
    seed = 3
    [driver]
    name = affine
    c_k = 0.2
    [terminal]
    kind = constant
    c = 1.0
    [driver2]
    name = affine
    c_k = 0.2
    [terminal2]
    kind = constant
    c = 0.0
    [compare]
    n_probes = 20
""")


@pytest.mark.parametrize("eta_bound,code", [
    ("0.2", 0), ("0.2, 0.2, 0.2", 0), ("0.2, 0.2", 2),
], ids=["one", "per-atom", "wrong-count"])
def test_compare_eta_bound_count(tmp_path, capsys, eta_bound, code):
    """compare.eta_bound takes one value or one per atom; any other count
    is a validation error naming the key, not a crash in the run."""
    ini = tmp_path / "c.ini"
    ini.write_text(COMPARE_THREE_ATOMS + f"eta_bound = {eta_bound}\n")
    assert main(["validate", "--config", str(ini)]) == min(code, 2)
    assert main(["compare", "--config", str(ini),
                 "--out", str(tmp_path / "out")]) == code
    if code:
        assert "compare.eta_bound" in capsys.readouterr().err


DETERMINISM_LINEAR = textwrap.dedent("""
    [run]
    mode = linear
    [grid]
    horizon = 1.0
    steps = 100
    [levy]
    atoms = 1.0:0.5, -0.5:0.7
    [mc]
    paths = 20000
    seed = 3
    [linear_coeffs]
    alpha1 = 0.12
    alpha2 = 0.18
    beta1 = 0.3
    beta2 = 0.12
    eta1 = 0.25
    eta2 = 0.15
    gamma = 0.1
    [terminal]
    kind = smooth_of_brownian
    coeffs = 1.0, 0.5, 0.2
""")


# the closed-form pipeline behind `mfbsde linear`, printing a hash of the
# raw bytes of its arrays (the CSV rounds them to 12 digits)
LINEAR_ARRAYS = textwrap.dedent("""
    import dataclasses, hashlib, sys
    import mfbsde as mf
    from mfbsde.config import parse_config_file
    cfg = parse_config_file(sys.argv[1])
    ens = mf.simulate_ensemble(cfg.grid, cfg.levy, cfg.n_paths, cfg.seed)
    c = dataclasses.replace(cfg.linear, terminal=cfg.terminal)
    system = mf.assemble_system(c, c.terminal, ens)
    v = mf.neumann_solve(system)
    y0, se, _ = mf.y_closed_formula(c, c.terminal, ens, v)
    h = hashlib.sha256()
    for arr in (system.f.stack(), system.f_se.stack(), system.source,
                v.stack()):
        h.update(arr.tobytes())
    print(h.hexdigest(), repr(y0), repr(se))
""")


def test_linear_run_independent_of_blas_threads(tmp_path):
    """The same seed gives byte-identical linear_solution.csv bodies and
    byte-identical closed-form arrays whatever the number of BLAS
    threads."""
    ini = tmp_path / "linear.ini"
    ini.write_text(DETERMINISM_LINEAR)
    src = str(Path(mfbsde.__file__).resolve().parents[1])
    bodies, hashes = [], []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(
                       filter(None, [src, os.environ.get("PYTHONPATH")])))
        out = tmp_path / f"out{threads}"
        subprocess.run([sys.executable, "-m", "mfbsde.cli", "linear",
                        "--config", str(ini), "--out", str(out)],
                       env=env, check=True, capture_output=True)
        lines = (out / "linear_solution.csv").read_text().splitlines()
        bodies.append(lines[1:])
        hashes.append(subprocess.run(
            [sys.executable, "-c", LINEAR_ARRAYS, str(ini)], env=env,
            check=True, capture_output=True, text=True).stdout)
    assert len(bodies[0]) > 100
    assert bodies[0] == bodies[1]
    assert hashes[0] == hashes[1]


DETERMINISM_PICARD = DETERMINISM_LINEAR.replace(
    "mode = linear", "mode = picard") + textwrap.dedent("""
    [solver]
    tol = 1e-6
    max_iter = 5
    [driver]
    name = linear
    [mean_functional]
    name = mean_yzk
""")


def test_picard_run_independent_of_blas_threads(tmp_path):
    """The same seed gives byte-identical picard_solution.csv bodies
    whatever the number of BLAS threads."""
    ini = tmp_path / "picard.ini"
    ini.write_text(DETERMINISM_PICARD)
    src = str(Path(mfbsde.__file__).resolve().parents[1])
    bodies = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(
                       filter(None, [src, os.environ.get("PYTHONPATH")])))
        out = tmp_path / f"out{threads}"
        run = subprocess.run([sys.executable, "-m", "mfbsde.cli", "picard",
                              "--config", str(ini), "--out", str(out)],
                             env=env, capture_output=True)
        assert run.returncode in (0, 3), run.stderr
        bodies.append(
            (out / "picard_solution.csv").read_text().splitlines()[1:])
    assert len(bodies[0]) > 100
    assert bodies[0] == bodies[1]
