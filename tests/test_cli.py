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
from mfbsde.config import parse_config
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


# (mode, sections that make the mode valid, section.key under test)
FLOOR_CASES = [
    ("linear", "[terminal]\nkind = constant\nc = 1.0\n"
               "[linear_coeffs]\n", "linear_coeffs.eta1"),
    ("qcheck", "[terminal]\nkind = constant\nc = 1.0\n[qcheck]\n",
     "qcheck.eta1"),
    ("utility", "[theta]\nkind = constant\nc = 1.0\n"
                "[wealth]\nx0 = 1.0\n", "wealth.gamma0"),
]
FINITE_CASES = [
    ("utility", "[theta]\nkind = constant\nc = 1.0\n"
                "[wealth]\nx0 = 1.0\n[control]\n", "control.pi"),
    ("utility", "[theta]\nkind = constant\nc = 1.0\n[wealth]\n",
     "wealth.x0"),
    ("linear", "[terminal]\nkind = constant\nc = 1.0\n"
               "[linear_coeffs]\n", "linear_coeffs.alpha1"),
    ("linear", "[terminal]\nkind = brownian_linear\n[linear_coeffs]\n",
     "terminal.a"),
]
PICARD_SECTIONS = ("[driver]\nname = zero\n"
                   "[terminal]\nkind = constant\nc = 1.0\n")
LINEAR_PICARD_SECTIONS = ("[driver]\nname = linear\n[linear_coeffs]\n"
                          "[terminal]\nkind = constant\nc = 1.0\n")
COMPARE_SECTIONS = ("[driver]\n[terminal]\nkind = constant\nc = 1.0\n"
                    "[driver2]\nname = affine\n"
                    "[terminal2]\nkind = constant\nc = 0.0\n")
UTILITY_SECTIONS = ("[theta]\nkind = constant\nc = 1.0\n"
                    "[wealth]\nx0 = 1.0\n")
# scenarios that a solver, a constructor or `on_grid` rejects at run
# time unless the parse does: (mode, sections, section.key, bad value)
RUN_CASES = [
    pytest.param("picard", "[driver]\nname = affine\n"
                 "[terminal]\nkind = constant\nc = 1.0\n",
                 "driver.c_mean", "0.1, 0.2", id="driver.c_mean"),
    pytest.param("compare", COMPARE_SECTIONS.replace("[driver]\n",
                                                     "[driver]\nname = zero\n"),
                 "driver2.c_mean", "0.1, 0.2", id="driver2.c_mean"),
    pytest.param("compare", COMPARE_SECTIONS, "driver.name", "linear",
                 id="driver.name"),
    pytest.param("compare", COMPARE_SECTIONS + "[linear_coeffs]\n"
                 "alpha1 = 0.1\n", "driver.name", "linear",
                 id="driver.name-with-linear_coeffs"),
    pytest.param("utility", UTILITY_SECTIONS.replace("kind = constant\n"
                                                     "c = 1.0\n", ""),
                 "theta.kind", "jump_linear", id="theta.kind"),
    pytest.param("utility", UTILITY_SECTIONS.replace("x0 = 1.0\n", ""),
                 "wealth.x0", "-1", id="wealth.x0"),
    pytest.param("utility", UTILITY_SECTIONS + "[utility_coeffs]\n",
                 "utility_coeffs.eta0", "-1", id="utility_coeffs.eta0"),
    pytest.param("utility", UTILITY_SECTIONS + "[utility_coeffs]\n",
                 "utility_coeffs.eta1", "-1.5", id="utility_coeffs.eta1"),
    pytest.param("utility", UTILITY_SECTIONS + "[control]\n",
                 "control.pi", "0", id="control.pi"),
    pytest.param("utility", UTILITY_SECTIONS
                 + "[control]\noptimal = true\n[utility_coeffs]\n",
                 "utility_coeffs.beta1", "0.1",
                 id="utility_coeffs.beta1-optimal"),
    pytest.param("utility", UTILITY_SECTIONS + "[levy]\natoms = 1.0:0.5\n"
                 "[control]\noptimal = true\n[utility_coeffs]\n",
                 "utility_coeffs.eta1", "0.1",
                 id="utility_coeffs.eta1-optimal"),
]


def _scenario(mode, sections, path, value):
    """A 10-step, 10-path scenario of `mode` with section.key = value."""
    section, key = path.split(".")
    return (f"[run]\nmode = {mode}\n[grid]\nhorizon = 1.0\n"
            f"steps = 10\n[mc]\npaths = 10\n{sections}").replace(
                f"[{section}]\n", f"[{section}]\n{key} = {value}\n")


class TestParseConfig:
    def test_minimal_scenario_valid(self):
        cfg = parse_config(MINIMAL_PICARD)
        assert cfg.mode == "picard"
        assert cfg.grid.steps == 100
        assert cfg.levy.n_atoms == 0
        assert cfg.linear.terminal.kind == "constant"

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

    @pytest.mark.parametrize("mode,sections,path,value", [
        *(pytest.param(mode, sections, path, value, id=f"{value}-{mode}")
          for value in ("-1.5", "abc", "nan", "inf")
          for mode, sections, path in FLOOR_CASES),
        *(pytest.param(mode, sections, path, value, id=f"{value}-{path}")
          for value in ("nan", "inf")
          for mode, sections, path in FINITE_CASES),
        pytest.param("picard", PICARD_SECTIONS + "[solver]\n",
                     "solver.max_iter", "0", id="0-max_iter"),
        pytest.param("picard", PICARD_SECTIONS + "[solver]\n",
                     "solver.tol", "0", id="0-tol"),
        pytest.param("picard", PICARD_SECTIONS, "mc.seed", "-1",
                     id="-1-seed"),
        pytest.param("picard", LINEAR_PICARD_SECTIONS + "[mean_functional]\n",
                     "mean_functional.name", "mean_y_squared",
                     id="mean_y_squared-linear"),
        pytest.param("picard", PICARD_SECTIONS
                     + "[mean_functional]\nname = mean_yzk\n",
                     "mean_functional.bound", "3.0", id="3.0-bound"),
        *RUN_CASES,
    ])
    def test_one_error_per_bad_floor_value(self, mode, sections, path,
                                           value):
        with pytest.raises(ConfigError) as err:
            parse_config(_scenario(mode, sections, path, value))
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
        phi = cfg.phi
        assert phi.derivative_bound == mfbsde.mean_y_squared().derivative_bound
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            probe_mean_functional(phi, cfg.levy.n_atoms)

    def test_explicit_bound_is_honoured(self):
        cfg = parse_config(self.TEXT + "bound = 2.5\n")
        phi = cfg.phi
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
        # the catalog driver runs on regression coefficients after one
        # set-up pass, whose time and conditioning the manifest carries
        assert diag["setup_s"] > 0.0
        assert diag["cond_max"] >= 1.0

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

    @pytest.mark.parametrize("where", ["ensemble", "runner"])
    def test_out_of_memory_exits_2(self, picard_ini, tmp_path, capsys,
                                   monkeypatch, where):
        """A path count that does not fit in memory exits 2 with a
        message that names mc.paths, and the manifest records it."""
        def no_memory(*args, **kwargs):
            raise MemoryError()

        if where == "ensemble":
            monkeypatch.setattr(mfbsde.cli, "simulate_ensemble", no_memory)
        else:
            monkeypatch.setitem(mfbsde.cli.RUNNERS, "picard", no_memory)
        out = tmp_path / "o"
        assert main(["picard", "--config", str(picard_ini),
                     "--paths", "123456", "--out", str(out)]) == 2
        assert "mc.paths = 123456" in capsys.readouterr().err
        manifest = json.loads((out / "manifest.json").read_text())
        assert "mc.paths = 123456" in manifest["diagnostics"]["error"]

    def test_negative_seed_override_rejected(self, picard_ini, tmp_path,
                                             capsys):
        out = tmp_path / "o"
        assert main(["picard", "--config", str(picard_ini), "--seed", "-5",
                     "--out", str(out)]) == 2
        assert "--seed" in capsys.readouterr().err
        assert not out.exists()

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


@pytest.mark.parametrize("mode,sections,path,value", RUN_CASES)
def test_validate_rejects_what_the_run_rejects(tmp_path, capsys, mode,
                                               sections, path, value):
    """Each check a solver, a constructor or `on_grid` makes is made at
    parse time: `validate` and the run both exit 2 naming the key."""
    ini = tmp_path / "s.ini"
    ini.write_text(_scenario(mode, sections, path, value))
    assert main(["validate", "--config", str(ini)]) == 2
    assert path in capsys.readouterr().err
    assert main([mode, "--config", str(ini),
                 "--out", str(tmp_path / "out")]) == 2
    assert path in capsys.readouterr().err


def test_compare_n_probes_below_one_fails_validation(tmp_path, capsys):
    ini = tmp_path / "c.ini"
    ini.write_text(COMPARE_THREE_ATOMS.replace("n_probes = 20",
                                               "n_probes = 0"))
    assert main(["validate", "--config", str(ini)]) == 2
    assert "compare.n_probes" in capsys.readouterr().err


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
    import hashlib, sys
    import mfbsde as mf
    from mfbsde.config import parse_config_file
    cfg = parse_config_file(sys.argv[1])
    ens = mf.simulate_ensemble(cfg.grid, cfg.levy, cfg.n_paths, cfg.seed)
    c = cfg.linear
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


def test_linear_y0_row_is_the_mean_system(tmp_path):
    """In linear_solution.csv the y0 row is ybar at node 0, and its SE is
    the f1 row's node-0 SE, as the manifest's `se_method` says; a rerun
    of the same seed writes the same body."""
    ini = tmp_path / "linear.ini"
    ini.write_text(DETERMINISM_LINEAR.replace("paths = 20000",
                                              "paths = 3000"))
    bodies = []
    for run in ("a", "b"):
        out = tmp_path / run
        assert main(["linear", "--config", str(ini), "--out",
                     str(out)]) == 0
        bodies.append((out / "linear_solution.csv").read_text()
                      .splitlines()[1:])
    assert bodies[0] == bodies[1]
    rows = {(stat, node): (value, se) for node, _, stat, value, se in
            (line.split(",") for line in bodies[0][1:])}
    y0, se = rows["y0", "0"]
    assert y0 == rows["ybar", "0"][0]
    assert se == rows["f1", "0"][1] and float(se) > 0.0
    manifest = json.loads((tmp_path / "a" / "manifest.json").read_text())
    assert manifest["diagnostics"]["linear"]["se_method"] == "f1_node0"


DETERMINISM_PICARD =DETERMINISM_LINEAR.replace(
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


SUMMARY_INI = textwrap.dedent("""
    [run]
    mode = picard
    [grid]
    horizon = 1.0
    steps = 20
    [levy]
    atoms = {atoms}
    [mc]
    paths = 3000
    seed = 5
    [solver]
    tol = 1e-10
    max_iter = 30
    [mean_functional]
    name = {phi}
""")
SUMMARY_AFFINE = textwrap.dedent("""
    [driver]
    name = affine
    c_y = 0.2
    c_z = 0.15
    c_k = 0.1
    c_mean = {c_mean}
    const = 0.05
    [terminal]
    kind = jump_linear
    psi = 0.7
""")
SUMMARY_CASES = {
    "0atoms-mean_y": ("", "mean_y", SUMMARY_AFFINE.format(c_mean="0.3")
                      .replace("jump_linear\npsi = 0.7",
                               "smooth_of_brownian\ncoeffs = 0.5, 1.0, 0.2")),
    "1atom-linear-mean_yzk": (
        "1.0:0.5", "mean_yzk",
        "[driver]\nname = linear\n[linear_coeffs]\nalpha1 = 0.12\n"
        "alpha2 = 0.18\nbeta1 = 0.3\nbeta2 = 0.12\neta1 = 0.25\n"
        "eta2 = 0.15\ngamma = 0.1\n[terminal]\n"
        "kind = smooth_of_brownian\ncoeffs = 1.0, 0.5, 0.2\n"),
    "2atoms-mean_yzk_avg": ("1.0:0.5, -0.5:0.7", "mean_yzk_avg",
                            SUMMARY_AFFINE.format(c_mean="0.2, 0.1, 0.1")),
    "2atoms-mean_y_squared": ("1.0:0.5, -0.5:0.7", "mean_y_squared",
                              SUMMARY_AFFINE.format(c_mean="0.05")),
}


@pytest.mark.parametrize("case", SUMMARY_CASES)
def test_picard_rows_match_the_solution_grid(tmp_path, case):
    """The CLI reads its picard rows off the solver's route; each value
    and SE agrees with the row built from picard_full_freeze's
    SolutionGrid on the same scenario and seed."""
    from mfbsde import picard_full_freeze, simulate_ensemble

    atoms, phi, sections = SUMMARY_CASES[case]
    text = SUMMARY_INI.format(atoms=atoms, phi=phi) + sections
    ini = tmp_path / "s.ini"
    ini.write_text(text)
    out = tmp_path / "out"
    assert main(["picard", "--config", str(ini), "--out", str(out)]) == 0
    got = [ln.split(",") for ln in
           (out / "picard_solution.csv").read_text().splitlines()[2:]]

    cfg = parse_config(text)
    ens = simulate_ensemble(cfg.grid, cfg.levy, cfg.n_paths, cfg.seed)
    sol, rep = picard_full_freeze(
        cfg.driver, cfg.phi, cfg.linear.terminal, ens, cfg.basis,
        tol=cfg.tol, max_iter=cfg.max_iter)
    assert rep.converged
    want = [("ybar", i, v, 0.0) for i, v in enumerate(sol.ybar)]
    want += [("zbar", i, v, 0.0) for i, v in enumerate(sol.zbar)]
    for a in range(cfg.levy.n_atoms):
        want += [(f"kbar_atom{a}", i, v, 0.0)
                 for i, v in enumerate(sol.kbar[:, a])]
    want.append(("y0", 0, sol.y[:, 0].mean(),
                 sol.y[:, 1].std(ddof=1) / ens.n_paths ** 0.5))
    assert [(s, int(i)) for i, _, s, _, _ in got] == \
        [(s, i) for s, i, _, _ in want]
    for (*_, value, se), (_, _, v, e) in zip(got, want):
        for g, w in ((float(value), v), (float(se), e)):
            assert abs(g - w) <= max(1e-10 * abs(w), 1e-14)


PICARD_RSS = textwrap.dedent("""
    import resource, sys
    from mfbsde.cli import main
    before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    main(["picard", "--config", sys.argv[1], "--out", sys.argv[2]])
    after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print((after - before) * 1024)
""")


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="ru_maxrss is in KiB on Linux only")
def test_picard_peak_rss_below_two_path_arrays(tmp_path):
    """A CLI picard run on a catalog driver writes no (n, M+1) solution:
    at 1e5 paths and M=50 its peak RSS grows by less than two such
    arrays, of which the ensemble is about one."""
    ini = tmp_path / "picard.ini"
    ini.write_text(DETERMINISM_PICARD.replace("steps = 100", "steps = 50")
                   .replace("paths = 20000", "paths = 100000")
                   .replace("1.0:0.5, -0.5:0.7", "1.0:0.5"))
    src = str(Path(mfbsde.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    grown = int(subprocess.run(
        [sys.executable, "-c", PICARD_RSS, str(ini), str(tmp_path / "out")],
        env=env, check=True, capture_output=True, text=True).stdout)
    assert grown < 2 * 100000 * 51 * 8
