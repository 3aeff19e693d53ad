"""End-to-end command-line workflow on a generated scenario file.

Writes a scenario document, validates it, runs the linear pipeline and a
cross-checking Picard run on the same seed, and reads back the CSV/
manifest outputs.  A scenario with a bad value fails `validate` with
exit 2 and the offending section.key.  The demo exits non-zero when a
command gives an exit code other than the expected one.
"""
import json
import subprocess
import sys
import tempfile
from pathlib import Path

SCENARIO = """\
[run]
mode = linear

[grid]
horizon = 1.0
steps = 100

[levy]
atoms = 1.0:0.5

[mc]
paths = 20000
seed = 12

[terminal]
kind = brownian_linear
a = 0.5
b = 1.0

[linear_coeffs]
alpha1 = 0.2
alpha2 = 0.1
beta1 = 0.25
beta2 = 0.1
eta1 = 0.2
eta2 = 0.1
"""


def run(args, expect=0):
    proc = subprocess.run([sys.executable, "-m", "mfbsde.cli", *args],
                          capture_output=True, text=True)
    print(f"$ mfbsde {' '.join(args)}  -> exit {proc.returncode}")
    if proc.stdout.strip():
        print(proc.stdout.strip())
    if proc.stderr.strip():
        print(proc.stderr.strip())
    if proc.returncode != expect:
        sys.exit(f"expected exit {expect}, got {proc.returncode}")
    return proc


with tempfile.TemporaryDirectory() as tmp:
    tmp = Path(tmp)
    cfg = tmp / "scenario.ini"
    cfg.write_text(SCENARIO)
    out = tmp / "out"

    run(["validate", "--config", str(cfg)])

    # a bad value fails validation, naming its section.key
    bad = tmp / "bad.ini"
    bad.write_text(SCENARIO.replace("eta1 = 0.2", "eta1 = -1.5"))
    proc = run(["validate", "--config", str(bad)], expect=2)
    if "linear_coeffs.eta1" not in proc.stderr:
        sys.exit("validate did not name linear_coeffs.eta1")
    run(["linear", "--config", str(cfg), "--out", str(out)])

    body = (out / "linear_solution.csv").read_text().splitlines()
    print(f"\n{body[0]}")
    print(body[1])
    y0_row = next(ln for ln in body if ",y0," in ln)
    print(f"Y(0) row: {y0_row}")

    manifest = json.loads((out / "manifest.json").read_text())
    print(f"manifest: hash={manifest['config_hash']}, "
          f"seed={manifest['seed']}, mode={manifest['mode']}")

    # picard cross-check on the same scenario and seed
    cfg2 = tmp / "scenario_picard.ini"
    cfg2.write_text(SCENARIO.replace("mode = linear", "mode = picard")
                    + "\n[driver]\nname = linear\n"
                    + "[mean_functional]\nname = mean_yzk\n")
    out2 = tmp / "out2"
    run(["picard", "--config", str(cfg2), "--out", str(out2)])
    body2 = (out2 / "picard_solution.csv").read_text().splitlines()
    y0_row2 = next(ln for ln in body2 if ",y0," in ln)
    print(f"Picard Y(0) row: {y0_row2}")
