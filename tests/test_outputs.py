"""Golden outputs: the exit code, stdout and written files of fixed commands,
against the files under tests/outputs/.

Every command runs in process through `cli.main`. The files hold the text
as numpy 2.4 printed it on the machine that made them. Exit codes and text
must match exactly, after `golden_text` on both sides: it cuts each float
with a decimal point to 12 significant digits, as the CSV outputs already
print them, and leaves out the value of `dense_rel_error`, which is itself
a rounding error (the exit code of `norm --dense-check` still gates it at
1e-8). The digits it drops come from the kernels that BLAS, LAPACK and
numpy's SIMD loops pick for the CPU, which no file can pin. A last-bit move
can still flip a 12th digit when a value sits on a rounding boundary.

On numpy < 2 (the CI floor job) the golden cases are skipped: nobody has
yet seen what numpy 1.x prints for them (ROADMAP item 2).

A change that means to alter an output regenerates the files with
``python tests/test_outputs.py`` and lists each changed file in CHANGES.md.
"""

import contextlib
import io
import json
import re
import sys
from pathlib import Path

import numpy as np
import pytest

from specnorm.cli import main
from specnorm.structured import FAMILIES

OUTPUTS = Path(__file__).parent / "outputs"
CODES = OUTPUTS / "exit_codes.json"
OLD_NUMPY = int(np.__version__.split(".")[0]) < 2

# a config argument, replaced by the path of the case's config file
CONFIG = "<config>"
# the C7 experiment: the paired bound on circulant 64x128
C7 = {"family": "circulant", "p": 64, "n": 128, "replicates": 100, "seed": 101}


def _norm_case(family: str, symmetric: bool) -> tuple[str, tuple[list[str], dict | None]]:
    name = f"norm_{family}{'_symmetric' if symmetric else ''}_30x70"
    argv = ["norm", "--family", family, "--p", "30", "--n", "70", "--seed", "5",
            "--dense-check", "--format", "json"] + (["--symmetric"] if symmetric else [])
    return name, (argv, None)


# name -> (argv, config or None); a config's raw_output is written beside it
CASES = dict(_norm_case(family, symmetric) for family in FAMILIES for symmetric in (False, True))
CASES.update({
    "norm_toeplitz_1000x10000": (
        ["norm", "--family", "toeplitz", "--p", "1000", "--n", "10000", "--seed", "7",
         "--format", "json"], None),
    "paired_c7_threads1": (["paired", "--config", CONFIG, "--threads", "1", "--format", "json"],
                           C7),
    "paired_c7_threads2": (["paired", "--config", CONFIG, "--threads", "2", "--format", "json"],
                           C7),
    "mc_b_statistic": (
        ["mc", "--config", CONFIG, "--threads", "1", "--format", "json"],
        {"family": "circulant", "p": 32, "n": 64, "replicates": 200, "seed": 3,
         "statistics": "b_statistic"}),
    "mc_raw_output": (
        ["mc", "--config", CONFIG, "--threads", "1", "--format", "json"],
        {"family": "toeplitz", "p": 10, "n": 40, "replicates": 40, "seed": 11,
         "statistics": "centered_norm_sq", "raw_output": "raw.csv"}),
    "ktable": (["ktable", "--grid", "0.5:0.5:1", "--p-base", "100"], None),
    "theta": (["theta", "--grid", "0.25:0.25:1"], None),
})


def run_case(name: str, workdir: Path) -> tuple[int, dict[str, str]]:
    """Exit code of the case's command and its outputs by file suffix:
    "stdout", and "raw.csv" for a raw_output file."""
    argv, config = CASES[name]
    if config is not None:
        config = dict(config)
        if "raw_output" in config:
            config["raw_output"] = str(workdir / config["raw_output"])
        path = workdir / f"{name}.json"
        path.write_text(json.dumps(config))
        argv = [str(path) if arg == CONFIG else arg for arg in argv]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    outputs = {"stdout": out.getvalue()}
    if config is not None and "raw_output" in config:
        outputs["raw.csv"] = Path(config["raw_output"]).read_text()
    return code, outputs


# a float with a decimal point, as repr, json and the CSV writer print it
_FLOAT = re.compile(r"-?\d+\.\d+(e[-+]\d+)?")


def golden_text(text: str) -> str:
    """`text` without the digits the golden files do not pin (see the module
    docstring)."""
    text = re.sub(r'("dense_rel_error": )[^,}\n]+', r'\1"rounding error"', text)
    return _FLOAT.sub(lambda match: f"{float(match.group()):.12g}", text)


def test_every_case_has_its_files():
    assert sorted(json.loads(CODES.read_text())) == sorted(CASES)
    names = {path.name.partition(".")[0] for path in OUTPUTS.iterdir() if path != CODES}
    assert names == set(CASES)


@pytest.mark.skipif(OLD_NUMPY,
                    reason="goldens made on numpy 2.4; floor-job output not yet observed")
@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_golden(name, tmp_path):
    code, outputs = run_case(name, tmp_path)
    assert code == json.loads(CODES.read_text())[name]
    assert sorted(outputs) == sorted(
        path.name.partition(".")[2] for path in OUTPUTS.glob(f"{name}.*"))
    for suffix, text in outputs.items():
        expected = (OUTPUTS / f"{name}.{suffix}").read_text()
        assert golden_text(text) == golden_text(expected), f"{name}.{suffix}:\n{text}"


def test_golden_text_drops_only_digits_no_file_pins():
    def line(sigma: str, steps: int, error: str) -> str:
        return f'{{"sigma_max": {sigma}, "iterations": {steps}, "dense_rel_error": {error}}}\n'

    golden = golden_text(line("24.0531862409347", 17, "0.0") + "0.123456789012,1e-05\n")
    # the last bit of a full-precision float, and a rounding error's value
    assert golden_text(line("24.053186240934704", 17, "5.239582693872668e-16")
                       + "0.123456789012,1e-05\n") == golden
    for wrong in (line("24.0531862419347", 17, "0.0") + "0.123456789012,1e-05\n",
                  line("24.0531862409347", 18, "0.0") + "0.123456789012,1e-05\n",
                  line("24.0531862409347", 17, "0.0") + "0.123456789013,1e-05\n",
                  line("24.0531862409347", 17, "0.0") + "0.123456789012,1e-06\n"):
        assert golden_text(wrong) != golden, wrong


def regenerate() -> None:
    """Rewrite every file under tests/outputs/ from the code as it is."""
    import tempfile

    OUTPUTS.mkdir(exist_ok=True)
    for path in OUTPUTS.iterdir():
        path.unlink()
    codes = {}
    with tempfile.TemporaryDirectory() as workdir:
        for name in sorted(CASES):
            codes[name], outputs = run_case(name, Path(workdir))
            for suffix, text in outputs.items():
                (OUTPUTS / f"{name}.{suffix}").write_text(text)
    CODES.write_text(json.dumps(codes, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    sys.exit(regenerate())
