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
yet seen what numpy 1.x prints for them (ROADMAP item 2). `report` prints
each case's differences from its files without failing, for such a run.

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
# a --dominance-output argument, replaced by a path beside the config
DOMINANCE = "<dominance>"
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
    "mc_toeplitz_sweep_threads2": (
        ["mc", "--config", CONFIG, "--threads", "2", "--format", "json"],
        {"family": "toeplitz", "p": 8, "ratios": [0.25, 0.5, 1.0], "replicates": 30, "seed": 13,
         "statistics": "scaled_norm"}),
    "gumbel_compare_dominance": (
        ["gumbel-compare", "--config", CONFIG, "--threads", "1", "--dominance-output", DOMINANCE],
        {"family": "circulant", "p": 8, "n": 16, "replicates": 500, "seed": 17}),
    "paired_half_dominance": (
        ["paired", "--config", CONFIG, "--threads", "1", "--dominance-output", DOMINANCE],
        {"family": "circulant", "p": 16, "n": 32, "replicates": 500, "seed": 20240902}),
    "ktable": (["ktable", "--grid", "0.5:0.5:1", "--p-base", "100"], None),
    "theta": (["theta", "--grid", "0.25:0.25:1"], None),
})


def run_case(name: str, workdir: Path) -> tuple[int, dict[str, str]]:
    """Exit code of the case's command and its outputs by file suffix:
    "stdout", "raw.csv" for a raw_output file and "dominance.csv" for a
    --dominance-output file."""
    argv, config = CASES[name]
    files = {"dominance.csv": workdir / f"{name}.dominance.csv"} if DOMINANCE in argv else {}
    if config is not None:
        config = dict(config)
        if "raw_output" in config:
            files["raw.csv"] = workdir / config["raw_output"]
            config["raw_output"] = str(files["raw.csv"])
        path = workdir / f"{name}.json"
        path.write_text(json.dumps(config))
        argv = [str(path) if arg == CONFIG else arg for arg in argv]
    argv = [str(files["dominance.csv"]) if arg == DOMINANCE else arg for arg in argv]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    outputs = {"stdout": out.getvalue()}
    outputs.update((suffix, path.read_text()) for suffix, path in files.items())
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


def report() -> int:
    """Run every case and print, per output file, its unified diff against
    the golden file after `golden_text` on both sides, and any exit code
    that differs. Returns 1 if some case differs, else 0."""
    import difflib
    import tempfile

    codes = json.loads(CODES.read_text())
    differing = []
    with tempfile.TemporaryDirectory() as workdir:
        for name in sorted(CASES):
            code, outputs = run_case(name, Path(workdir))
            lines = [] if code == codes[name] else [f"exit code {code}, golden {codes[name]}\n"]
            for suffix, text in sorted(outputs.items()):
                path = OUTPUTS / f"{name}.{suffix}"
                expected = golden_text(path.read_text()) if path.exists() else ""
                lines += difflib.unified_diff(expected.splitlines(True),
                                              golden_text(text).splitlines(True),
                                              f"golden/{path.name}", f"this run/{path.name}")
            print(f"{name}: {'differs' if lines else 'matches'}")
            sys.stdout.writelines(lines)
            if lines:
                differing.append(name)
    print(f"{len(differing)} of {len(CASES)} cases differ: {', '.join(differing) or 'none'}")
    return int(bool(differing))


def test_report_prints_each_differing_file_and_exit_code(tmp_path, monkeypatch, capsys):
    import test_outputs

    golden = tmp_path / "outputs"
    golden.mkdir()
    # this run's own text, so that the case matches on any numpy
    (golden / "theta.stdout").write_text(run_case("theta", tmp_path)[1]["stdout"])
    (golden / "exit_codes.json").write_text('{"theta": 0, "ktable": 3}')
    monkeypatch.setattr(test_outputs, "OUTPUTS", golden)
    monkeypatch.setattr(test_outputs, "CODES", golden / "exit_codes.json")
    monkeypatch.setattr(test_outputs, "CASES", {name: CASES[name] for name in ("theta", "ktable")})
    assert test_outputs.report() == 1
    out = capsys.readouterr().out
    assert "theta: matches\n" in out
    assert "ktable: differs\nexit code 0, golden 3\n" in out
    assert "+++ this run/ktable.stdout" in out  # no golden file: every line is new
    assert out.endswith("1 of 2 cases differ: ktable\n")


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
