"""The repo must pass its own gate: `repro check` clean on `src/repro`.

This is the self-enforcing half of the lint gate — any future PR that
introduces a seeded RNG violation, a broad except, an unjustified
waiver or an uncovered autograd op fails plain `pytest` here, not just
the CI `repro check` step.
"""

from pathlib import Path

import pytest

import repro
from repro.check import run_gradcheck, run_lint
from repro.check.cli import main

PACKAGE_DIR = Path(repro.__file__).resolve().parent


def test_lint_clean_on_own_source():
    findings = run_lint([PACKAGE_DIR])
    assert findings == [], "\n".join(f.format() for f in findings)


def test_gradcheck_clean_on_own_ops():
    findings = run_gradcheck()
    assert findings == [], "\n".join(f.format() for f in findings)


def test_cli_default_target_is_package_and_exits_zero(capsys):
    assert main([]) == 0
    assert "clean" in capsys.readouterr().out


def test_seeded_violation_flips_exit_status(tmp_path, capsys):
    """Introducing a violation must turn the gate red."""
    bad = tmp_path / "regression.py"
    bad.write_text(
        "import numpy as np\n"
        "def cache_key(name):\n"
        "    np.random.seed(0)\n"
        "    return hash(name)\n"
    )
    status = main([str(bad)])
    out = capsys.readouterr().out
    assert status == 1
    assert "builtin-hash" in out and "unseeded-rng" in out


@pytest.mark.parametrize("target, message", [
    ("no_such_file.py", "does not exist"),
    ("README.md", "no Python file"),      # a file that is not Python
    ("empty-dir", "no Python file"),      # a directory without one
], ids=["missing", "not-python", "empty-dir"])
def test_nonexistent_path_is_a_usage_error(tmp_path, capsys, target,
                                           message):
    """A path that yields no ``.py`` file is refused, not called clean."""
    (tmp_path / "README.md").write_text("# not python\n")
    (tmp_path / "empty-dir").mkdir()
    status = main([str(tmp_path / target)])
    out = capsys.readouterr().out
    assert status == 2
    assert message in out and "repro check: clean" not in out


@pytest.mark.parametrize("repro_cli", [False, True],
                         ids=["python-m-repro.check", "repro-check"])
def test_every_pass_switched_off_is_a_usage_error(capsys, repro_cli):
    """--no-lint --no-gradcheck checks nothing, so it is not `clean`."""
    from repro.cli import main as repro_main

    flags = ["--no-lint", "--no-gradcheck"]
    status = repro_main(["check", *flags]) if repro_cli else main(flags)
    out = capsys.readouterr().out
    assert status == 2
    assert "nothing to check" in out and "clean" not in out
