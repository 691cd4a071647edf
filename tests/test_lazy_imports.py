"""Start-up loads no layer: `singlink` resolves its names on first access,
and each CLI handler imports the layers it calls."""

import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _python(code: str) -> str:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_cli_start_up_loads_no_layer():
    out = _python(
        "import sys, singlink.cli\n"
        "singlink.cli.build_parser()\n"
        "print(' '.join(sorted(m for m in sys.modules if m.split('.')[0] == 'singlink')))\n"
    )
    assert out.split() == ["singlink", "singlink.cli"]


def _run_cli(*argvs) -> tuple[list[int], list[str]]:
    # One fresh interpreter runs cli.main on each argv: the exit codes,
    # then every module it holds at the end.
    codes, modules = _python(
        "import contextlib, io, sys, singlink.cli\n"
        "codes = []\n"
        f"for argv in {[list(argv) for argv in argvs]!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
        "        codes.append(singlink.cli.main(argv))\n"
        "print(*codes)\n"
        "print(' '.join(sorted(sys.modules)))\n"
    ).splitlines()
    return [int(code) for code in codes.split()], modules.split()


def _singlink(modules: list[str]) -> list[str]:
    return [m for m in modules if m.split(".")[0] == "singlink"]


def test_counting_commands_load_no_laurent_algebra():
    # Counting runs on term maps (fqmath); exactmath serves only the
    # dense oracles and seed enumeration.  The last input exits 3.
    codes, loaded = _run_cli(
        ("theta", "--n", "4", "--count-fq", "5", "--positroid"),
        ("aug", "--ade", "A4", "--count-fq", "5", "--method", "dp"),
        ("aug", "--ade", "A4", "--count-fq", "5", "--method", "brute"),
        ("aug", "--ade", "D4", "--count-fq", "101"),
    )
    assert codes == [0, 0, 0, 3]
    assert _singlink(loaded) == [
        "singlink",
        "singlink.augment",
        "singlink.cli",
        "singlink.fqmath",
        "singlink.links",
        "singlink.records",
        "singlink.sheafmoduli",
    ]


def test_seed_enumeration_loads_no_counting_layer():
    codes, loaded = _run_cli(("seeds", "--type", "A3", "--summary"))
    assert codes == [0]
    assert "singlink.cluster" in loaded
    assert "singlink.augment" not in loaded
    assert "singlink.sheafmoduli" not in loaded


def test_no_command_loads_dataclasses_or_inspect():
    # Value classes derive from records.Record: importing dataclasses
    # would load inspect (ast, dis, tokenize) in every fresh process.
    codes, loaded = _run_cli(
        ("link", "--ade", "E6", "--pipeline"),
        ("link", "--puiseux", "3,2 7,2"),
        ("quiver", "--divide-label", "E6"),
        ("classify", "--ade", "D5"),
        ("mutate", "--ade", "D4", "--at", "1"),
        ("seeds", "--type", "A3", "--summary"),
        ("aug", "--ade", "A4", "--count-fq", "5"),
        ("theta", "--n", "4", "--count-fq", "5"),
        ("check", "--fast"),
    )
    assert codes == [0, 0, 0, 0, 0, 0, 0, 0, 1]  # check --fast: criterion 9 is red
    assert "singlink.checks" in loaded
    assert "dataclasses" not in loaded
    assert "inspect" not in loaded


def test_integer_commands_load_no_fractions():
    # Classification, seed counts and the pipeline run on ints; fractions
    # would also load decimal.
    codes, loaded = _run_cli(
        ("classify", "--type", "E6"),
        ("mutate", "--ade", "D4", "--at", "1"),
        ("seeds", "--type", "B3", "--summary"),
        ("link", "--torus", "3", "4", "--pipeline"),
    )
    assert codes == [0, 0, 0, 0]
    assert "singlink.cluster" in loaded
    assert "fractions" not in loaded
    assert "decimal" not in loaded


def test_every_exported_name_resolves():
    out = _python(
        "import importlib, singlink\n"
        "for name in singlink.__all__:\n"
        "    owner = importlib.import_module(f'singlink.{singlink._OWNER[name]}')\n"
        "    assert getattr(singlink, name) is getattr(owner, name), name\n"
        "print(len(singlink.__all__), singlink.cluster.__name__)\n"
    )
    assert out.split() == ["53", "singlink.cluster"]


def test_unknown_name_is_an_attribute_error():
    import singlink

    assert not hasattr(singlink, "no_such_name")


def test_readme_library_snippet_runs():
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Library use", 1)[1]
    snippet = section.split("```python\n", 1)[1].split("```", 1)[0]
    lines = _python(snippet).splitlines()
    assert lines == ["D4", "50", "9"]
