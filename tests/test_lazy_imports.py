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
