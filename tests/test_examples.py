"""Smoke tests for the example scripts (the fast ones).

Examples are user-facing documentation; they must keep running as the
API evolves.  Heavier examples are exercised implicitly through the
same analysis-layer entry points they call.
"""

import importlib.util
import pathlib
import re
import sys


EXAMPLES_DIR = pathlib.Path(__file__).resolve().parent.parent / "examples"


def load_example(name):
    path = EXAMPLES_DIR / name
    spec = importlib.util.spec_from_file_location(name.removesuffix(".py"), path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestQuickstart:
    def test_runs_to_completion(self, capsys):
        module = load_example("quickstart.py")
        module.main()
        out = capsys.readouterr().out
        assert "OK: output durable and exact after crash + recovery" in out

    def test_crash_is_detected(self, capsys):
        module = load_example("quickstart.py")
        module.main()
        out = capsys.readouterr().out
        assert "region consistent after crash? False" in out


class TestTmmCrashRecovery:
    def test_runs_to_completion(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "argv", ["tmm_crash_recovery.py"])
        load_example("tmm_crash_recovery.py").main()
        out = capsys.readouterr().out
        # The default crash point leaves blocks to repair, and the
        # count comes from the recovery's region marks.
        repaired = re.search(r"(\d+) blocks repaired", out)
        assert repaired is not None and int(repaired.group(1)) > 0
        assert out.rstrip().endswith("OK")


class TestExampleHygiene:
    def test_all_examples_import(self):
        # Loading runs each module's imports without calling main().
        for path in sorted(EXAMPLES_DIR.glob("*.py")):
            module = load_example(path.name)
            assert callable(module.main), path.name

    def test_all_examples_have_main(self):
        for path in sorted(EXAMPLES_DIR.glob("*.py")):
            source = path.read_text()
            assert "def main" in source, f"{path.name} lacks main()"
            assert '__name__ == "__main__"' in source, path.name

    def test_examples_documented_in_readme(self):
        readme = (EXAMPLES_DIR / "README.md").read_text()
        for path in sorted(EXAMPLES_DIR.glob("*.py")):
            assert path.name in readme, f"{path.name} missing from examples/README.md"
