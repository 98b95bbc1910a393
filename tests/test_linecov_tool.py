"""``tools/linecov.py`` lists the ``src/halfhandle`` lines no test runs."""

import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
LINECOV = ROOT / "tools" / "linecov.py"


def test_a_module_the_tests_never_import_is_listed():
    # the profile tests import the engine, never the generator
    proc = subprocess.run(
        [sys.executable, "-B", str(LINECOV), "-q",
         str(ROOT / "tests" / "test_dimension_profiles.py")],
        capture_output=True, text=True, timeout=120, cwd=ROOT)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    listed, module = {}, None  # module -> the texts of its lines not run
    for line in proc.stdout.splitlines():
        if line.startswith("src/"):
            module = listed.setdefault(line.split(":")[0], set())
        elif module is not None and line[:6].strip().isdigit():
            module.add(line[8:])
        else:
            module = None
    generator = listed["src/halfhandle/generator.py"]
    assert "MAX_POINTS = 10_000" in generator
    assert "if spec.points < 0:" in generator
    # the file tests dimension profiles: their lines ran
    profiles = listed.get("src/halfhandle/morse_data.py", set())
    assert "class DimensionProfile:" not in profiles
    assert not any(text.startswith("def dimension_profile(") for text in profiles)
