"""tools/code_lines.py: code lines per module, and before/after against another checkout."""

import shutil
import subprocess
import sys
from pathlib import Path

_TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"


def checkout(root: Path, modules: dict[str, str]) -> Path:
    """A checkout with ``tools/code_lines.py`` and the given package modules."""
    (root / "tools").mkdir(parents=True)
    shutil.copy(_TOOL, root / "tools" / "code_lines.py")
    package = root / "src" / "mlnexact"
    package.mkdir(parents=True)
    for name, text in modules.items():
        (package / name).write_text(text)
    return root


def run(root: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(root / "tools" / "code_lines.py"), *args],
        capture_output=True,
        text=True,
    )


BEFORE = {
    "a.py": '"""Doc."""\n\nx = 1\n# note\ny = 2\n',
    "gone.py": "z = 3\n",
}
AFTER = {
    "a.py": '"""Doc."""\n\nx = 1\n\n\ndef f():\n    """Doc."""\n    return """a\n# kept\n"""\n',
    "new.py": "w = 4\nv = 5\n",
}


def test_one_checkout_prints_its_modules_and_total(tmp_path):
    after = checkout(tmp_path / "after", AFTER)
    out = run(after)
    assert out.returncode == 0
    assert out.stdout.splitlines() == ["     5  a.py", "     2  new.py", "     7  total"]


def test_another_checkout_gives_before_after_and_delta(tmp_path):
    before = checkout(tmp_path / "before", BEFORE)
    after = checkout(tmp_path / "after", AFTER)
    out = run(after, str(before))
    assert out.returncode == 0
    assert out.stdout.splitlines() == [
        "before   after   delta  module",
        "     2       5      +3  a.py",
        "     1       0      -1  gone.py",
        "     0       2      +2  new.py",
        "     3       7      +4  total",
    ]


def test_a_path_without_the_package_exits_two(tmp_path):
    after = checkout(tmp_path / "after", AFTER)
    out = run(after, str(tmp_path / "nowhere"))
    assert out.returncode == 2
    assert "no package" in out.stderr
    assert run(after, str(after), "extra").returncode == 2
