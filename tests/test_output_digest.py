import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "tools" / "output_digest.py"


def _load():
    spec = importlib.util.spec_from_file_location("output_digest", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_digest_lists_37_distinct_commands():
    commands = _load().commands()
    assert len(commands) == 37
    assert len({tuple(argv) for argv in commands}) == 37
    assert all(argv[-2:] == ["--format", "json"] for argv in commands)


def test_digest_ignores_wall_time_only():
    digest = _load().digest
    small = ["verify", "--samples", "64", "--ode-steps", "16", "--format", "json"]
    first = digest(small)
    assert len(first) == 16
    assert digest(small) == first
    assert digest(small[:1] + ["--seed", "1"] + small[1:]) != first
