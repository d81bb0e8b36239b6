"""Golden CLI outputs: every command of ``tools/golden_cli.py`` still gives
the exit code, stdout, stderr and files whose SHA-256 digests are kept in
``tools/golden_digests.json``, and every CLI option is in some command."""
import argparse
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "golden_cli.py"
DIGESTS = TOOL.with_name("golden_digests.json")


def test_golden_outputs_match_their_digests(tmp_path):
    kept = json.loads(DIGESTS.read_text())
    assert kept["blas_env"]["OPENBLAS_NUM_THREADS"] == "1"
    # BLAS threading can move the last bits of dense products, and OpenBLAS
    # reads its thread count only at start-up: hence the subprocess
    fresh = tmp_path / "digests.json"
    subprocess.run([sys.executable, str(TOOL), "digest", str(fresh)], check=True,
                   capture_output=True, timeout=600,
                   env=dict(os.environ, OPENBLAS_NUM_THREADS="1"))
    old, new = kept["digests"], json.loads(fresh.read_text())["digests"]
    differ = sorted(key for key in old.keys() | new.keys()
                    if old.get(key) != new.get(key))
    assert not differ, (
        f"{len(differ)} golden commands differ from {DIGESTS.name}. Run "
        "`tools/golden_cli.py compare` on captures of the parent and of this "
        "change; if the moves are meant, report them and rewrite the digests "
        "with `OPENBLAS_NUM_THREADS=1 python tools/golden_cli.py digest`:\n"
        + "\n".join(differ))


def test_every_cli_option_has_a_golden_command():
    from oneshot.cli import build_parser
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    spec = importlib.util.spec_from_file_location("golden_cli", TOOL)
    golden = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(golden)
    cmds = golden.commands()
    missing = [f"{name} {opt}" for name, p in sub.choices.items()
               for action in p._actions for opt in action.option_strings
               if opt.startswith("--") and opt != "--help"
               and not any(cmd[0] == name and any(a == opt or a.startswith(opt + "=")
                                                  for a in cmd[1:]) for cmd in cmds)]
    assert not missing, "options that no golden command passes: " + ", ".join(missing)
