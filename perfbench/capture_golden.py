"""Record the golden CLI outputs that the replay-cli workload checks.

    python3 perfbench/capture_golden.py

Runs every ``semiortho ...`` example of the README's CLI section, with
``--format machine`` appended, and stores its argv, exit code and stdout in
``perfbench/golden.json``.  It also runs the error-path invocations below,
whose contract is exit 2 with no traceback, and stores the exit code and
whether a traceback appeared, so a run can tell a recorded defect from a new
failure.  Re-run it only to re-baseline; a diff of golden.json is the
before/after evidence that CLI behaviour is unchanged.
"""

import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Usage and data errors that must exit 2 without a traceback.  The atlas
# case points --data at a directory; the benchmark's own one always exists.
ERROR_PATHS = (
    ["decompose", "--chi", "2x*V1"],
    ["decompose", "--chi", "V1++"],
    ["detcheck", "--sample", "3", "--max-degree", "0"],
    ["sonb", "--profile", "pn:20", "--mod", "7"],
    ["atlas", "--data", HERE.name],
)


def readme_examples(readme):
    """argv of each line starting with 'semiortho ' in the CLI section."""
    section = readme.split("## CLI", 1)[1].split("\n## ", 1)[0]
    out = []
    for line in section.splitlines():
        if line.startswith("semiortho "):
            command = line.split("#", 1)[0]
            out.append(shlex.split(command)[1:] + ["--format", "machine"])
    return out


def run_cli(argv):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, "-m", "semiortho.cli", *argv],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )


def main():
    commands = []
    for argv in readme_examples((ROOT / "README.md").read_text()):
        done = run_cli(argv)
        commands.append({"argv": argv, "exit": done.returncode, "stdout": done.stdout})
    errors = []
    for argv in ERROR_PATHS:
        argv = argv + ["--format", "machine"]
        done = run_cli(argv)
        errors.append({
            "argv": argv,
            "recorded_exit": done.returncode,
            "recorded_traceback": "Traceback" in done.stderr,
        })
    golden = {"commands": commands, "error_paths": errors}
    (HERE / "golden.json").write_text(json.dumps(golden, indent=1) + "\n")
    print(f"{len(commands)} examples, {len(errors)} error paths")


if __name__ == "__main__":
    main()
