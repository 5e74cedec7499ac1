"""The golden qi-cli transcript: every perfbench ``cli_mix`` request of seeds 1
and 2, plus the known-defect requests, run in-process through ``cli.main`` in
JSON and in ``--format text``, with exit code, stdout and stderr.

Regenerate the committed fixture after a change that means to alter output:

    PYTHONPATH=src python tests/cli_golden.py

Its git diff is then the list of changed lines.
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import pathlib
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent
FIXTURE = ROOT / "tests" / "fixtures" / "cli_golden.json"
SEEDS = (1, 2)


def perfbench_workloads():
    """The benchmark's ``perfbench/workloads.py`` module, imported without
    leaving ``perfbench/`` on ``sys.path``."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        import workloads
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
    return workloads


def transcript(workdir: pathlib.Path) -> list[dict]:
    """Write the inputs under ``workdir`` and run every request from there,
    so state paths in argv and messages are relative to it."""
    workloads = perfbench_workloads()
    from qilab import cli

    runs = []
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        for seed in SEEDS:
            inputs = pathlib.Path(f"seed{seed}")
            requests = workloads.write_cli_inputs(seed, inputs)
            requests += [req for _, req in workloads.known_defect_requests(inputs)]
            for req in requests:
                for fmt in ("json", "text"):
                    argv = ["--seed", str(seed), "--format", fmt, *req.argv]
                    out, err = io.StringIO(), io.StringIO()
                    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                        code = cli.main(argv)
                    runs.append({"argv": argv, "exit": code,
                                 "stdout": out.getvalue(), "stderr": err.getvalue()})
    finally:
        os.chdir(cwd)
    return runs


def dumps(runs: list[dict]) -> str:
    return json.dumps(runs, indent=1, ensure_ascii=False) + "\n"


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        FIXTURE.write_text(dumps(transcript(pathlib.Path(tmp))))
    print(f"wrote {FIXTURE}")
