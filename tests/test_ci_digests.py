"""The stdout digests that `.github/workflows/tests.yml` pins for the
installed `k3fm` script, checked in process.  Each pin is read from the
workflow (`digest=$(k3fm ARGS | sha256sum)` and the `test "$digest" =
"HEX  -"` line after it), so it is written in one place."""

import hashlib
import re
from pathlib import Path

from k3fm.cli import main

WORKFLOW = Path(__file__).resolve().parents[1] / ".github" / "workflows" / "tests.yml"
PIN = re.compile(r'digest=\$\(k3fm ([^|\n]+) \| sha256sum\)\n\s*'
                 r'test "\$digest" = "([0-9a-f]{64})  -"')


def test_workflow_digests_hold_in_process(capsys):
    text = WORKFLOW.read_text(encoding="utf-8")
    pins = PIN.findall(text)
    assert len(pins) == text.count("digest=$(k3fm ") == 8
    for args, digest in pins:
        assert main(args.split()) == 0, args
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest, args
