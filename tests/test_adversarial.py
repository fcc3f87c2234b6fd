"""Every case of the bounded-cost catalog (`adversarial.py`), each in a fresh `ctm` process.

The child caps its own address space at the case's limit and is killed at
the case's time bound, so a case that would blow up fails here instead of
hanging the run or exhausting the machine.
"""

import functools
import json
import resource
import subprocess
import sys

import jsonschema
import pytest

from adversarial import CASES, argv, model_path
from test_cli import SCHEMA


@pytest.fixture(scope="session")
def model_dir(tmp_path_factory):
    """One directory for the generated models, so a model that cases share is written once."""
    return tmp_path_factory.mktemp("adversarial")


def limit_address_space(limit):
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))


def param(case):
    marks = []
    if case.xfail:
        marks.append(pytest.mark.xfail(strict=True, reason=case.xfail))
    if case.skip:
        marks.append(pytest.mark.skip(reason=case.skip))
    return pytest.param(case, id=case.name, marks=marks)


@pytest.mark.parametrize("case", [param(case) for case in CASES])
def test_a_case_ends_within_its_bounds(model_dir, case):
    model = model_path(case, model_dir)
    try:
        result = subprocess.run(
            [sys.executable, "-m", "ctm.cli", *argv(case, model)],
            capture_output=True,
            text=True,
            timeout=case.seconds,
            preexec_fn=functools.partial(limit_address_space, case.mib << 20),
        )
    except subprocess.TimeoutExpired:
        pytest.fail(f"ctm {case.command} ran past {case.seconds} s")
    assert "Traceback" not in result.stderr
    assert result.returncode == case.status
    report = json.loads(result.stdout)
    assert report["exit_status"] == case.status
    jsonschema.validate(report, SCHEMA)
    case.check(report, model)
