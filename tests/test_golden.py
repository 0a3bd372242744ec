"""Every artifact keeps its bytes: the files of the runs in `golden.py`
have the SHA-256 digests recorded in tests/golden.json. Under another
environment key the digests are not comparable, and the test skips
naming the keys that differ."""

import json
import shutil

import numpy as np
import pytest

from golden import GOLDEN, check_digests, digests, environment_mismatch, write_runs
from helpers import record_array, tensor_data


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    write_runs(root)
    return root


def test_artifacts_match_golden_digests(runs):
    golden = json.loads(GOLDEN.read_text())
    mismatch = environment_mismatch(golden["environment"])
    if mismatch:
        pytest.skip(f"digests recorded under another environment: {mismatch}")
    check_digests(golden["digests"], digests(runs))


def test_a_flipped_float_in_a_student_fails_naming_the_file(runs, tmp_path):
    expected = digests(runs)
    copy = tmp_path / "copy"
    shutil.copytree(runs, copy)
    path = copy / "criterion-9" / "student.json"
    payload = json.loads(path.read_text())
    record = payload["tensors"][0]
    values = record_array(record).copy()
    values.flat[0] = np.nextafter(values.flat[0], np.inf)
    record["data"] = tensor_data(values)
    path.write_text(json.dumps(payload))
    with pytest.raises(AssertionError, match=r"golden\.json: criterion-9/student\.json$"):
        check_digests(expected, digests(copy))
