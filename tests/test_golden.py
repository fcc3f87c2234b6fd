"""Golden reports: the SHA-256 of every shipped fixture's JSON report.

Each run's report bytes are pinned, so a refactor that should not change
any verdict, counter or ordering proves it here.  Paths are passed
relative to the repository root, as they appear in the report's `inputs`.
A command line the parser rejects exits 2 and writes nothing to stdout.
"""

import hashlib

import pytest

from ctm.cli import main
from conftest import REPO_ROOT

GOLDEN = [
    ("check models/contradiction.ctm", 1, "dafcfd84030846af6f02f9701bc26a0642af0ea597076c96e48ad2416518ea50"),
    ("check models/contradiction.ctm --horizon 3", 1, "abffbb7f722318f8d76a1c5021a5250db114a4712a630ff9810b6d19cad49d47"),
    ("classify models/contradiction.ctm", 2, "fa880a2e765997956ec8ee153e8d5fa452258f46008dfb658e3ce192bb1afa21"),
    # classify reads no --horizon: argparse exits 2 and writes no report (the digest of "")
    ("classify models/contradiction.ctm --horizon 3", 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("check models/degenerate.ctm", 0, "85416916ca9cb4e7a696b3f9d1a503c0a8531e424bd264418a314e57cf08f14e"),
    ("check models/degenerate.ctm --horizon 3", 0, "9cedc61792214b5da628189739a63d5de8e25781450ad19c0b81a04ddd877cce"),
    ("classify models/degenerate.ctm", 2, "29df6adbf225561e5c16eda6a38090c35cf700a65a0651cb691367e4464cc786"),
    ("classify models/degenerate.ctm --horizon 3", 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("check models/linear.ctm", 0, "b6795e4c06a559cc73c5d74e9db5e6278e7e3cd71eac38e76b89c51d6f2b5552"),
    ("check models/linear.ctm --horizon 3", 0, "cce5b10b2bbf90800e01388e28fd017f8288cd2c300682ea0f240f5c7c6fc4ef"),
    ("classify models/linear.ctm", 0, "8d544d96847d7039942ec40ca2580ab6187ef65f4c9b934a048706aa802a58cc"),
    ("classify models/linear.ctm --horizon 3", 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("check models/nulltask.ctm", 0, "fb5a92e64cc42a9a9f86cd05affb1c00dceb6d4fb1ffdb99cccc6feb3e19a8ae"),
    ("check models/nulltask.ctm --horizon 3", 0, "672a872c2849e4b01f2e8ef2f6a49e0f6523654c8ab894ab1b4266a1ca205676"),
    ("classify models/nulltask.ctm", 2, "83375500ac4eb6f845d5fe2f02686f38b88db71859ad123229297f8114671246"),
    ("classify models/nulltask.ctm --horizon 3", 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("check models/rotation.ctm", 0, "6b03f45f6c9d2397bd8d4b3ab0b3aab88609e04c0eb481b3461273841c3368ae"),
    ("check models/rotation.ctm --horizon 3", 0, "cae17f7887613ec23d408846dd72212623608cffedcbd1ad13a14ab8dba87bcd"),
    ("classify models/rotation.ctm", 0, "90d1cdd4ac37ff0da81e515317d852e46e3ff9e2481c279aaf7dc791d0b05406"),
    ("classify models/rotation.ctm --horizon 3", 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("check models/timers.ctm", 0, "e1dff3b49f03f6b53d7255da58dfee2c010887e032af67d4dbbb8ac2f895430a"),
    ("check models/timers.ctm --horizon 3", 0, "499b45afb8a93b9c1a98e95f858d10c4277cdb18ef0059e765d649cb09ad7f2c"),
    ("classify models/timers.ctm", 0, "11f0656a7cde9eff65a96c672e4a15b756e2db5913b78b5397ca5edde900b208"),
    ("classify models/timers.ctm --horizon 3", 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("dynamics models/rotation.ctm --variable theta --schedule 8,4,2,1", 0, "ed5505721668ae6564b419cb2f505e418acc74cdf37cc1d56f2d878b40280ec2"),
    ("dynamics models/linear.ctm --variable pos --schedule 8,4,2,1", 0, "adf0180ca17114ad5538362db86d5221156ed6201fa8511677ad3605909d28e3"),
    # a non-whole λ on an integer variable is outside its domain: exit 2
    ("dynamics models/linear.ctm --variable pos --at 3/2 --schedule 8,4,2,1", 2, "8293df5d8a4ad6b58f00ccc02881f66009486d5437f5aaae52912dfa1afbc99a"),
]


@pytest.mark.parametrize("argv, status, digest", GOLDEN, ids=[row[0] for row in GOLDEN])
def test_report_digest(argv, status, digest, capsys, monkeypatch):
    monkeypatch.chdir(REPO_ROOT)
    try:
        got = main(argv.split())
    except SystemExit as e:
        got = e.code
    assert got == status
    assert hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest() == digest
