"""Golden reports: the SHA-256 of every shipped fixture's JSON report.

Each run's report bytes are pinned, so a refactor that should not change
any verdict, counter or ordering proves it here.  Paths are passed
relative to the repository root, as they appear in the report's `inputs`.
"""

import hashlib

import pytest

from ctm.cli import main
from conftest import REPO_ROOT

GOLDEN = [
    ("check models/contradiction.ctm", 1, "904fda9dacf2c9a2b3a10777bf558298dcf3df4cbc7e257d6f3fdd361d63b0d8"),
    ("check models/contradiction.ctm --horizon 3", 1, "c96eb5c442225c9cf77ba843610b304529fa67c5cb94194bd7a6e4a38789e554"),
    ("classify models/contradiction.ctm", 2, "0ed9b0c97b9849ba3dbd15879271e731ef93c80a49a84698d97615dd1d715a93"),
    ("classify models/contradiction.ctm --horizon 3", 2, "6cff6f0f20bbd9a1d14c3a13b8b1c1a22e6b5ab3e6768d48a1ba37c90bab1ad9"),
    ("check models/degenerate.ctm", 0, "d244501b2a8e426276d8f81a8c9058971cf012586798d1efb3fa24d06cd63a17"),
    ("check models/degenerate.ctm --horizon 3", 0, "71479195319baec0a9ffe5e055582c2de7d5515123e86c0220b172a3f7eaa296"),
    ("classify models/degenerate.ctm", 2, "0e006a3f4193d7a6e3a07cb5c538162ec8489e02c69276f041a5fd88a3dd6115"),
    ("classify models/degenerate.ctm --horizon 3", 2, "5695e9d35b56f004ecd30545dfcbee1d589571fb0b4279b5af0d2165ad486f54"),
    ("check models/linear.ctm", 0, "7a95ecc4032d5badd6dd47772894bb283b8f7071e9277169ca189891a6a8d0c3"),
    ("check models/linear.ctm --horizon 3", 0, "6cbfc2ade4715066810f19b21aa68fc96dc68b29c8f3a2e3d8b92ee5e225e68a"),
    ("classify models/linear.ctm", 0, "d230e6e2f91a0dbbd4d6d9d64a6b0e2999339f2c0a1aa053bf70f6b10b6f92ed"),
    ("classify models/linear.ctm --horizon 3", 0, "ae2869f781a7cbb0c9dc18a5909e1b709e6424dbbcf8b72f27c82aa6c5969dcf"),
    ("check models/nulltask.ctm", 0, "a31123d82e4cc993940c8e6849794408aa5a1cdccc2e612cde1fe31df87de311"),
    ("check models/nulltask.ctm --horizon 3", 0, "aec1ad70c3f60971177c41e4f9d30688a3346ef79bdbe95251098e18212c0ad9"),
    ("classify models/nulltask.ctm", 2, "f3b0f53742f705d60dece7a4ec5a11035d60f3857cdfb08a0e106da9de52700b"),
    ("classify models/nulltask.ctm --horizon 3", 2, "dc12572d8a1dbbac1b755944ea8bb74b521fbf20a1b711cb7db378161a15bd0a"),
    ("check models/rotation.ctm", 0, "b8c68bb84216ddb03b4c1dd12f55384090c223f8af347aa34fb3de15f1437e8b"),
    ("check models/rotation.ctm --horizon 3", 0, "cb2754f13b0fba3252de92f7d75f7236fb91502ea498d6c8a45575c25dffda12"),
    ("classify models/rotation.ctm", 0, "0b7b36b57e0b6123b45011b9d3646e23e649bc6249957c7d5e026736b1fb8d30"),
    ("classify models/rotation.ctm --horizon 3", 0, "c092dfe920cf46a8af56a5547f7da2dd501fc52df3c112e2e62d2fa1a7278051"),
    ("check models/timers.ctm", 0, "7e8176d7bfa71c6919cc36f2c9c1215d240df955b8e062f2ef294803de323541"),
    ("check models/timers.ctm --horizon 3", 0, "1f20a47fefa9e11d520eb6c39630e2af8ae9de52386d027d2cc48b09b2373d97"),
    ("classify models/timers.ctm", 0, "3eb3f283fb773bfead3c937ea8523c30003a0db4c88274b6333f26612dd64ecf"),
    ("classify models/timers.ctm --horizon 3", 0, "ad359e78e7d2d5d026a1ab39571aa8cde6aff25c0cf368957a3cf29664f60218"),
    ("dynamics models/rotation.ctm --variable theta --schedule 8,4,2,1", 0, "e2981aa467a64c9be1a7c5964fffc076be6008e988309a7aa4fd732fc4dd64a3"),
    ("dynamics models/linear.ctm --variable pos --schedule 8,4,2,1", 0, "334aff66169757c87e035c5212132875813db05b119038d9180d0b062a198167"),
    # a non-whole λ on an integer variable is outside its domain: exit 2
    ("dynamics models/linear.ctm --variable pos --at 3/2 --schedule 8,4,2,1", 2, "64eb48acccf51d9fd28e8fe9a5b8975787bb18b55a038b4b1ff751d8f9e4e516"),
]


@pytest.mark.parametrize("argv, status, digest", GOLDEN, ids=[row[0] for row in GOLDEN])
def test_report_digest(argv, status, digest, capsys, monkeypatch):
    monkeypatch.chdir(REPO_ROOT)
    assert main(argv.split()) == status
    assert hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest() == digest
