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
    ("check models/contradiction.ctm", 1, "f613473e8e9b6238b395ad6b122433f9abf144f05025360b75ed267fd43f6890"),
    ("check models/contradiction.ctm --horizon 3", 1, "6ee8b88ac791d0ad130a5b517b08c28d4c4e4c52ed81c09f35a07a64532cc45b"),
    ("classify models/contradiction.ctm", 2, "bb21b34855450524e0dff671e74916ed4d1633bd4e9bfb6b219573474365a3b3"),
    ("classify models/contradiction.ctm --horizon 3", 2, "1117afef3fd8320e39eda961017f795f2af4dbae3c6de1763eea1cc9c2c88fb5"),
    ("check models/degenerate.ctm", 0, "36d8d68e3648e98e00f5905adfbc154b98c005252c8245db24e4ca4bfe6d9b5b"),
    ("check models/degenerate.ctm --horizon 3", 0, "a268d76b90856ed7694cac4a427091511d5e7f0e5b9556b2ce7ee143a540b281"),
    ("classify models/degenerate.ctm", 2, "7245a466025724ab40aa1a828baa98ef0d4825e5fba1282db70d80dadc01fe86"),
    ("classify models/degenerate.ctm --horizon 3", 2, "c6408b49d109b9339a0fc06c7527298bbd08502fb62af860a0af0589929818e5"),
    ("check models/linear.ctm", 0, "ef91ba0db9c281eb7029e8b64b3bcbaf0eda77e367bc75b0d3ce98e6688fcb95"),
    ("check models/linear.ctm --horizon 3", 0, "eac8d13f38b50fb13a8f4bc373cae428143043ec1bc7a7dc724cb2d1f148bb17"),
    ("classify models/linear.ctm", 0, "a70011deb944a9ed45250caff55d5f41a2c93b09fcba2bdd8cee719dfd5268c5"),
    ("classify models/linear.ctm --horizon 3", 0, "86a5a64e7a0c7e092317ff8b9115d892ff50312d2a3c083f1bb485b906919d9d"),
    ("check models/nulltask.ctm", 0, "a37eb0789c0766f448585a445db062288a09eb509906fcd3d8ae4313c051a941"),
    ("check models/nulltask.ctm --horizon 3", 0, "294539d86ee594c5c1752928459fd4373b57088171617c0a2c0c3cbf47baffdc"),
    ("classify models/nulltask.ctm", 2, "b04ee28e4fcfef106faed817aff3ecb8eb16aae708b0823866411bb8e8d36892"),
    ("classify models/nulltask.ctm --horizon 3", 2, "c40c6bba0b2d5ba442c39b859d36941a390b7ea298cf7ffa777a377420045e7f"),
    ("check models/rotation.ctm", 0, "31510e96db8de1d92ef60f9cd2f9936a355f9ac1607ad66b40f6a90e3ac8d3ae"),
    ("check models/rotation.ctm --horizon 3", 0, "650add7305dc6e7c578cb4c84104fa5e676d8d34386e427fd9174e35a85436fe"),
    ("classify models/rotation.ctm", 0, "4c08cfafe58d310f3cbec4b9521487ccddc61a21ce6e98a571575f506227d3e7"),
    ("classify models/rotation.ctm --horizon 3", 0, "c9513c570e5c090f555c673c8f1b05304a3bcf4a9f2c8f5fc31a90ffcea22f7b"),
    ("check models/timers.ctm", 0, "e380f758c62ceff0a86b2e0643b2a179e9ace0ce8e4bbb4d856f32ee1fccc543"),
    ("check models/timers.ctm --horizon 3", 0, "c0c855681669777180b32865251df6c0aab567732c1bff0a5574885dcec71653"),
    ("classify models/timers.ctm", 0, "9105ac17fd88bc2f76dc6fb0f4c9e1c6425a7c7f9e75735b4d40fff3039e8538"),
    ("classify models/timers.ctm --horizon 3", 0, "a23de63102f8491724321444b1968732a4c151242ee9a00266680c70d0fbe712"),
    ("dynamics models/rotation.ctm --variable theta --schedule 8,4,2,1", 0, "a8e75fed545045ebb17c2cdba01e861e696d4cfa8e3f2dc78605a4d50a192f7b"),
    ("dynamics models/linear.ctm --variable pos --schedule 8,4,2,1", 0, "da30ac8e8bc2e3d2978fcf993514f5293514191dec81e1701aa0300a73cc7b93"),
    # a non-whole λ on an integer variable is outside its domain: exit 2
    ("dynamics models/linear.ctm --variable pos --at 3/2 --schedule 8,4,2,1", 2, "2b68952b5af046b78c5445ceae010750671b582d5937dfc6dc558f0a9643d9f3"),
]


@pytest.mark.parametrize("argv, status, digest", GOLDEN, ids=[row[0] for row in GOLDEN])
def test_report_digest(argv, status, digest, capsys, monkeypatch):
    monkeypatch.chdir(REPO_ROOT)
    assert main(argv.split()) == status
    assert hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest() == digest
