"""What a fresh `ctm` process imports.

No command runs the witness layer (`ctm.witnesses`), and the token parser
(`ctm._tokens`) reads only the statements the line reader does not
accept, so a `ctm` process on well-formed files loads neither.  No module
of the package loads `dataclasses` or, through it, `inspect`.  The
catalog of bounded-cost cases (`tests/adversarial.py`) loads only the
standard library.  Each test runs in a fresh interpreter, since this one
has imported every module already.
"""

import json
import os
import subprocess
import sys

from conftest import MODELS_DIR, REPO_ROOT

ON_DEMAND = ("ctm.witnesses", "ctm._tokens")
# standard modules the package never needs
UNNEEDED = ("dataclasses", "inspect")

# runs main on each argv of the JSON list in argv[1]; prints the exit statuses,
# the reports, and the ctm modules and UNNEEDED modules loaded
PROBE = f"""
import contextlib, io, json, sys
import ctm.cli
statuses, reports = [], []
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        statuses.append(ctm.cli.main(argv))
    reports.append(json.loads(out.getvalue()))
loaded = sorted(name for name in sys.modules if name.startswith("ctm") or name in {UNNEEDED})
print(json.dumps({{"statuses": statuses, "reports": reports, "loaded": loaded}}))
"""


def run_fresh(code: str, *args: str) -> str:
    path = os.pathsep.join(p for p in (str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    result = subprocess.run(
        [sys.executable, "-c", code, *args],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    return result.stdout


def probe(argvs: list[list[str]]) -> dict:
    return json.loads(run_fresh(PROBE, json.dumps(argvs)))


def test_commands_on_well_formed_files_load_neither_witnesses_nor_token_parser():
    fixtures = sorted(str(p) for p in MODELS_DIR.glob("*.ctm"))
    assert len(fixtures) == 6
    argvs = [["check", *fixtures], ["check", "--horizon", "3", *fixtures]]
    argvs += [["classify", path] for path in fixtures]
    argvs.append(
        ["dynamics", str(MODELS_DIR / "linear.ctm"), "--variable", "pos", "--schedule", "4,2,1"]
    )
    result = probe(argvs)
    # no file drew a parse diagnostic, so none reached the token parser
    assert result["statuses"][:2] == [1, 1] and result["statuses"][-1] == 0
    assert "ctm.cli" in result["loaded"]
    assert not set(ON_DEMAND + UNNEEDED) & set(result["loaded"])


# a model with one misspelt keyword and, after it, a statement missing its arrow
MALFORMED = (
    "substrate S { states a b c ; step (a b c) }\n"
    "attribute x on S { a }\n"
    "atribute y on S { b }\n"
    "attribute z on S { c }\n"
    "law possible x z on S\n"
)
# the token parser's diagnostics for MALFORMED, as they were before it left ctm.dsl
MALFORMED_DIAGNOSTICS = [
    {
        "severity": "error",
        "line": 3,
        "column": 1,
        "message": "expected a declaration keyword, found 'atribute'",
        "suggestion": "one of: substrate, attribute, timer, task, law, variable",
    },
    {
        "severity": "error",
        "line": 5,
        "column": 16,
        "message": "expected '->', found 'z'",
        "suggestion": None,
    },
]


def test_a_malformed_file_loads_the_token_parser_for_its_diagnostics(tmp_path):
    bad = tmp_path / "bad.ctm"
    bad.write_text(MALFORMED, encoding="utf-8")
    run_dynamics = ["dynamics", str(bad), "--variable", "v", "--schedule", "1"]
    result = probe([["check", str(bad)], run_dynamics])
    assert result["statuses"] == [2, 2]
    check, dynamics = result["reports"]
    assert check["files"][0]["diagnostics"] == MALFORMED_DIAGNOSTICS
    assert dynamics["diagnostics"] == MALFORMED_DIAGNOSTICS
    assert "ctm._tokens" in result["loaded"]
    assert not {"ctm.witnesses", *UNNEEDED} & set(result["loaded"])


# library names that no command reached, deleted with their exports
REMOVED_NAMES = (
    "PointerRecovery", "are_distinguishable", "check_timed_advance", "clone_substrate",
    "composite_timer", "is_static_for_horizon", "recover_clock_pointer",
)


def test_every_public_name_resolves_and_is_listed():
    code = f"""
import sys
import ctm
print(int("ctm.witnesses" in sys.modules), [name for name in sys.argv[1:] if name in sys.modules])
missing = [name for name in ctm.__all__ if getattr(ctm, name, None) is None]
unlisted = sorted(set(ctm.__all__) - set(dir(ctm)))
try:
    ctm.no_such_name
except AttributeError as e:
    error = str(e)
print(len(ctm.__all__), len(set(ctm.__all__)), missing, unlisted, error, sep="|")
def lookup(name):
    try:
        getattr(ctm, name)
    except AttributeError as e:
        return str(e)
    return "found"
print([lookup(name) for name in {REMOVED_NAMES!r}])
print(ctm.verify_witness is sys.modules["ctm.witnesses"].verify_witness)
"""
    before, listing, removed, same = run_fresh(code, *UNNEEDED).splitlines()
    # importing the package leaves the witness layer and the unneeded modules unloaded
    assert before == "0 []"
    count, distinct, missing, unlisted, error = listing.split("|")
    assert count == distinct and int(count) == 61
    assert removed == repr([f"module 'ctm' has no attribute {name!r}" for name in REMOVED_NAMES])
    assert (missing, unlisted) == ("[]", "[]")
    assert error == "module 'ctm' has no attribute 'no_such_name'"
    assert same == "True"


def test_the_witness_layer_loads_no_unneeded_module():
    code = "import sys, ctm.witnesses; print([m for m in sys.argv[1:] if m in sys.modules])"
    assert run_fresh(code, *UNNEEDED) == "[]\n"


def test_importing_the_cli_builds_no_parser():
    # main builds its parser on first use, so a process pays for one build, not two
    code = "import ctm.cli; print(ctm.cli._parser.cache_info().currsize)"
    assert run_fresh(code) == "0\n"


def test_importing_the_cli_compiles_no_statement_pattern():
    # the line reader compiles each form's pattern, and the step map's and the
    # entries' ones, on first use, so a process pays only for the forms it reads
    code = (
        "import ctm.cli\n"
        "from ctm import dsl\n"
        "caches = (dsl._line_forms, dsl._cycles_re, dsl._entries_re)\n"
        "print([f.cache_info().currsize for f in caches])\n"
        "dsl.parse_model('attribute a on S { s }\\n')\n"
        "print([f.cache_info().currsize for f in caches])\n"
    )
    assert run_fresh(code) == "[0, 0, 0]\n[1, 0, 0]\n"


def test_a_digit_of_any_script_stays_on_the_line_reader():
    # the line reader and the lexer read a digit alike: '٣' is ARABIC-INDIC DIGIT THREE
    code = r"""
import sys
from ctm.dsl import _Tables, parse_model

def timer(bits):
    return "timer counter C { bits " + bits + " ; threshold 2 }\n"

arabic, diags = parse_model(timer("٣"))
same = arabic is not None and arabic == parse_model(timer("3"))[0]
print(same, diags, "ctm._tokens" in sys.modules)
from ctm._tokens import _Parser

def after_typo(bits):
    # the typo keeps the statement on its line from the line reader
    text = "atribute x " + timer(bits)
    tables = _Tables()
    parser = _Parser(text, tables)
    assert parser.read(0, 1) is None
    return tables.model(), [d.message for d in parser.lexed + parser.diags]

print(after_typo("٣") == after_typo("3"), after_typo("3")[0].timers["C"].bits)
"""
    assert run_fresh(code) == "True [] False\nTrue 3\n"


def test_the_bounded_cost_catalog_imports_only_the_standard_library():
    # the benchmark may import the catalog's generators, so it may need neither ctm nor pytest
    code = (
        "import sys\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "before = set(sys.modules)\n"
        "import adversarial\n"
        "loaded = {name.split('.')[0] for name in set(sys.modules) - before}\n"
        "print(sorted(loaded - sys.stdlib_module_names))\n"
    )
    assert run_fresh(code, str(REPO_ROOT / "tests")) == "['adversarial']\n"
