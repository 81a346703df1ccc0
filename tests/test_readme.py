"""The examples of README.md run as shown.

Each command line below is quoted from README.md, where it must appear
verbatim.  It runs through cli.run with problem.json replaced by a
temporary problem file, must exit 0 with one document valid against its
subcommand's schema, and must print every value README shows under it.
The Python block of the Library section runs as a whole, and each value
its comments show is checked.
"""

import json
import re
import shlex
from fractions import Fraction
from pathlib import Path

import jsonschema
import pytest

from gsembed import Band, cli, schemas

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()

PROBLEM = {"sigma": "2^(2*j)", "tau": "1", "p1": 1, "q1": 1, "p2": "inf",
           "q2": "inf", "dim": 1}

ANALYZE_SCHEMA = {"type": "object", "required": ["compactness"],
                  "properties": {"compactness": schemas.VERDICT_SCHEMA}}

EXAMPLES = {
    "seq-parse": ('gsembed seq parse "2^(3/2*j)*(1+j)^-1"',
                  schemas.PROFILE_SCHEMA),
    "seq-parse-pw2": ('gsembed seq parse "pw2(s0=1,s1=2)"       # stored as '
                      '2^(1*j) * pw2(s0=0,s1=1)', schemas.PROFILE_SCHEMA),
    "seq-boyd": ('gsembed seq boyd "pw2(s0=0,s1=1)"        # exact indices (0, 1), no brackets',
                 schemas.BOYD_SCHEMA),
    "seq-boyd-table": ('gsembed seq boyd "table[1,1,1] then 2^(1/2*j)"   # a table prefix: '
                       'exact, from the tail', schemas.BOYD_SCHEMA),
    "seq-eval": ('gsembed seq eval "2^(j)*(1+j)" --j 0 4 16', schemas.EVAL_SCHEMA),
    "seq-admissible": ('gsembed seq admissible "2^(j)*(1+j)"     # log2 bounds of '
                       'consecutive ratios',
                       schemas.ADMISSIBLE_SCHEMA),
    "seq-standardize": ('gsembed seq standardize "2^(1/2*j)" --growth "4^(j)"',
                        schemas.STANDARDIZE_SCHEMA),
    "analyze-compact": ('gsembed analyze --sigma "2^(j)*(1+j)" --tau "2^(j)" \\\n'
                        '    --p1 2 --q1 2 --p2 2 --q2 1 --dim 1 --kind compact',
                        ANALYZE_SCHEMA),
    "lab-norm": ('gsembed lab norm --section \'{"beta":[1.0,2.0],"M":[1,2],"p1":2,'
                 '"q1":"inf","p2":2,"q2":1}\'', schemas.LAB_NORM_SCHEMA),
    "lab-nuclear": ("gsembed lab nuclear --from-problem problem.json --levels 3",
                    schemas.LAB_NUCLEAR_SCHEMA),
    "lab-ratefit": ("gsembed lab ratefit --from-problem problem.json --levels 1 2 3 4",
                    schemas.RATEFIT_SCHEMA),
    "reproduce-all": ("gsembed reproduce all", schemas.REPRODUCE_SCHEMA),
}


def shown_output(line):
    """The JSON README prints under line, with its elided "..." entries
    dropped; None when README prints none."""
    after = README.split(line, 1)[1]
    if not after.startswith("\n{\n"):
        return None
    block = after[1:after.index("\n}\n") + 2]
    text = "\n".join(l for l in block.splitlines() if l.strip() != "...")
    return json.loads(re.sub(r",(\s*})", r"\1", text))


def assert_shows(doc, shown):
    if isinstance(shown, dict):
        for key, value in shown.items():
            assert_shows(doc[key], value)
    else:
        assert doc == shown


@pytest.mark.parametrize("line, schema", EXAMPLES.values(), ids=EXAMPLES)
def test_example_runs_as_shown(capsys, tmp_path, line, schema):
    assert line in README
    problem = tmp_path / "problem.json"
    problem.write_text(json.dumps(PROBLEM))
    argv = [str(problem) if a == "problem.json" else a
            for a in shlex.split(line.replace("\\\n", " "), comments=True)]
    assert argv[0] == "gsembed"
    code = cli.run(argv[1:])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    jsonschema.validate(doc, schema)
    shown = shown_output(line)
    if shown is not None:
        assert_shows(doc, shown)


def test_every_example_is_covered():
    # every command line of README's code blocks is above, except the one
    # with a placeholder section
    blocks = re.findall(r"^```\n(.*?)^```", README, flags=re.M | re.S)
    lines = [l for b in blocks for l in b.splitlines() if l.startswith("gsembed ")]
    firsts = [l.split("\n", 1)[0] for l, _ in EXAMPLES.values()]
    missed = [l for l in lines if not any(l.startswith(f) for f in firsts)]
    assert missed == ["gsembed lab entropy --section ... --k 1 2 4 8"]


# (statement of the Library block, start of its comment, the value shown)
LIBRARY_SHOWN = [
    ("compactness(pr).status", '"holds"', "holds"),
    ("nuclearity(pr).status", '"holds"', "holds"),
    ("entropy_rate(pr).k_exponent", "Fraction(2, 1)", Fraction(2, 1)),
    ("compact_not_nuclear_band(2, 3, 1)", "gap window (0, 5/6]",
     Band(Fraction(0), Fraction(5, 6))),
]


def test_library_example_runs_as_shown():
    block = README.split("\n## Library\n", 1)[1]
    block = block.split("```python\n", 1)[1].split("```", 1)[0]
    namespace = {}
    exec(block, namespace)
    commented = dict(l.split("#", 1) for l in block.splitlines() if "#" in l)
    commented = {k.strip(): v.strip() for k, v in commented.items()}
    for statement, comment, value in LIBRARY_SHOWN:
        assert commented[statement].startswith(comment)
        assert eval(statement, namespace) == value
