"""Golden CLI output: exact stdout and exit code for a fixed set of calls.

The expected text was captured before verify and bench shared one row
renderer and the families one FamilySpec table, and pins that neither
change moved a byte.  The closed-form cases of the two Fibonacci families
at orders other than 5 were captured while --method closed still ran the
O(k) recurrences, and pin that the closed forms print the same.  bench's JSON "seconds" values are wall times, so they
are blanked before comparing; its text-mode timings go to stderr, which is
not compared.
"""

import hashlib
import re

import pytest

from treewiener import cli

GOLDEN = [
    ('verify --family binomial --max-order 3 --node-budget 4', 0,
     'order  nodes  formula  replay  oracle  status\n'
     '0      1      0        0       0       match\n'
     '1      2      1        1       1       match\n'
     '2      4      10       10      10      match\n'
     '3      8      68       68      -       skipped\n'
     'result: all match\n'),
    ('verify --family fibonacci --max-order 3 --node-budget 100', 0,
     'order  nodes  formula  replay  oracle  status\n'
     '-1     1      0        0       0       match\n'
     '0      1      0        0       0       match\n'
     '1      2      1        1       1       match\n'
     '2      3      4        4       4       match\n'
     '3      5      18       18      18      match\n'
     'result: all match\n'),
    ('verify --family binary-fibonacci --max-order 4 --node-budget 100', 0,
     'order  nodes  formula  replay  oracle  status\n'
     '1      1      0        0       0       match\n'
     '2      2      1        1       1       match\n'
     '3      4      10       10      10      match\n'
     '4      7      50       50      50      match\n'
     'note: the literal printed recurrence gives 5 at order 3 where '
     'direct enumeration gives 10; the corrected form is used '
     'throughout and this divergence is documented, not a failure\n'
     'result: all match\n'),
    ('verify --family binomial --max-order 3 --node-budget 4 --json', 0,
     '{"family": "binomial", "max_order": 3, "node_budget": 4, '
     '"entries": [{"order": 0, "nodes": "1", "formula_value": "0", '
     '"replay_value": "0", "oracle_value": "0", "status": "match"}, '
     '{"order": 1, "nodes": "2", "formula_value": "1", "replay_value": '
     '"1", "oracle_value": "1", "status": "match"}, {"order": 2, '
     '"nodes": "4", "formula_value": "10", "replay_value": "10", '
     '"oracle_value": "10", "status": "match"}, {"order": 3, "nodes": '
     '"8", "formula_value": "68", "replay_value": "68", "oracle_value": '
     'null, "status": "skipped"}], "all_match": true}\n'),
    ('verify --family fibonacci --max-order 3 --node-budget 100 --json', 0,
     '{"family": "fibonacci", "max_order": 3, "node_budget": 100, '
     '"entries": [{"order": -1, "nodes": "1", "formula_value": "0", '
     '"replay_value": "0", "oracle_value": "0", "status": "match"}, '
     '{"order": 0, "nodes": "1", "formula_value": "0", "replay_value": '
     '"0", "oracle_value": "0", "status": "match"}, {"order": 1, '
     '"nodes": "2", "formula_value": "1", "replay_value": "1", '
     '"oracle_value": "1", "status": "match"}, {"order": 2, "nodes": '
     '"3", "formula_value": "4", "replay_value": "4", "oracle_value": '
     '"4", "status": "match"}, {"order": 3, "nodes": "5", '
     '"formula_value": "18", "replay_value": "18", "oracle_value": '
     '"18", "status": "match"}], "all_match": true}\n'),
    ('verify --family binary-fibonacci --max-order 4 --node-budget 100 --json', 0,
     '{"family": "binary-fibonacci", "max_order": 4, "node_budget": '
     '100, "entries": [{"order": 1, "nodes": "1", "formula_value": "0", '
     '"replay_value": "0", "oracle_value": "0", "status": "match"}, '
     '{"order": 2, "nodes": "2", "formula_value": "1", "replay_value": '
     '"1", "oracle_value": "1", "status": "match"}, {"order": 3, '
     '"nodes": "4", "formula_value": "10", "replay_value": "10", '
     '"oracle_value": "10", "status": "match"}, {"order": 4, "nodes": '
     '"7", "formula_value": "50", "replay_value": "50", "oracle_value": '
     '"50", "status": "match"}], "all_match": true, "note": "note: the '
     'literal printed recurrence gives 5 at order 3 where direct '
     'enumeration gives 10; the corrected form is used throughout and '
     'this divergence is documented, not a failure"}\n'),
    ('bench --family binomial --max-order 3 --bfs-budget 4', 0,
     'order  nodes  wiener  linear  bfs\n'
     '0      1      0       ran     ran\n'
     '1      2      1       ran     ran\n'
     '2      4      10      ran     ran\n'
     '3      8      68      ran     skipped\n'),
    ('bench --family fibonacci --max-order 3 --node-budget 3', 0,
     'order  nodes  wiener  linear   bfs\n'
     '-1     1      0       ran      ran\n'
     '0      1      0       ran      ran\n'
     '1      2      1       ran      ran\n'
     '2      3      4       ran      ran\n'
     '3      5      18      skipped  skipped\n'),
    ('bench --family binary-fibonacci --max-order 3 --json', 0,
     '{"family": "binary-fibonacci", "max_order": 3, "entries": '
     '[{"order": 1, "nodes": "1", "value": "0", "linear": "ran", "bfs": '
     '"ran", "seconds": {}}, {"order": 2, "nodes": "2", "value": "1", '
     '"linear": "ran", "bfs": "ran", "seconds": {}}, {"order": 3, '
     '"nodes": "4", "value": "10", "linear": "ran", "bfs": "ran", '
     '"seconds": {}}]}\n'),
    ('closed-form --family binomial --order 5 --method closed --json', 0,
     '{"family": "binomial", "order": 5, "method": "closed", "value": '
     '"2064"}\n'),
    ('closed-form --family binomial --order 5 --method recurrence --json', 0,
     '{"family": "binomial", "order": 5, "method": "recurrence", '
     '"value": "2064"}\n'),
    ('closed-form --family binomial --order 5 --method replay --json', 0,
     '{"family": "binomial", "order": 5, "method": "replay", "value": '
     '"2064"}\n'),
    ('closed-form --family fibonacci --order 5 --method closed --json', 0,
     '{"family": "fibonacci", "order": 5, "method": "closed", "value": '
     '"210"}\n'),
    ('closed-form --family fibonacci --order 5 --method recurrence --json', 0,
     '{"family": "fibonacci", "order": 5, "method": "recurrence", '
     '"value": "210"}\n'),
    ('closed-form --family fibonacci --order 5 --method replay --json', 0,
     '{"family": "fibonacci", "order": 5, "method": "replay", "value": '
     '"210"}\n'),
    ('closed-form --family binary-fibonacci --order 5 --method closed --json', 0,
     '{"family": "binary-fibonacci", "order": 5, "method": "closed", '
     '"value": "214"}\n'),
    ('closed-form --family binary-fibonacci --order 5 --method recurrence --json', 0,
     '{"family": "binary-fibonacci", "order": 5, "method": '
     '"recurrence", "value": "214"}\n'),
    ('closed-form --family binary-fibonacci --order 5 --method replay --json', 0,
     '{"family": "binary-fibonacci", "order": 5, "method": "replay", '
     '"value": "214"}\n'),
    ('verify --family binomial --max-order -1', 2,
     ""),
    ('verify --family fibonacci --max-order -2 --json', 2,
     ""),
    ('verify --family binary-fibonacci --max-order 0', 2,
     ""),
    ('bench --family binomial --max-order -1', 2,
     ""),
    ('bench --family fibonacci --max-order -2 --json', 2,
     ""),
    ('bench --family binary-fibonacci --max-order 0', 2,
     ""),
    ('closed-form --family fibonacci --order -2 --method closed', 2, ''),
    ('closed-form --family fibonacci --order -2 --method recurrence', 2, ''),
    ('closed-form --family fibonacci --order -1 --method closed', 0, '0\n'),
    ('closed-form --family fibonacci --order -1 --method recurrence', 0, '0\n'),
    ('closed-form --family fibonacci --order 0 --method closed', 0, '0\n'),
    ('closed-form --family fibonacci --order 0 --method recurrence', 0, '0\n'),
    ('closed-form --family fibonacci --order 64 --method closed', 0,
     '13528608074898867155525227442\n'),
    ('closed-form --family fibonacci --order 64 --method recurrence', 0,
     '13528608074898867155525227442\n'),
    ('closed-form --family binary-fibonacci --order 0 --method closed', 2, ''),
    ('closed-form --family binary-fibonacci --order 0 --method recurrence', 2, ''),
    ('closed-form --family binary-fibonacci --order 1 --method closed', 0, '0\n'),
    ('closed-form --family binary-fibonacci --order 1 --method recurrence', 0, '0\n'),
    ('closed-form --family binary-fibonacci --order 2 --method closed', 0, '1\n'),
    ('closed-form --family binary-fibonacci --order 2 --method recurrence', 0, '1\n'),
    ('closed-form --family binary-fibonacci --order 64 --method closed', 0,
     '33504885520553555073332409430\n'),
    ('closed-form --family binary-fibonacci --order 64 --method recurrence', 0,
     '33504885520553555073332409430\n'),
]

# Outputs too long to inline (about 840 digits), pinned by SHA-256 of stdout.
GOLDEN_SHA256 = [
    ('closed-form --family fibonacci --order 2000 --method closed',
     'f4f8f95af72320b8c0724aaf2a9587f58c455e023abeabc4340edc01197aa0ff'),
    ('closed-form --family fibonacci --order 2000 --method recurrence',
     'f4f8f95af72320b8c0724aaf2a9587f58c455e023abeabc4340edc01197aa0ff'),
    ('closed-form --family binary-fibonacci --order 2000 --method closed',
     '688359d6e20e6c06fb90a0dfb11d81289d6430487f3c3e9828b903465dea99de'),
    ('closed-form --family binary-fibonacci --order 2000 --method recurrence',
     '688359d6e20e6c06fb90a0dfb11d81289d6430487f3c3e9828b903465dea99de'),
]


@pytest.mark.parametrize("argv,code,stdout", GOLDEN, ids=[c[0] for c in GOLDEN])
def test_golden_stdout(capsys, argv, code, stdout):
    assert cli.main(argv.split()) == code
    out = capsys.readouterr().out
    assert re.sub(r'"seconds": \{[^}]*\}', '"seconds": {}', out) == stdout


@pytest.mark.parametrize("argv,digest", GOLDEN_SHA256, ids=[c[0] for c in GOLDEN_SHA256])
def test_golden_stdout_digest(capsys, argv, digest):
    assert cli.main(argv.split()) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest
