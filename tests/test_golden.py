"""Golden CLI output: exact stdout and exit code for a fixed set of calls.

The expected text was captured before verify and bench shared one row
renderer and the families one FamilySpec table, and pins that neither
change moved a byte.  The closed-form cases of the two Fibonacci families
at orders other than 5 were captured while --method closed still ran the
O(k) recurrences, and pin that the closed forms print the same.  The
--method replay cases at orders other than 5, and the digests of the files
generate writes, were captured while replay_family still had one loop per
family and each Fibonacci family its own generator.  bench's JSON "seconds"
values are wall times, so they are blanked before comparing; its text-mode
timings go to stderr, which is not compared.
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
    ('closed-form --family binomial --order -1 --method replay', 2, ''),
    ('closed-form --family binomial --order 0 --method replay', 0, '0\n'),
    ('closed-form --family binomial --order 1 --method replay', 0, '1\n'),
    ('closed-form --family binomial --order 64 --method replay', 0,
     '10718894558009561599105523506137553436672\n'),
    ('closed-form --family fibonacci --order -2 --method replay', 2, ''),
    ('closed-form --family fibonacci --order -1 --method replay', 0, '0\n'),
    ('closed-form --family fibonacci --order 0 --method replay', 0, '0\n'),
    ('closed-form --family fibonacci --order 64 --method replay', 0,
     '13528608074898867155525227442\n'),
    ('closed-form --family binary-fibonacci --order 0 --method replay', 2, ''),
    ('closed-form --family binary-fibonacci --order 1 --method replay', 0, '0\n'),
    ('closed-form --family binary-fibonacci --order 2 --method replay', 0, '1\n'),
    ('closed-form --family binary-fibonacci --order 64 --method replay', 0,
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
    ('closed-form --family binomial --order 2000 --method replay',
     '8d35d7464c78cf85b0c41cf9e8e123f611ff29dc98db369b157395c3f951e5bb'),
    ('closed-form --family fibonacci --order 2000 --method replay',
     'f4f8f95af72320b8c0724aaf2a9587f58c455e023abeabc4340edc01197aa0ff'),
    ('closed-form --family binary-fibonacci --order 2000 --method replay',
     '688359d6e20e6c06fb90a0dfb11d81289d6430487f3c3e9828b903465dea99de'),
]

# SHA-256 over (order, exit code, stdout, stderr) of `closed-form --family F
# --order K --method M` at every order K from the family's floor - 2 to 200,
# captured from the commit before the hand-kept op tally was deleted.
SWEEP_FLOORS = {"binomial": 0, "fibonacci": -1, "binary-fibonacci": 1}
GOLDEN_SWEEPS = [
    ('binomial', 'closed',
     'bf7fe9ec95d6e4293c82a8a58dff9b2813be42e26f7dc70897270eb50a6dac9b'),
    ('binomial', 'recurrence',
     'bf7fe9ec95d6e4293c82a8a58dff9b2813be42e26f7dc70897270eb50a6dac9b'),
    ('binomial', 'replay',
     'da31701232dec7a29ea2378980f041b719213ea514fdb51af2d2a7209baf4a1c'),
    ('fibonacci', 'closed',
     '0f8e73f79b19debfffca6d24357ddc0ac65ecd0225b6f5300c09e8a7ec28dd74'),
    ('fibonacci', 'recurrence',
     '0f8e73f79b19debfffca6d24357ddc0ac65ecd0225b6f5300c09e8a7ec28dd74'),
    ('fibonacci', 'replay',
     'f14a562ad5dcf152a71fa9eb326ec788fa1c36da9cff6fd20a90db18f8566c34'),
    ('binary-fibonacci', 'closed',
     '62a9e7f23508fdde1975a45675405a2f0fe4d7039736c6f8920ac72d58bb96f4'),
    ('binary-fibonacci', 'recurrence',
     '62a9e7f23508fdde1975a45675405a2f0fe4d7039736c6f8920ac72d58bb96f4'),
    ('binary-fibonacci', 'replay',
     'e96ff46e7132436a62db857f68b22eff43b56d7b5e1763cd062285ab2074a7b4'),
]

# SHA-256 of the edge-list file `generate --family F --order K` writes.  The
# order-14 and order-20 files, captured while generate still wrote one str
# in text mode, span four or five of serialize's 4,096-line pieces; the
# smaller ones fit in one or two.
GOLDEN_FILES = [
    ('binomial', 0, '4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865'),
    ('binomial', 3, '911b99415f60fc7f408a6909bb3e4b750e13a4e5985c8b30c09f6c3898352c5f'),
    ('binomial', 12, 'a3d11eeb5ddabd9b74d632f8626b9cf67c375f0d3f5fb6e26893a672bc7beae8'),
    ('fibonacci', -1, '4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865'),
    ('fibonacci', 4, '1625caa03902c6d4d8744066e17a6d2f3e5687883525547c14c0b7cca43b9ebd'),
    ('fibonacci', 16, '9bbcf121c78f7112a26cef63eb17da9518e503b9443c13996bd05f362e98275e'),
    ('binary-fibonacci', 0, '9a271f2a916b0b6ee6cecb2426f0b3206ef074578be55d9bc94f6f3fe3ab86aa'),
    ('binary-fibonacci', 5, '03d0f0f9411bb03fa0ad2261ff16523f775f27f887265909aacad2986ddf6898'),
    ('binary-fibonacci', 17, '9bf5ebd5c9cc38a7aceb70fc7e36d5fca3cdf4408917fcdfe4441b7c6ef18b20'),
    ('binomial', 14, '77473e609adb0169e071547011c1c6bc094f0c690d0c549008aa1f933e67ebbd'),
    ('fibonacci', 20, 'd73c13049c2fd16b8e8d552013aed7ae92973445f832d97a7309b7691817f3bf'),
    ('binary-fibonacci', 20, '54511453f26b7ba24a5958a5814ee2d1d08a8233d9e27a29721edbb6ba4ecd5e'),
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


@pytest.mark.parametrize("family,order,digest", GOLDEN_FILES,
                         ids=[f"{f}-{k}" for f, k, _ in GOLDEN_FILES])
def test_golden_generated_file_digest(capsys, tmp_path, family, order, digest):
    out = tmp_path / "tree.txt"
    argv = ["generate", "--family", family, "--order", str(order), "--out", str(out)]
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == ""
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("family,method,digest", GOLDEN_SWEEPS,
                         ids=[f"{f}-{m}" for f, m, _ in GOLDEN_SWEEPS])
def test_golden_closed_form_sweep_digest(capsys, family, method, digest):
    sweep = hashlib.sha256()
    for order in range(SWEEP_FLOORS[family] - 2, 201):
        argv = ["closed-form", "--family", family, "--order", str(order),
                "--method", method]
        code = cli.main(argv)
        captured = capsys.readouterr()
        sweep.update(repr((order, code, captured.out, captured.err)).encode())
    assert sweep.hexdigest() == digest
