"""Golden stdout digests of the README commands, in text and JSON output.

The digests were recorded before the check pipeline moved into
``qpolykit.checks`` (those of ``cycle:n=7`` before the resultants became
``linalg.charpoly`` calls, and those of icosahedron, ``cycle:n=9`` and the
linked-design Krein array before each polynomial ordering kept one dual
spectrum, those of ``cycle:n=11`` before Sturm chains became primitive
integer remainder sequences, and those of ``cycle:n=13`` before number-field
elements became canonical residues and each join isolated its generator on
the irreducible factors of its tensor polynomial, and those of
``scan --m-max 6 --free-c3`` before adjoin_root and the unchecked
``AlgebraicReal`` constructor counted roots by isolation instead of by a
second Sturm evaluator); any change to a report's bytes shows up here.
Two groups were re-recorded when each input alone came to decide which
checks run, and nothing but the named field moved (a parsed diff against
the previous output): the JSON of the four Krein arrays, whose spectral
identity is now skipped instead of true, and the two scans, whose tallies
lost the always-zero pair_bound and triple_bound stages.  The H(4,2) entry
runs the default command, with digests recorded before that change.
The two slow README commands run at smaller sizes.  The random cubic graph's
digests were recorded before interval bisection moved to integers: its
irrational eigenvalues have a degree-20 defining polynomial, and the report
prints their intervals refined to width 1e-12.
"""

import hashlib
from pathlib import Path

from qpolykit.cli import main

ROOT = Path(__file__).resolve().parent.parent
KREIN = (ROOT / "data/examples/dual_tight_class3_krein.json").read_text()
LINKED = (ROOT / "data/examples/linked_design_t2_krein.json").read_text()
AUDIT_A3_NONZERO = '{"type":"krein_array","class":3,"m":"4","b_star":["4","1","1"],"c_star":["1","2","2"]}'
AUDIT_A3_ZERO = '{"type":"krein_array","class":3,"m":"10","b_star":["10","7","4"],"c_star":["1","2","10"]}'

GOLDEN = [
    (["check-graph", "--family", "petersen"], {
        "text": "ff98acc3c8be677bf5d8a1ab8ad1a7ba67feb7ddce852bae086e6c319b030596",
        "json": "8dd5be7158542cd90d4883dce5292dd7d941fe8fa4bb1652de857c7f83718422",
    }),
    (["check-graph", "--input", "data/examples/heawood.g6"], {
        "text": "eb00c4a297ca35ef2dd299aa0a5bc17a50aa2bc1f2c0cf4fdd92d25b32d46ed0",
        "json": "6623b834e27ac3645d30498aa8b6531c732d16dea9ecfc4c0d528ae3c43f953d",
    }),
    (["check-graph", "--family", "hamming:d=4,q=2"], {
        "text": "59330aedab08c593282b758faff59c69b116564b249376e7657c30f9ae04ab90",
        "json": "3789e3bd382842ca05eee0683b9ae995437ab370b479b9ec52d555824478234d",
    }),
    (["check-scheme", "--from-graph", "heawood"], {
        "text": "7432081f66b90c9cfd60712234de3aeaaeecc4cb21f230fa8f589a64a1ed7a5d",
        "json": "1ee9825fb4ce23291d532fa60803c470563cb4bd38f26d5d9c8f6b72434be53b",
    }),
    # the cubic-field path: eigendata, adjoin_root and apply_rational_poly
    (["check-scheme", "--from-graph", "cycle:n=7"], {
        "text": "05969518bc574d80cd3e3c6396518f87047ec0cfa8332fe48d7190bd6efe5c2a",
        "json": "eecf48a90bb25b892a65fb0bb176067df203e25067ed48d7d9194cbe33cfc8a0",
    }),
    # a rational Krein system, a class-4 one (triple-bound indices at D = 4)
    # and a Krein array whose dual eigenvalues are its own spectrum
    (["check-scheme", "--from-graph", "icosahedron"], {
        "text": "c40fe338334009c6f1cf6cb6e22693a911be3c00b7bde9b7823a1094cb4e83a0",
        "json": "81a03bc6de99722fdb3da5898b6ccfed0601675fd4609d82f85a8c0bf0305c24",
    }),
    (["check-scheme", "--from-graph", "cycle:n=9"], {
        "text": "0e5e1b5d390d12ec8c21ba516f0ca480f86bbc4aa9719d335bb21c1cda7eeb54",
        "json": "f4dafadaae75e9d1a5de15193aab2714374d9f19c604d5294cfccaedbdf40b90",
    }),
    # number-field joins of degree-5 generators: adjoin_root's isolation on
    # the irreducible factors of the tensor polynomial certifies the intervals
    # that reach the report
    (["check-scheme", "--from-graph", "cycle:n=11"], {
        "text": "3fac227f5ccb575f819b1101b67b475929953285ce98202308d5e40688c1da90",
        "json": "de5f48f82f70ae887ad67060a41dac4bcd933645382f307f577b70ef62c98b41",
    }),
    # five joins into degree-6 fields
    (["check-scheme", "--from-graph", "cycle:n=13"], {
        "text": "d56a76d708028f6d5659c7f130165f58eee4f215d6a0e7d3e9e74ed4d37d845d",
        "json": "acc53276c9d142821d8189d8a993c19a02b5a13bd753cdeb6942d64dfc2ef965",
    }),
    (["check-scheme", "--krein", LINKED], {
        "text": "8c57e79ef652cec0e84dfd852e847d27136a325277a96955aa0aa2eea55eb3e6",
        "json": "54e42f917261599bfdad8fd0e84ed61af434e182347a62e12b53c08efaa004fe",
    }),
    (["check-scheme", "--input", "data/examples/c5_scheme.json", "--format", "json"], {
        "text": "b8422c38644b09304a81d718d9157f44e4bdf4a7b7d5d0f563db8005b8fcb79b",
        "json": "c50713c7d901fab5998dbd2b21ce4b74e1bd5a6382aaab031cce84048cbdb431",
    }),
    (["check-scheme", "--krein", KREIN], {
        "text": "5253facc294f0f3bcd964bb6e91cfcc0dbe29094aa19fb36344200aa7e644fd4",
        "json": "29a0fc825a42054ec4be81220b34a545969a5a1858d408b3479574116e43dc1b",
    }),
    # the two branches of the class-3 dual-tight audit on Krein arrays: with
    # a_3* != 0 every identity of the chain is "not derivable"; with a_3* = 0
    # the chain runs and the multiplicity squeeze fails
    (["check-scheme", "--krein", AUDIT_A3_NONZERO], {
        "text": "0e2057d915ab5a68bc9d07f053e2ccab120828a2cc401ad1145c231c45423fc0",
        "json": "8b0653a221e45d36cf6e136ce5349f1d9300897fffa6cfb0c0d15acf2fc377fd",
    }),
    (["check-scheme", "--krein", AUDIT_A3_ZERO], {
        "text": "b4caa19ccc430a52cb4266a97d9abda513d136a80f76bd5ca263a7b6b28ce396",
        "json": "760b099483fd4aca16f1ccb3c115ec5445ac1e3049dbb901a788368fdf363c54",
    }),
    (["property-suite", "--seed", "42", "--n", "25", "--graphs", "3"], {
        "text": "396751e9c9b4134f871001aebb46b00a2a789bcb17dccbfbe43b1737fa9172a5",
        "json": "ed66427d03731a53aa0a0e7f2181144dff16623210a18130ee4ee27ebfaad634",
    }),
    (["scan", "--m-max", "5"], {
        None: "a08052344265c61e1626c04ca6c811c21f1c8724fd6c7641257db1983d7abda3",
    }),
    # the free-c3 audits run 28 number-field joins (adjoin_root) on the dual
    # eigenvalues of Krein arrays, spectra that no graph supplies
    (["scan", "--m-max", "6", "--free-c3"], {
        None: "8897a93c48da459adcec402430da16a72ded2ad2de8df4d2e14cadae6b48b4ff",
    }),
]


def test_readme_commands_match_golden_digests(capsys, monkeypatch):
    monkeypatch.chdir(ROOT)
    mismatches = []
    for argv, digests in GOLDEN:
        for output, want in digests.items():
            # scan writes JSON lines and takes no --output: its one digest is keyed None
            code = main(argv if output is None else [*argv, "--output", output])
            out = capsys.readouterr().out.encode()
            got = hashlib.sha256(out).hexdigest()
            if code != 0 or got != want:
                mismatches.append((argv[:3], output, code, got))
    assert not mismatches


# a random 3-regular graph on 20 vertices (pairing model), as graph6
RANDOM_CUBIC = "Sa_@??kEO?O@?aOA_O?A@C?G@C@G?GG?o"
RANDOM_CUBIC_DIGESTS = {
    "text": "2e7e64a1c2daaabacef039e857ec495fa93b5c51a7a527832e4ba4fc063f0d9e",
    "json": "4f8f7411982d4658dd7fefbf0529625600e2c69602b037d41b414ff446916e75",
}


def test_random_cubic_graph_matches_golden_digests(capsys, tmp_path):
    path = tmp_path / "random_cubic.g6"
    path.write_text(RANDOM_CUBIC + "\n")
    got = {}
    for output in RANDOM_CUBIC_DIGESTS:
        assert main(["check-graph", "--input", str(path), "--output", output]) == 0
        got[output] = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert got == RANDOM_CUBIC_DIGESTS
