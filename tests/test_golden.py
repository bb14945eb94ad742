"""Byte-identity of the JSON output: identical flags give identical bytes.

The digests are sha256 of the stdout of `zipcone verify-theorem --n N --p P
--json`.  They were computed before the certificate multipliers became
closed form, when every implication came from Fourier-Motzkin search, and
are the same under different PYTHONHASHSEED values.

The digests of the sweep, path and neighbors verbs were computed while every
window product was still fully re-validated and the neighbor oracle worked
on validated objects; they too are the same under different PYTHONHASHSEED
values.
"""

import hashlib

import pytest

from zipcone.cli import run

DIGESTS = {
    (1, 2): "14ae5a9dd6e67af5386f7362aaac63228194a9d219e2fb3e227cb3460ba618f2",
    (1, 3): "c32b07c9b59fd93ea2ed1361378c594035ae1c6c7ea1e655f4d5175ef43d856d",
    (1, 7): "b74de26b59031d8f8982e8dea3df70eb09e1b86d16008f0163a6be6ac0ccbf90",
    (2, 2): "1c4c020b555af07853f7ca0e56601c8556ec711ff3e336da189dd2bee0462a81",
    (2, 3): "292da24bf6dfe7e41dd9f0aebf2cc2c52a17fccd0e993789bbe44272d6e061ff",
    (2, 7): "ca2ac2f9a412c587e5271b697caba927fe4141b38bc5e6f503f6fecd4a94aa8b",
    (3, 2): "ffbe41009ec4e9f35b3d5a610079af3818e27fb6ea699efcc9f7b3cfd6f8a56e",
    (3, 3): "e55d53fae37086d597b4ff43390a544982c7f0a62778f03388d0282d448ab573",
    (3, 7): "61d7e8b210387126e9d76e5e9e34aeb13124b84ccd6fe7b0e7c6919215102753",
    (5, 2): "4d994d2fbdd07349fbb8edca87fc1d7cd2923a731b92c1df6535c6a6dd422b9c",
    (5, 3): "02f0ebdcf899888bb3b40f2386ad1356e72c69e70642c65cff151fc8878eb6ec",
    (5, 7): "df03370e7baf99baf5ee16ca7c87d940f46e8d1152c14fcf5b800bacc3138a91",
    (8, 2): "49ec19f8e140ceb9ca7ecddbbab4b479f6c86b61e4c9ab5ab4a1a3ac3f886131",
    (8, 3): "36e01fab51123822e5893ab15505aa8b51c196e5c9ea14a43aa1645db5bee1a4",
    (8, 7): "a89b296b459f5f57feac8a9dfceed16a2170af1e58c9021fbe5df86edbd58023",
}


@pytest.mark.parametrize("n, p", sorted(DIGESTS))
def test_verify_theorem_json_is_byte_identical(capsys, n, p):
    assert run(["verify-theorem", "--n", str(n), "--p", str(p), "--json"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == DIGESTS[(n, p)]


VERB_DIGESTS = {
    ("sweep", "--suite", "gamma", "--n", "4", "--json"):
        "74dfa5dcf23a569525f7eda43e9cd9927c41ff8db260c87410da8fdd6c77b8fa",
    ("sweep", "--suite", "bruhat", "--n", "3", "--json"):
        "de668deecc1455cf447c5d1905969581a7f3def26ffb2f01a8398715a37ef314",
    ("sweep", "--suite", "bruhat", "--n", "5", "--samples", "2000", "--seed", "11", "--json"):
        "c0de9ba955b2356020ce4444ea49380eb07aa92f37d710804fb51f2d99ae05b4",
    ("path", "--n", "8", "--p", "5", "--json"):
        "e59a2b3fdf1dd4ed255c0c39eaa4be984d844898b4cdee10f8238f98e0a73cbe",
    ("neighbors", "--elem", "4 6 5 2 1 3", "--json"):
        "72162610a947703a70dcc878bc6b76d5686a96cebec75692022a5e3d38b909ad",
}


@pytest.mark.parametrize("argv", sorted(VERB_DIGESTS), ids=" ".join)
def test_verb_json_is_byte_identical(capsys, argv):
    assert run(list(argv)) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == VERB_DIGESTS[argv]
