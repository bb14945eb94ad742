"""Byte-identity of the JSON output: identical flags give identical bytes.

The digests are sha256 of the stdout of `zipcone verify-theorem --n N --p P
--json`.  They were computed before the certificate multipliers became
closed form, when every implication came from Fourier-Motzkin search, and
are the same under different PYTHONHASHSEED values.

The digests of the sweep, path and neighbors verbs were computed while every
window product was still fully re-validated and the neighbor oracle worked
on validated objects; they too are the same under different PYTHONHASHSEED
values.

The digests of the farkas and cone-check verbs were computed while the
exact linear algebra still ran over Fraction: Fourier-Motzkin on Fraction
rows, Gauss-Jordan in `solve_square`.  Each digest covers a seeded group of
runs, hashing every exit code and stdout in turn.
"""

import contextlib
import hashlib
import io
import random

import pytest

from zipcone.cli import run
from zipcone.cones import cone_GS, lmin_prefix_cone, n3_exact_cone, pha_wmax_cone
from zipcone.weylroot import random_element

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


def _group_digest(argvs) -> str:
    h = hashlib.sha256()
    for argv in argvs:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc = run(argv)
        h.update(f"{rc}\n{out.getvalue()}".encode())
    return h.hexdigest()


def _functional(coeffs) -> str:
    return ",".join(map(str, coeffs[:-1])) + f"|{coeffs[-1]}"


FARKAS_CONES = {
    "gs": lambda n, p: cone_GS(n),
    "pha-wmax": lambda n, p: pha_wmax_cone(n),
    "lmin-i": lmin_prefix_cone,
    "n3": lambda n, p: n3_exact_cone(p),
}


def farkas_runs(cone: str, n: int, p) -> list[list[str]]:
    """Seeded `farkas --json` runs over one cone: two sparse nonnegative
    combinations of its rows (two rows each) and, up to rank 6, one dense
    combination (every row), all implied; then three random functionals,
    mostly witnesses."""
    rows = FARKAS_CONES[cone](n, p).hform
    rng = random.Random(f"{cone} {n} {p}")
    combos = [rng.sample(range(len(rows)), 2) for _ in range(2)]
    if n <= 6:
        combos.append(range(len(rows)))
    targets = []
    for picks in combos:
        mults = {k: rng.randint(1, 3) for k in picks}
        targets.append([sum(m * rows[k][c] for k, m in mults.items()) for c in range(n + 1)])
    targets += [[rng.randint(-3, 3) for _ in range(n + 1)] for _ in range(3)]
    extra = ["--p", str(p)] if p else []
    return [["farkas", "--cone", cone, f"--target={_functional(t)}", "--json", *extra] for t in targets]


def cone_check_pha_runs(n: int, p: int) -> list[list[str]]:
    """Seeded `cone-check --cone pha --json` runs: random stratum elements and
    integral or rational characters, so `solve_square` sees both."""
    rng = random.Random(f"pha {n} {p}")
    runs = []
    for k in range(6):
        w = random_element(n, rng)
        den = 1 if k % 2 == 0 else rng.randint(2, 5)
        lam = [f"{rng.randint(-9, 9)}/{den}" for _ in range(n)] + [str(rng.randint(-2, 2))]
        runs.append([
            "cone-check", "--cone", "pha", "--p", str(p), f"--elem={w}",
            f"--lambda={_functional(lam)}", "--json",
        ])
    return runs


FARKAS_DIGESTS = {
    ('gs', 2, None): "befe00b7892cbd3e75546165f9cb49d3ad6a8e7e97bb3dc9ca0eee525c405346",
    ('gs', 3, None): "087529cfd9a7bd7ac111eb3dad3cbaa14b8190ead3b51c3c36630b8d2dee6010",
    ('gs', 4, None): "45fbf40ada1b7399836bd7afeb4acd067659cac43838714623e6778d10d4e290",
    ('gs', 5, None): "4504479bf4181f00f8f7743ff37169cfb495b5df482288123393fc454bf24600",
    ('gs', 6, None): "91ac47f01f8e6777fd575cdfdcb88c8616c1b34231c5462fa55e571f46f05e2a",
    ('gs', 7, None): "7ec99430d1ddc1cf283ab461f9fa47114888be645ad4a32033440824ab57d429",
    ('pha-wmax', 2, None): "9378545ce6fbeb5091b9bae48fb148b37786e063089a52b6f176b8048e72e5be",
    ('pha-wmax', 3, None): "dec2c860d370574fc2070ac8a3060f6454352c367b92fa2a9ea462f8e9585abf",
    ('pha-wmax', 4, None): "7a7e124089ca8ab0896863e67703d44c3078a88ce602e536f294af26eb26ad0a",
    ('pha-wmax', 5, None): "b25e0588aceb89449d62e243072207e713915c82000d9e2b2b8d15666e4381b3",
    ('pha-wmax', 6, None): "2ea3780a382bfa45e68a0de303c2acda75d817305a9f0674b5ec02777cbd061c",
    ('pha-wmax', 7, None): "461070c2fe349b825a7eb52a8ad8f57a6560af0f777a640cee6b862cbea06484",
    ('n3', 3, 2): "06103c66cb5d05776f689fe09f6f21a2cf8276aeb524c245b9c8de69d5dcf002",
    ('n3', 3, 3): "0b3ea6202d9197916d5c20529e7490b965fd2d0fbe1629e3361d4eac3f0b7dde",
    ('n3', 3, 5): "f680791d4246f76da16e42fffe43bb9f223f00f7c1577e35fee032e0d875d687",
    ('lmin-i', 2, 2): "9f6cb124b6112b1c2621f51735799580b053c316b30627b3851a01e8440853c7",
    ('lmin-i', 2, 3): "30b97255e943a0e39f500f1e4aa34728573de269da36da0766e458a0af197575",
    ('lmin-i', 2, 5): "6d7d497a2f9d5680343db774efda0000f8b0f343514614ed8660c94c95b7975f",
    ('lmin-i', 3, 2): "9c0e7f89dbdaed1dce6b3d4f076afca105e99801be754134ce57f811a9352ae2",
    ('lmin-i', 3, 3): "c24c3653746fd8379ebe84593baea7792653df58ab47530eaf0dee5c6f3e9362",
    ('lmin-i', 3, 5): "3a174a42534374622cbe43b7a7163e263c47bdb7e6da004d984dac7446770ec0",
    ('lmin-i', 4, 2): "7363970c097d091beeaa083424c7de72ee1f58d7508c6a9ac566c59d9b3cba89",
    ('lmin-i', 4, 3): "a945263ceba3e66807c076ca8f529f2dcad0dcd2231085ee36bd224ece545d96",
    ('lmin-i', 4, 5): "71bcc95c9abcbf7394212623a539b5fbb23ed4259c0a5cd47a123e0e7d5a3324",
    ('lmin-i', 5, 2): "7770224490241aa1bf8f4d31f822fb382d2e3acdd11baab789b8f87d12975fb6",
    ('lmin-i', 5, 3): "74ea33883d5d9a0a82474f7778da48ec124ecfc0dcf625f5e80741ea986f2a59",
    ('lmin-i', 5, 5): "6073b3acaa7d60b0d7811a5c6105dcf2fbbe3433719d21a0ac468f3156b0a058",
    ('lmin-i', 6, 2): "833f5990eff4f430586721191c529200f46cb1785a6f034ad43fc908a9633a2d",
    ('lmin-i', 6, 3): "5850fe9a53c36b0a036bbf001cadae3b08c2f7f2db41c15931fe4ec1aa83dff1",
    ('lmin-i', 6, 5): "5472a39e63f373b7c744e071322b6d412586ebdcca9c2bc18c2a1238be54c9d4",
    ('lmin-i', 7, 2): "d403a3aaaeadc6471136ff1098f02972402b4c6be58c5c166fa259da2a4f558a",
    ('lmin-i', 7, 3): "d999ab5434ce1c5c9eeb9f47cce816278cfd3f03251f82f7945e3d4f6e0c7c72",
    ('lmin-i', 7, 5): "33d0ca47d584ed912c553308f0f9fde992c74f02aaa274b954676179d39559e7",
}

CONE_CHECK_PHA_DIGESTS = {
    (2, 2): "52f1e40a1c63858fe04ab28789ae0c4253bb95869f892ba1dbaa79c4fbd29bfe",
    (2, 3): "3ee239b88607103b122df372ebd25f9600ae99dee83225ad8a4874d16ef5b97d",
    (2, 5): "76d2aee6ffd294173adb360355f44740bd163a8fd44c760100728fd2887cf6ba",
    (3, 2): "189a757d64da15f32ae45c3e7a7690d35f282eb0e450ece1eae05ffb662688dd",
    (3, 3): "14459d73420665868bc6bacce930cc7c18249e5e85b47f86903c126985eca377",
    (3, 5): "e7d1438c84048652686fda9047e0f720b2fbec1adb44bd35dd20709925b9c9c4",
    (4, 2): "5254aa8eea868644c8d0a2c660493072393573ac48c5dd389b1fc3edd243f4d9",
    (4, 3): "ca188b5e9a62117d73aba53ef24e90e2326fe350479f1087dc59959ca118f219",
    (4, 5): "c6e9c5f1a972aa9fcec156065e5e180178a260d83c306e11ed78c08465294dad",
    (5, 2): "df1cb43e642bbefccf5afe29c624918e1c0cbebcae885594e4789ea1d63ad186",
    (5, 3): "bb7317c1407dbc3c393558c2cd9cae846ae35dd6f94ea8ab232bd0f16052ac0f",
    (5, 5): "95d0165d7b2c3d3ff9b8565e9a4b78434d3ea192d930c353985f40123db5512b",
    (6, 2): "6cc590ab277c43a7a49b162924445509cded8bc127a051c37fbc59bf5f9fbfbe",
    (6, 3): "da16815321e177201f9b593cb09a79690c43181c44ace592f0508574467d9436",
    (6, 5): "74ba307da4302268db40dc4fa2dc5c6dc84c0647ed560b8f538717c00fdf9770",
}


@pytest.mark.parametrize("cone, n, p", sorted(FARKAS_DIGESTS, key=str), ids=str)
def test_farkas_json_is_byte_identical(cone, n, p):
    assert _group_digest(farkas_runs(cone, n, p)) == FARKAS_DIGESTS[(cone, n, p)]


@pytest.mark.parametrize("n, p", sorted(CONE_CHECK_PHA_DIGESTS))
def test_cone_check_pha_json_is_byte_identical(n, p):
    assert _group_digest(cone_check_pha_runs(n, p)) == CONE_CHECK_PHA_DIGESTS[(n, p)]
