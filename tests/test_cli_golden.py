"""Golden outputs: each command's exit code and the SHA-256 of its stdout.

The table pins every verb's output byte for byte between changes.  An
entry may be rewritten only together with a note saying which outputs
changed and why; print the current digests with

    PYTHONPATH=src python tests/test_cli_golden.py

GOLDEN_ERRORS pins the documented exit-2 cases the same way, with their
exact stderr.  They run in an empty working directory, so a relative
--out path appears in the message as given.
"""

import contextlib
import hashlib
import io

import pytest

from crystalcharge import cli

GOLDEN = [
    ("crystal --rank 2 --weight 2,1,0", 0, "1b3182204aff45ba27e9376e849f9d6900ec7e655a5b3b88fa3b8592fe3f3222"),
    ("crystal --rank 3 --weight 2,1,0,0 --format json", 0, "2621ced6e0c755e7dc90c56bbd767a594ffec0b7bf0b39f8470b6b83c4e8a46a"),
    ("atoms --rank 3 --weight 3,2,1,0 --format json", 0, "9109dac88e0da6a5939413494e8d193b8b5e28fe4ddbee581d24081409c5d6fe"),
    ("kostka --rank 3 --weight 4,2,1,0 --mu 2,2,2,1 --method new", 0, "5ed14e93932071e0f4fa5dd802d64832e05cc9b88e0f8695b674e105ff655f38"),
    ("kostka --rank 3 --weight 4,2,1,0 --mu 2,2,2,1 --method ls", 0, "5ed14e93932071e0f4fa5dd802d64832e05cc9b88e0f8695b674e105ff655f38"),
    ("kostka --rank 3 --weight 4,2,1,0 --mu 2,2,2,1 --method llt", 0, "5ed14e93932071e0f4fa5dd802d64832e05cc9b88e0f8695b674e105ff655f38"),
    ("kostka --rank 3 --weight 4,2,1,0 --mu 2,2,2,1 --method count", 0, "06e9d52c1720fca412803e3b07c4b228ff113e303f4c7ab94665319d832bbfb7"),
    ("recharge --rank 3 --weight 3,1,1,0 --stage 0 --format text", 0, "3b0ee01bc9baddb13df57e6fd584241690b2ada29dae6c3ff120ad76b3b46ce3"),
    ("recharge --rank 3 --weight 3,1,1,0 --stage 0 --format json", 0, "4c64d1622c55c207328c91f82940ac6db6b1b9b2402fe440b93dde8829f455f7"),
    ("recharge --rank 3 --weight 3,1,1,0 --stage 1 --format text", 0, "7e2a748f9f23857f0e2413c4663a790b34a5979cb2c125c86794ebc60482ebf5"),
    ("recharge --rank 3 --weight 3,1,1,0 --stage 1 --format json", 0, "72f23c9aaf9146a716859d649f4b81c72b32216678a6c3979f70459151983512"),
    ("recharge --rank 3 --weight 3,1,1,0 --stage inf --format text", 0, "2b74ab161a314168d9892f41710cb3538de11059706ee2216fdd287bada5adf2"),
    ("recharge --rank 3 --weight 3,1,1,0 --stage inf --format json", 0, "2fd5b92d96b75c704bb6fd08954594332ab39a291d4a86c4cd563dbb7f0e9760"),
    ("hecke --rank 3 --weight 3,2,0,0", 0, "8b5c1578dae874f3595652b03ba08d0fe9db9e9c424ae5d33caa9509ff240049"),
    ("graph --rank 3 --weight 3,1,0,0 --stage 1 --format text", 0, "919ce7d13b84bf8b31158ba0b380c38c017e3afbcdf04672795be0b1a025ab66"),
    ("graph --rank 3 --weight 3,1,0,0 --stage 1 --format dot", 0, "ea161da99ca904f980de0d90cc9483b4aaf9c81ad309218d39b9982cebc3625b"),
    ("graph --rank 3 --weight 3,1,0,0 --stage 1 --format json", 0, "04e05185dd3fc09fff3e18ce416fee585f5d37e6185e967f21a2cda5a5287a06"),
    ("verify --suite strings --rank 3 --max-weight 5", 0, "bb62818804950bf330898a2e6b62f67971df0383ab7568691fa6e074839245bb"),
    ("verify --suite atoms --rank 3 --max-weight 5", 0, "7b90bc965c69a76d5cdde39d0f600e92d9482bbf3afe5bc7b1cf3d6e24949765"),
    ("recharge --rank 3 --weight 4,2,1,0 --stage 2 --format json", 0, "39a7c40cae137d5108b232556be16a65002d9f458eefbabe52cd3a20d114ba94"),
    ("recharge --rank 3 --weight 4,2,1,0 --stage inf", 0, "42f827cee4dfaab83ac353175590679bd2269a51965c07d64b29320603fe68cf"),
    ("verify --suite arrows --rank 3 --max-weight 5", 0, "00cb8115499887b3b666a63fffeb4a49aa1ea0a4562ae08815f9fc69543289c8"),
    ("verify --suite gammam --rank 3 --max-weight 5", 0, "151c1ee5a1f45214911a9a5603ce0953b4058e47c40fccc3691f94efd3c17f44"),
    ("verify --suite swapping --rank 3 --max-weight 5", 0, "6cb7298a2e3f06e867e8a519f043ccca06042b0c845c1907e25ede662edef374"),
    ("crystal --rank 4 --weight 3,2,1 --format json", 0, "f961fa0ff7e6c4bb091c418b8c4e1da3849b60ef725a5b1d77a251d4e6c5da05"),
    ("atoms --rank 4 --weight 3,2,1 --format json", 0, "754d24d55e6ba1cf35883aa1bc70ed972079797a24752016f6681acb2987106a"),
    ("kostka --rank 5 --weight 3,2,1 --mu 1,1,1,1,1,1 --method new", 0, "1b17a45bb4f2b948f510ff43fdbe2cee83e5d7c48600c5c00d715708f53dfba4"),
    ("atoms --rank 3 --weight 3,1,1,0", 0, "63e9949446f70df5207bda3eeff1916694a4c8d2b37e5a6bdda93bab6e9b288e"),
    ("recharge --rank 2 --weight 2,1,0 --stage inf", 0, "a5d3333efbea19e756d02e1b670b1554acc3e0f334d03b1027390b292a181beb"),
]

GOLDEN_ERRORS = [
    ("kostka --rank 2 --weight 1,2,0 --mu 1,1,1", 2, "error: shape (1, 2, 0) is not weakly decreasing\n"),
    ("crystal --rank 2 --weight 2,x,0", 2, "error: expected a comma-separated integer list, got '2,x,0'\n"),
    ("crystal --rank 2 --weight 2,1,0 --max-elements 3", 2, "error: crystal of shape (2, 1, 0) at rank 2 has 8 elements, exceeding the cap of 3\n"),
    ("graph --rank 2 --weight 2,1,0 --max-elements 3", 2, "error: interval below (2, 1, 0) at rank 2 has 7 weights, exceeding the cap of 3\n"),
    ("kostka --rank 2 --weight 2,1,0 --mu 1,1,1 --out missing/out.txt", 2, "error: [Errno 2] No such file or directory: 'missing/out.txt'\n"),
    ("kostka --rank 2 --weight 2,1 --mu 1,1,1,0", 2, "error: mu = (1, 1, 1, 0) has 4 coordinates; at most 3 allowed at rank 2\n"),
]


def run(command: str) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = cli.main(command.split())
    return status, hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()


@pytest.mark.parametrize("command, status, digest", GOLDEN, ids=[g[0] for g in GOLDEN])
def test_golden_output(command, status, digest):
    assert run(command) == (status, digest)


@pytest.mark.parametrize("command, status, stderr", GOLDEN_ERRORS, ids=[g[0] for g in GOLDEN_ERRORS])
def test_golden_error(command, status, stderr, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert cli.main(command.split()) == status
    assert capsys.readouterr() == ("", stderr)
    assert list(tmp_path.iterdir()) == []


if __name__ == "__main__":
    for command, _, _ in GOLDEN:
        status, digest = run(command)
        print(f'    ("{command}", {status}, "{digest}"),')
