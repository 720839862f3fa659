"""The bytes of `lgw scan` and of `lgw table` over it, pinned by sha256.

The real digests were taken from the per-field real scan, before its rows
became columns, and conjugate_branch before the second split residual was
read off the first; the imaginary ones (imag_conventions here, and the scans
at 1e6 that the CI workflow checks) while an imaginary scan still built its
rows eagerly. Every later form of the scan must write the same bytes.
"""

import contextlib
import hashlib
import io
import sys

import pytest

from lgw.cli import run

CASES = {
    "limit3000": ["--real", "--limit", "3000"],
    "radicand_powers": ["--real", "--limit", "3000", "--by-radicand", "--powers", "3"],
    "same_branch": ["--real", "--limit", "5000", "--pairing", "same-branch", "--branch", "-1"],
    "log_branch": ["--real", "--limit", "300", "--log-branch", "1"],
    "conjugate_branch": ["--real", "--limit", "3000", "--branch", "3", "--powers", "2"],
    "imag_conventions": ["--imaginary", "--limit", "5000", "--log-branch", "-2", "--branch", "2"],
}

SHA256 = {
    "limit3000/json": "c7b0247ce4bc34b2c67a8e6eccebb78c9d4883934dc58ca5c099818e2b466fbd",
    "limit3000/table": "3f6b061111e1af8d25cf5963c47c376f72e3e4820b188ff21a0c32c0118c3140",
    "limit3000/csv": "ba02a6a9564c6fd53f8bff8bd4f989544e8db818ea1d1ce45bcafd6205ba0985",
    "limit3000/plain": "1d6e1a57d6a584c3a784d2b269ebf0acf6f01fae7b56411725c1e1e2e28b3d7a",
    "radicand_powers/json": "c0f3021a73c3b65d78d506350e263f616f5b2a114378329643143022b401b2f7",
    "radicand_powers/table": "911f4b43e394fc2ecbcdbb998324254dd8c5684a7e52424f43dfa20d72ddd93a",
    "radicand_powers/csv": "8af24167ce94c921eb53c3c1d86b0532db0f65d1bc54778da88353a21f8725f4",
    "radicand_powers/plain": "ad9796dfa6253804e4b2f3e359287b9cb07d32f22cca7e5e2960ad1fa1feadaa",
    "same_branch/json": "631a7f57c9c85a17ee88ec5d26a789adf68eded85370f6d0ceb6ca022993a536",
    "same_branch/table": "b0f4a10c7a08f6e2e552eb527491df9d579afd41069765076118c6c44f97f962",
    "same_branch/csv": "6fd92d71ab2bdc98dee2c655635f09e56f38fc572a68f001eb7730f247eefa49",
    "same_branch/plain": "0ce5e747afc7481f6877b87f29ed5bb770f7e07360bf31e9490c95e053d94f34",
    "log_branch/json": "ff619eab9f557f451a9034ec7d0df80d04d989da72b997e5dd89c316c465140f",
    "log_branch/table": "d8cc596b36243dc3e1d6f2449e01028d286af892a6fa8a60a7bd87ff2426a064",
    "log_branch/csv": "22fb578e671dec772e3b7940fa955151b01c4d06e65c0a8c17164a9fe6fc75bc",
    "log_branch/plain": "5c5b9c9b8f88784b44a23fdb3de285f91fc5fca5a300f6398e51f91e906c1ca4",
    "conjugate_branch/json": "0dab4dabec340296ea8b951881c01d7607b06f976f9e12edaa8e001032cc7504",
    "conjugate_branch/table": "9aba8b4009367bccc7b19e8497411eb8533c12cea987ce645ef126fcb636726b",
    "conjugate_branch/csv": "524d0879a15b7ee0bba6040e275e07244bd45243f6209e0815b426ee83ee0502",
    "conjugate_branch/plain": "92c49bfde74a18d1f3db2439f5dddc7ea8c10ccd5828ba76c5a8393fe7e6e1c6",
    "imag_conventions/json": "dfd19701974ebeb42536b148ad22bbe03b62a58e5358a8fd5914d7be606b5c23",
    "imag_conventions/table": "18a7183d05251e7425f0af0ede2c1b7bb20f86c46ab0660454e689b0703883ca",
    "imag_conventions/csv": "07801ab78086d5c68a71ce3abb630d5b1b018c77714a56c8f9ceabfa1741e35d",
    "imag_conventions/plain": "9d75585eae5de5ce0862f87b74392fca045633d1fac210bcabd29a57fc2d5f87",
}

# `lgw scan --real --limit 100000 --format csv`: too slow for the suite, so
# the CI workflow checks it (its periods run long enough that convergents
# leave int64).
SHA256_CSV_1E5 = "89cbb426fcb12146dbe22335811a2b7de326c2dfa55bc5a57c05d3a95b78c762"

# `lgw scan --real --limit 1000000 --format csv` (about 15 s), taken before
# the continued fraction was batched; checked by the CI workflow the same
# way. Its 303,957 radicands span five blocks of the batched continued
# fraction, and units of thousands of bits pass through Python ints.
SHA256_CSV_1E6 = "d44bd952c17b6bf6f1afce409ac88cba3745ea70f50f3e38d907aea8624941cb"

# `lgw scan --real --limit 100000 --by-radicand --format csv` (D up to 4e5),
# taken from the cycle sieve before the distance sums; checked by the CI
# workflow the same way.
SHA256_CSV_1E5_BY_RADICAND = "19a5ef9e88414f6dca024a0b7abe41553657290cea46aec8cbdefd28c3063b09"

# `lgw scan --real --limit 100000 --format json`, taken while each root was
# still a record dict; checked by the CI workflow the same way. It pins the
# JSON writer of the h = 1 rows where convergents leave int64.
SHA256_JSON_1E5 = "e54f55539447bc581399f1bb3d24615f271d2efbb8440c15456ea3bc67e84a6f"

# `lgw scan --real --limit 100000 --branch -2 --powers 3 --format json`:
# conjugate pairing off the principal branch, three roots a field, taken
# before the second split residual was read off the first; checked by the CI
# workflow the same way.
SHA256_JSON_1E5_BRANCH = "f97258b0007f9464842668022d83701a35707e9d93d73bf8208305e428ce8442"

# `lgw scan --imaginary --limit 1000000`, as JSON and as CSV (each under a
# second), taken before the writers filled their chunks a column at a time;
# checked by the CI workflow the same way. The suite pins imaginary output
# only at 2e4.
SHA256_IMAG_JSON_1E6 = "beb5e96f74f2625f441e11e40c6251d96c992de35cc3ea96d5794eb26e3e1a0e"
SHA256_IMAG_CSV_1E6 = "fe4effcd6d7f2d304efe7de9979a5f9b2ef79182b6a7bfe4ac8f216e98985519"

# `lgw scan --imaginary --limit 1000000 --log-branch 1 --branch -1 --format
# plain`: every torsion unit, 1 included, with a root off the principal
# branches; checked by the CI workflow the same way.
SHA256_IMAG_PLAIN_1E6_CONVENTIONS = "bdbd75058070e64c93d08261ef4033af71f8385e2d2b2265ef9b049beb39f4bb"

# `lgw scan --imaginary --limit 10000000 --format csv`, the imaginary scan at
# its ceiling (6-9 s), taken before the discriminant sieve became a byte mask;
# checked by the CI workflow the same way.
SHA256_IMAG_CSV_1E7 = "b447d8eb342f5218702874c0e0da4a290f6a9f2be22277ae00340f19ac104a9c"


def stdout_of(argv, stdin=None):
    out = io.StringIO()
    old = sys.stdin
    if stdin is not None:
        sys.stdin = io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(out):
            assert run(argv) == 0, argv
    finally:
        sys.stdin = old
    return out.getvalue()


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("case", sorted(CASES))
def test_scan_and_table_bytes(case):
    for fmt in ("json", "csv", "plain"):
        out = stdout_of(["scan", *CASES[case], "--format", fmt])
        assert sha256(out) == SHA256[f"{case}/{fmt}"], fmt
        if fmt == "json":
            assert sha256(stdout_of(["table"], stdin=out)) == SHA256[f"{case}/table"]

