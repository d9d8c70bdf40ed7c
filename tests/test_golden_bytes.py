"""Pinned sha256 digests of reports, certificates and traces.

The digests were recorded on the code before the integer row kernel
replaced the Fraction/RatFunc row sweep, the ``check --method minors``
ones before the expansion sweep replaced one elimination per minor, and
the ``check --method neville`` and determinant ones before the Neville
test and the determinant moved onto the row kernel, and the ``factor
--verify`` and ``network`` ones before ``path_matrix`` moved onto it,
and the n = 40 ``check --method cross --trace`` ones before the numeric
sweep decided its signs on integer numerators, and the symbolic ``factor
--verify`` ones before ``--verify`` peeled the certificate off the input
instead of re-multiplying it, and the reports for n = 11..14 and the
certificates for n = 9..12 before the symbolic row update divided out
gcd(P, B), and the symbolic and ``RatFunc`` minors cases and the early
singular sweeps before the minors moved onto the row kernel and the
sweep decided singularity on its full rows, and the slow reports for
n = 16..32 before the carries generators were built from per-row
binomial tables, and those for n = 40 and 48 before the polynomial gcd
became the heuristic gcd, and the symbolic ray-2 checks, the prime and
point cases and the singular symbolic ones before the sweep and the
Neville test decided singularity modulo a prime first; each must print
the same bytes.  Any change to a digest
here is a change to the program's output.
"""

import hashlib
import json
from fractions import Fraction

import pytest

from crosstnn import amazing_matrix, amazing_matrix_symbolic, matrix_to_text
from crosstnn.amazing import report_to_doc, verify_amazing
from crosstnn.cli import main
from crosstnn.exact import Poly, RatFunc, format_scalar
from crosstnn.matrix import Matrix, determinant

REPORT_DIGESTS = {
    1: "95624123c5c41f94d23e42f21b0101a530e984a6c40f3097d43ec899b122668d",
    2: "a316051e980ed4fa637fef9536c82955f58551386491ab8f4f7d31a6e613da4c",
    3: "e2b9364a89ebf14a2d8a7967ca664672c266fab9d1db7821e84f68255b9c9433",
    4: "1bec10b130fd25f6df25ca3dc945256f827633e7b24d63401bb15df7eef2402d",
    5: "1139c144e076bdf7fe9587a908953436fe71b8d4916a8906e5ba012c2a5ef028",
    6: "a5350e070d961b7600690adbb55855cbe17e8c2bb6992c4a0a89af6832b37379",
    7: "0867adaf70a3fc5b5605a3c29fb5fe55bb312b4790045255beb7f476e9be2ac1",
    8: "71c5125bae3d366620064981c8ab3abdf6b8b16ba93a32cf6ca7eb191c2c163e",
    9: "de033e0c9b3aa4ad6f3677e19ec23840adcd1b5455ae4a55ed88fa2d8375d544",
    10: "717b14f5862363dafa33f21049c54a49d1c21df64ea8aa46a0b6bbdc4b0bbfcc",
    11: "de3a1420c8cdab9ee9be5d22a5eab6ccbb2afca5ed4ec0e83c3ca5134b24452b",
    12: "dd46c7ed83d878aecca30c7fa3deeaa710db23bebb0222bdc0fa08ebe51ed9bd",
    13: "f28b0b868168175064fd08630b590b61813cb52ddf7792829904d45e6a77bb77",
    14: "c91e7f01a83c2dd79c64588e71209d3e2fb4dcc4cf843193fa5a39d8528ec701",
}

# The same reports at larger n, several seconds in all: they run only with -m slow.
SLOW_REPORT_DIGESTS = {
    16: "601a75d2915298fe3902e5c2e645f239719de00d6efacac3a749885a7c0765f8",
    20: "475ed1f20c537a6a28c9fe8f1b17d9dca66632af063adac05ad05db74ba69137",
    24: "cd1a8cdf85e7dd5843042b76cab94eea5024cdeb2d618f6c937bd1f460b14ba5",
    32: "069a3f42d9a8e01646f77ee253ad1b718bd42bf697dae8d3fc317727e182c969",
    40: "ab2170797e9e305edc100520352e7bdf27c62bb8165ced6597cd950a415523d0",
    48: "1c85042f853538524da049c20ffd599ae1fb78409d2f1d0282261b2de2e1c20a",
}

CERTIFICATE_DIGESTS = {
    3: "e945b9f42932aeed01b297f1938a557e9e8966e801ee4ea2ac2173954db8109f",
    4: "4d9a906210e576f6f99ecccb1fb2d9f8b668d30f7def1cc22fcd66536801a96a",
    5: "4d19000ec0cb15697b46ab7bafbb71f374f2955e82937af2d97c22c814b65e3d",
    6: "e4722e751748c28121099c80643046a32a85ddf9542efbfebf3acb20dfc276cb",
    7: "11fd75b36ec009270d209e6d8177b04de5b6b6cb0685736523b655f088d1ea2f",
    8: "99c9e09f15fba50f75f88bff6b4215d268756b2609575b1e3a2db579f60cdafa",
    9: "89596cdff925f3476ab58ead4b6b1b872d6df2f0a494f0517423e1cc195b4e31",
    10: "d53d675f4d1d64611167f41b89eb586aba38ef0bc1a76d07635435530eb18bcb",
    11: "9883d10e633fc0a54252c090023deb7b5eb3e23c61dcd930cf771091ebd9578e",
    12: "0aa5ee51c4208b73ebe7076786d0c315b92a3cb5190c8b374cd6e74fdc0eab6e",
}

# check --method cross --trace on the n = 40 scaled carries matrices, and on
# copies with entry (row + 1, 20) and its mirror negated (0-based row in the key).
TRACE_DIGESTS = {
    (3, None): "d1bfbe3ee94aff99d51d3622ad3f223962303f32fae48b0ba1b7902a3006a8a1",
    (10, None): "d482ca32639fb2b53f95ed0fe6bf9a84a66d5c164e632b5d57d2d76e6b20c172",
    (10, 25): "990117e47cf8fdf6ae8875e0f00e821fc12723f2efc1643b9064118ae663f671",
    (10, 0): "f3b2a1f9afd916cc13df32a2f12aa2a8b019d768f006ed9570d807525560ce41",
    (10, 5): "0282db4a55847e1b83daebd26eb095d1ddeaa422fe76a105f08c418b9b543ebd",
    (10, 34): "f77d423ee3e5939ad6b847448acb8374e9827f6131315ddc314f25496516b23a",
    (3, 5): "a18ba61bebfd08893befc495431a9ae1869f44ac3476150e2fc84d17b3874422",
    (3, 25): "4331163871d3f49663742750ebd7413e96d891444b728726292a429e3a1bb196",
    (3, 39): "159963dcc9fe282dab366ad898cbfa0a7737771c125f6df3b6a8c114a559d02f",
}

# check --method cross --trace on the symbolic n = 5 matrix at rays 1 and 5.
SYMBOLIC_TRACE_DIGESTS = {
    1: "23a9af52fa14e8cfb160f4fd7f5419f7d2850b82ddc15146c8b27b1a860b11a8",
    5: "72d38112aedfc7f49eee02b2c321d60d2f936f8a4e46f5a9bba3874108439da4",
}

# check --method minors stdout; the witness lines carry the exact minor.
MINORS_DIGESTS = {
    # the n = 7 carries matrix at b = 10, certified
    "carries": "3c1f55a3b561c2787a3e2dc01bab84b99e781fc7ac205fe0c987408db47b5ff5",
    # the same with entry (4, 3) and its mirror negated: rows 4, cols 3
    "carries-flipped": "117ccc8441ae910f2d49d1a34056c078ebc27cbf6031674971e2452a8260b0cc",
    # singular, with the negative minor -3 on rows and cols 1,2
    "singular": "727402cb23ac49c850dc00512bd92f1f7d332ddfb474369be448e697cc2a1486",
    # every 1x1 and 2x2 minor positive, the determinant -19/42
    "mixed-denominators": "41ad6c5e5c6552d8038cb0d0cfa51fd84c765bb0e8ebe3badf9118055c415df0",
    # the symbolic n = 5 matrix: indefinite at ray 2, certified at ray 5
    "symbolic-ray2": "3a95ee66f392ef09178bcf4341a92a35ae8ba4511301d92b9ac649f81d026688",
    "symbolic-ray5": "3c1f55a3b561c2787a3e2dc01bab84b99e781fc7ac205fe0c987408db47b5ff5",
    # the symbolic n = 5 matrix with entry (4, 3) and its mirror (2, 3)
    # negated: indefinite at ray 1, refuted by the 1x1 minor at ray 5
    "symbolic-flipped-ray1": "3a95ee66f392ef09178bcf4341a92a35ae8ba4511301d92b9ac649f81d026688",
    "symbolic-flipped-ray5": "1d3c7f53e87d363e864e25b8a1af4aa4f4a0f69349dfa015eb67ccdc99100823",
    # [[(b+2)/(b+1), 1/(b+1)], [1/(b+1), (b+2)/(b+1)]], certified ...
    "ratfunc-ray1": "3c1f55a3b561c2787a3e2dc01bab84b99e781fc7ac205fe0c987408db47b5ff5",
    "ratfunc-ray5": "3c1f55a3b561c2787a3e2dc01bab84b99e781fc7ac205fe0c987408db47b5ff5",
    # ... and its anti-diagonal swap, with determinant [-3,-1]/[1,1]
    "ratfunc-swapped-ray1": "8c296130b9edf2328f348bc41ed41c0fc3a94337d5a1b67fcc3ecd6e8d40a1e6",
    "ratfunc-swapped-ray5": "8c296130b9edf2328f348bc41ed41c0fc3a94337d5a1b67fcc3ecd6e8d40a1e6",
}

# check --method cross stdout on cross-symmetric singular matrices that
# leave the sweep before it reaches the diagonal
SINGULAR_CROSS_DIGESTS = {
    "ones": "11ab5b790323c4b493024c4a8ac2f3050ec0826f5cce302d7a377d4c86f00e14",
    "rank-two": "11ab5b790323c4b493024c4a8ac2f3050ec0826f5cce302d7a377d4c86f00e14",
}

# check --method neville stdout on the minors cases, one zero pivot above a
# nonzero entry, and one refutation found only in the transposed pass.
NEVILLE_DIGESTS = {
    "carries": "a27e85cfc05fae6fdc4a5a5d565b3416046c989da6ea3dc76f718df138d89fab",
    "carries-flipped": "7610494989abd90cad209120f237295ed7a507d53d4090c8c6298febeeadee60",
    "singular": "262719e40d2c295dc6f1caaedcc03ad4328cf5e538b57a216888781694ea3688",
    "mixed-denominators": "dc4237f604feb1ae0f6405dfbb5d4eedbe8df9d2ddddf08f6e5f48ded6e32e17",
    "symbolic-ray2": "aea07f569734538a0cbb39c50d4fbfdf7bd39462bc0bc753a768a9233698ced5",
    "symbolic-ray5": "a27e85cfc05fae6fdc4a5a5d565b3416046c989da6ea3dc76f718df138d89fab",
    # rows 2 and 3 hold 3 below a zero pivot after one step: s=2, t=2
    "zero-pivot": "44c0af3f7341ad0aede467828863dbb5f7271b8ebed1799bd904f429bd306aa7",
    # upper triangular, so only the transpose is refuted: s=2, t=2, -3/2
    "transposed-pass": "628241a8fdf7b5bf45e95ef2a5c056383694e134d6217257d4bf4f741a3b1500",
}

# format_scalar(determinant(...)) of the symbolic carries matrices
SYMBOLIC_DETERMINANT_DIGESTS = {
    1: "463f2998327eb3a694145e6014444480b2235be84aa6cfd57871cc64f1cd816c",
    2: "4a09c971672901816cf9043fd2d02e6bf4657585be4be39027eabad7e7e11752",
    3: "c3f169a77e93176285025f7e430dce9194466af9bc8e81c5657d9f73e9e9e039",
    4: "2aaf7d186b55273c338f410081e57b7f6942c2c55d33968e71b1da06df3862e2",
    5: "5e94673a54a7bf4a603e42b8a1dbeb146aeee291e3bb72802faed4244b3ca368",
    6: "c61d27625786a2b4c7bf37b4b61434d07a471c5e5d5736f2f0b78445c709c165",
    7: "379aeb674ba3e1ddd514d93f5d36dea94e5f96b937160dc88ebcf19433118ad2",
    8: "f7b5b4849ec20ac27c78ef6f3babc321b8ffec9c8bcffe9d722c620da496bd98",
}

# ... and of the scaled carries matrices at b = 10
SCALED_DETERMINANT_DIGESTS = {
    1: "4a44dc15364204a80fe80e9039455cc1608281820fe2b24f1e5233ade6af1dd5",
    2: "40510175845988f13f6162ed8526f0b09f73384467fa855e1e79b44a56562a58",
    3: "6cce36d9f8a9e151b100234af75cca89d55bcb94c153f51847debdf1f39cae45",
    4: "e476a1537b03d06db3ffffdbe4ac07a137333c5f6ef58d7375a4238751d7c3d8",
    5: "6a4ef24cb01aa0e97da4186c067128b828532db703db8872fa736a0cc0b363b1",
    6: "b3c4d9d40b4c90b3995fea02caaf40503883e2b8b9aa1420063f090f42186f21",
    7: "f4b26a702d2ce14451842e14f0434317791959dcea814df6c768dc0e65a958b8",
    8: "5ff6853e63028ef824e12c67ceaecd1a92fc6abd43bb4234466dc67d2d86e1fc",
    9: "be3c8b16491b4f29bbc9177f88d8bcfdac018990fd00c5d1aa726b6e9d335e89",
    10: "f100b8b495505f1d57e11878aec19d8ea763869ef2251225597d5d791bb78cdd",
    11: "1838511b447fd0d623b9dd5bbc71e407904dcd8aabee1c5e180fdc6bca2d72e0",
    12: "33a420452cf23be88593b7b982173389819de6b24bd4f5a81e9db1cda1f6d9fe",
}

# factor --verify --out on the scaled carries matrices at b = 10 ...
VERIFIED_CERTIFICATE_DIGESTS = {
    12: "1fe65d21f606862bf569109adc5b8e3183e83d2beba0f3ccb0859c5aa785f1e3",
    14: "ee4040fb5852bedc4ea36f9ea1e100dba07ee87ad0e239fef3d2985859fb804b",
    16: "0af24ff115ab74423dbc8c94421d3fc85cc24b4446850df8a683160343016b62",
}

# ... and network CERT --format doc|dot on those certificates
NETWORK_DIGESTS = {
    (12, "doc"): "579341e94c1c457831db8885543a5b46f4c18c11863d85883da25e577104c8f2",
    (12, "dot"): "7ebec3b39c5f8b1c79aeb023a47c66cea4e221dc4ef76f557088659a5e208ca4",
    (14, "doc"): "3896421cff138b3f706d27cc0495b3dd8fc106058339526860046acd97184093",
    (14, "dot"): "f6f1544cbf7c1176f4bd39e8de4d370af651fb77f889161049b84670cf2662d3",
    (16, "doc"): "6d9960c8e9ef181c483aa565c3b59bf86fb4446cd16e4be45cd1aa9454272a0b",
    (16, "dot"): "b70c3f2301eedcdc4577ea01d575735b6f62d87e3bd3f8ac355163f0bd4d6d5b",
}

# factor --verify --ray n --out on the symbolic carries matrices, which checks
# the Poly certificate against the input before it is written
SYMBOLIC_VERIFIED_CERTIFICATE_DIGESTS = {
    5: "4d19000ec0cb15697b46ab7bafbb71f374f2955e82937af2d97c22c814b65e3d",
    6: "e4722e751748c28121099c80643046a32a85ddf9542efbfebf3acb20dfc276cb",
}

# network CERT --format doc|dot --ray n on the symbolic certificates at ray n
SYMBOLIC_NETWORK_DIGESTS = {
    (3, "doc"): "db4fb010749f76c07b4aa94ade70c0f3ee912d6e1757cfcfdb4c2089ca0fdd67",
    (3, "dot"): "e99f319e34da73c8ac10366b0eb717d8961050582a6c8b5a8b09966a1d507cfc",
    (4, "doc"): "a02895df54ce4834746df9db36108d25d70afae3c6ef8eee7234a55f17de593a",
    (4, "dot"): "18005967c84f09d4d792ea546dd2ecef134161fc42c5e17a62a61ecaef49074c",
    (5, "doc"): "9e0f606a4dd22b7516e08726e2d51c7a6bdad7bea81bbe2dcb9295b361490d98",
    (5, "dot"): "146d735b804b270122dbbfa5d74598d9e72ee71ee880abb8136ace7533e7574e",
    (6, "doc"): "7620b3011d470988b26f12a08aaa04d29b91ca4213feca6bcbc001328906d4d8",
    (6, "dot"): "ca305b2c32eeabdc3c3cf6a1d32a4f7487c49722e17c839a2978e3739a586a2a",
}

# check --ray 2 on the symbolic carries matrices, indefinite at that ray:
# by cross with --trace, and by neville
SYMBOLIC_RAY2_DIGESTS = {
    (6, "cross"): "bb7c055ecf86952b98446830d766eee970b25ac2fc0903809447894079252474",
    (6, "neville"): "aea07f569734538a0cbb39c50d4fbfdf7bd39462bc0bc753a768a9233698ced5",
    (8, "cross"): "c1ae1188e5cf4eb0356aa4092ed3f48a191357ede8d6e4d54743f857cf593f3f",
    (8, "neville"): "aea07f569734538a0cbb39c50d4fbfdf7bd39462bc0bc753a768a9233698ced5",
    (10, "cross"): "f1d9ec000d09d50442a16aaa69d1f9ce6795e8febb517f9c76271893ae862ff9",
    (10, "neville"): "aea07f569734538a0cbb39c50d4fbfdf7bd39462bc0bc753a768a9233698ced5",
    (12, "cross"): "24b7491a34ecc65e2d9aebb361f5f0203f3d453b8f31843a38c4432ac787ce57",
    (12, "neville"): "aea07f569734538a0cbb39c50d4fbfdf7bd39462bc0bc753a768a9233698ced5",
}

# check by cross (with --trace) and by neville on nonsingular matrices that
# are singular modulo the prime 2^30 - 35, or at the point b = 1,000,003
# modulo it, and on one singular symbolic matrix
RESIDUE_CASE_DIGESTS = {
    ("prime", "cross"): "8f6820283ca3b7ffb32dc09283c1dc1c98226041f36785a33680e87e4789d6a2",
    ("prime", "neville"): "b3c899168bc0bdd65e8e39f5c7f5b1538ff3df085050859b5f992090c87f21ff",
    ("point", "cross"): "7b418ee9ff7b84ebb40b4d6c551aa6dc1df59e4fbf133ba27d9416a3e4df3da9",
    ("point", "neville"): "aea07f569734538a0cbb39c50d4fbfdf7bd39462bc0bc753a768a9233698ced5",
    ("singular-symbolic", "cross"): "11ab5b790323c4b493024c4a8ac2f3050ec0826f5cce302d7a377d4c86f00e14",
    ("singular-symbolic", "neville"): "262719e40d2c295dc6f1caaedcc03ad4328cf5e538b57a216888781694ea3688",
}


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _negate_mirrored(A: Matrix, i: int, j: int) -> Matrix:
    n = A.n
    rows = [list(r) for r in A.rows]
    rows[i][j] = -rows[i][j]
    rows[n - 1 - i][n - 1 - j] = -rows[n - 1 - i][n - 1 - j]
    return Matrix(rows)


def _method_stdout(tmp_path, capsys, method: str, matrix: Matrix, *flags) -> str:
    path = tmp_path / "matrix.txt"
    path.write_text(matrix_to_text(matrix), encoding="utf-8")
    capsys.readouterr()
    main(["check", str(path), "--method", method, *flags])
    return capsys.readouterr().out


def _minors_case(name: str) -> tuple:
    carries = amazing_matrix(7, 10)
    symbolic = amazing_matrix_symbolic(5)
    flipped = _negate_mirrored(symbolic, 3, 2)
    b = Poly.variable()
    p, q = RatFunc(b + 2, b + 1), RatFunc(Poly((1,)), b + 1)
    F = Fraction
    return {
        "carries": (carries,),
        "carries-flipped": (_negate_mirrored(carries, 3, 2),),
        "singular": (Matrix([[1, 2, 3], [2, 1, 3], [1, 1, 2]]),),
        "mixed-denominators": (
            Matrix([[2, F(5, 3), F(3, 7)], [3, 3, F(6, 7)], [F(9, 2), 8, F(7, 3)]]),
        ),
        "symbolic-ray2": (symbolic, "--ray", "2"),
        "symbolic-ray5": (symbolic, "--ray", "5"),
        "symbolic-flipped-ray1": (flipped, "--ray", "1"),
        "symbolic-flipped-ray5": (flipped, "--ray", "5"),
        "ratfunc-ray1": (Matrix([[p, q], [q, p]]), "--ray", "1"),
        "ratfunc-ray5": (Matrix([[p, q], [q, p]]), "--ray", "5"),
        "ratfunc-swapped-ray1": (Matrix([[q, p], [p, q]]), "--ray", "1"),
        "ratfunc-swapped-ray5": (Matrix([[q, p], [p, q]]), "--ray", "5"),
        "zero-pivot": (Matrix([[1, 2, 0], [2, 4, 1], [0, 3, 1]]),),
        "transposed-pass": (Matrix([[1, 2, 5], [0, 1, 1], [0, 0, 2]]),),
    }[name]


def test_verify_amazing_reports():
    for n, digest in REPORT_DIGESTS.items():
        text = json.dumps(report_to_doc(verify_amazing(n)), indent=2) + "\n"
        assert _sha256(text) == digest, f"report n={n}"


@pytest.mark.slow
@pytest.mark.parametrize("n", sorted(SLOW_REPORT_DIGESTS))
def test_verify_amazing_reports_at_larger_n(n):
    text = json.dumps(report_to_doc(verify_amazing(n)), indent=2) + "\n"
    assert _sha256(text) == SLOW_REPORT_DIGESTS[n]


def test_symbolic_certificates(tmp_path):
    for n, digest in CERTIFICATE_DIGESTS.items():
        matrix_path, cert_path = tmp_path / f"s{n}.txt", tmp_path / f"s{n}.cert.json"
        matrix_path.write_text(matrix_to_text(amazing_matrix_symbolic(n)), encoding="utf-8")
        assert main(["factor", str(matrix_path), "--ray", str(n), "--out", str(cert_path)]) == 0
        assert _sha256(cert_path.read_text(encoding="utf-8")) == digest, f"certificate n={n}"


@pytest.mark.parametrize("b, flip_row", list(TRACE_DIGESTS))
def test_large_check_traces(tmp_path, capsys, b, flip_row):
    A = amazing_matrix(40, b, scaled=True)
    if flip_row is not None:
        A = _negate_mirrored(A, flip_row, 19)
    out = _method_stdout(tmp_path, capsys, "cross", A, "--trace")
    assert _sha256(out) == TRACE_DIGESTS[b, flip_row]


@pytest.mark.parametrize("ray", list(SYMBOLIC_TRACE_DIGESTS))
def test_symbolic_check_traces(tmp_path, capsys, ray):
    A = amazing_matrix_symbolic(5)
    out = _method_stdout(tmp_path, capsys, "cross", A, "--trace", "--ray", str(ray))
    assert _sha256(out) == SYMBOLIC_TRACE_DIGESTS[ray]


@pytest.mark.parametrize("name", list(MINORS_DIGESTS))
def test_minors_check_outputs(tmp_path, capsys, name):
    matrix, *flags = _minors_case(name)
    out = _method_stdout(tmp_path, capsys, "minors", matrix, *flags)
    assert _sha256(out) == MINORS_DIGESTS[name]


@pytest.mark.parametrize("name", list(SINGULAR_CROSS_DIGESTS))
def test_singular_cross_outputs(tmp_path, capsys, name):
    matrix = {
        "ones": Matrix([[1] * 3] * 3),
        "rank-two": Matrix([[2, 0, 0, -2], [-2, 1, 1, -2], [-2, 1, 1, -2], [-2, 0, 0, 2]]),
    }[name]
    out = _method_stdout(tmp_path, capsys, "cross", matrix)
    assert _sha256(out) == SINGULAR_CROSS_DIGESTS[name]


@pytest.mark.parametrize("name", list(NEVILLE_DIGESTS))
def test_neville_check_outputs(tmp_path, capsys, name):
    matrix, *flags = _minors_case(name)
    out = _method_stdout(tmp_path, capsys, "neville", matrix, *flags)
    assert _sha256(out) == NEVILLE_DIGESTS[name]


def test_determinants():
    for n, digest in SYMBOLIC_DETERMINANT_DIGESTS.items():
        text = format_scalar(determinant(amazing_matrix_symbolic(n)))
        assert _sha256(text) == digest, f"symbolic n={n}"
    for n, digest in SCALED_DETERMINANT_DIGESTS.items():
        text = format_scalar(determinant(amazing_matrix(n, 10, scaled=True)))
        assert _sha256(text) == digest, f"scaled n={n}"


def _network_stdout(capsys, cert_path, fmt: str, *flags) -> str:
    capsys.readouterr()
    assert main(["network", str(cert_path), "--format", fmt, *flags]) == 0
    return capsys.readouterr().out


def test_verified_certificates_and_their_networks(tmp_path, capsys):
    for n, digest in VERIFIED_CERTIFICATE_DIGESTS.items():
        matrix_path, cert_path = tmp_path / f"c{n}.txt", tmp_path / f"c{n}.cert.json"
        matrix_path.write_text(matrix_to_text(amazing_matrix(n, 10, scaled=True)), encoding="utf-8")
        assert main(["factor", str(matrix_path), "--verify", "--out", str(cert_path)]) == 0
        assert _sha256(cert_path.read_text(encoding="utf-8")) == digest, f"certificate n={n}"
        for fmt in ("doc", "dot"):
            out = _network_stdout(capsys, cert_path, fmt)
            assert _sha256(out) == NETWORK_DIGESTS[n, fmt], f"network n={n} {fmt}"


def test_symbolic_verified_certificates(tmp_path):
    for n, digest in SYMBOLIC_VERIFIED_CERTIFICATE_DIGESTS.items():
        matrix_path, cert_path = tmp_path / f"s{n}.txt", tmp_path / f"s{n}.cert.json"
        matrix_path.write_text(matrix_to_text(amazing_matrix_symbolic(n)), encoding="utf-8")
        argv = ["factor", str(matrix_path), "--verify", "--ray", str(n), "--out", str(cert_path)]
        assert main(argv) == 0
        assert _sha256(cert_path.read_text(encoding="utf-8")) == digest, f"certificate n={n}"


def test_symbolic_networks(tmp_path, capsys):
    for n in sorted({n for n, _ in SYMBOLIC_NETWORK_DIGESTS}):
        matrix_path, cert_path = tmp_path / f"s{n}.txt", tmp_path / f"s{n}.cert.json"
        matrix_path.write_text(matrix_to_text(amazing_matrix_symbolic(n)), encoding="utf-8")
        assert main(["factor", str(matrix_path), "--ray", str(n), "--out", str(cert_path)]) == 0
        for fmt in ("doc", "dot"):
            out = _network_stdout(capsys, cert_path, fmt, "--ray", str(n))
            assert _sha256(out) == SYMBOLIC_NETWORK_DIGESTS[n, fmt], f"network n={n} {fmt}"


@pytest.mark.parametrize("n, method", list(SYMBOLIC_RAY2_DIGESTS))
def test_symbolic_checks_at_ray_two(tmp_path, capsys, n, method):
    flags = ("--trace",) if method == "cross" else ()
    out = _method_stdout(tmp_path, capsys, method, amazing_matrix_symbolic(n), "--ray", "2", *flags)
    assert _sha256(out) == SYMBOLIC_RAY2_DIGESTS[n, method]


def _residue_case(name: str) -> tuple:
    p, xi, b = 2**30 - 35, 1_000_003, Poly.variable()
    return {
        # determinant p(p + 2), refuted by the negative multiplier
        "prime": (Matrix([[p + 1, -1], [-1, p + 1]]),),
        # determinant (b - xi)^2, indefinite at ray 2
        "point": (Matrix([[b - xi, 0], [0, b - xi]]), "--ray", "2"),
        # row 2 is row 1 plus row 3
        "singular-symbolic": (Matrix([[b, 1, 2], [b + 2, 2, b + 2], [2, 1, b]]), "--ray", "2"),
    }[name]


@pytest.mark.parametrize("name, method", list(RESIDUE_CASE_DIGESTS))
def test_residue_fallback_outputs(tmp_path, capsys, name, method):
    matrix, *flags = _residue_case(name)
    if method == "cross":
        flags.append("--trace")
    out = _method_stdout(tmp_path, capsys, method, matrix, *flags)
    assert _sha256(out) == RESIDUE_CASE_DIGESTS[name, method]
