"""Cryptographic kernel for the delivery simulator.

Provides the five primitives every other module builds on: a 256-bit hash,
recoverable signatures with 20-byte address derivation, authenticated
symmetric encryption, threshold secret sharing over a prime field, and
layered public-key wrapping of shares ("onions").

Everything here is a pure function of its inputs plus an injected random
source, so two runs seeded identically produce byte-identical artifacts.
The curve is secp256k1 and the hash is SHA3-256; neither choice is relied
on for bit-compatibility with any particular blockchain, only for being a
real 256-bit cryptographic primitive with detectable tampering.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import hmac as _hmac
import os
import struct
from dataclasses import dataclass, field, fields
from itertools import repeat
from operator import itemgetter
from random import Random
from typing import Callable, Mapping, Sequence

DIGEST_SIZE = 32
ADDRESS_SIZE = 20
KEY_SIZE = 32

__all__ = [
    "CryptoError",
    "VerificationError",
    "AuthenticationError",
    "ParameterError",
    "InsufficientSharesError",
    "OnionStateError",
    "KeyPair",
    "Signature",
    "Share",
    "Onion",
    "hash256",
    "encode_parts",
    "decode_parts",
    "keypair_gen",
    "keypairs_gen",
    "keypair_from_scalar",
    "address_of_pubkey",
    "pubkey_of_privkey",
    "sign",
    "presign",
    "recover_signer",
    "signed_by",
    "new_secret_key",
    "sym_encrypt",
    "sym_decrypt",
    "ecies_encrypt",
    "ecies_decrypt",
    "ecies_openers",
    "ss_split",
    "ss_restore",
    "onion_wrap",
    "onions_wrap",
    "onion_peel",
    "scope",
    "scope_cache",
    "DEFAULT_SHARE_PRIME",
    "SMALL_TEST_PRIME",
]


class CryptoError(Exception):
    """Base class for failures raised by this module."""


class VerificationError(CryptoError):
    """Signature recovery failed or recovered an impossible point."""


class AuthenticationError(CryptoError):
    """Authenticated decryption failed (wrong key or tampered data)."""


class ParameterError(CryptoError, ValueError):
    """Caller violated a documented precondition."""


class InsufficientSharesError(ParameterError):
    """Fewer shares supplied than the threshold requires."""


class OnionStateError(CryptoError):
    """Peel attempted on a fully unwrapped onion."""


def hash256(data: bytes) -> bytes:
    """256-bit hash of a byte string (SHA3-256)."""
    return hashlib.sha3_256(data).digest()


def encode_parts(*parts: bytes | int) -> bytes:
    """Canonical length-prefixed encoding of a tuple, for hashing/signing.

    Integers become their shortest big-endian bytes (one for zero). The
    length prefix removes concatenation ambiguity between adjacent fields.
    """
    out = bytearray()
    for part in parts:
        if isinstance(part, int):
            if part < 0:
                raise ParameterError("cannot encode negative integers")
            raw = part.to_bytes(max(1, (part.bit_length() + 7) // 8), "big")
        elif isinstance(part, Signature):
            raw = part.to_bytes()
        else:
            raw = bytes(part)
        out += len(raw).to_bytes(4, "big")
        out += raw
    return bytes(out)


def decode_parts(data: bytes) -> list[bytes]:
    """Inverse of encode_parts (all fields come back as raw bytes)."""
    parts = []
    offset = 0
    while offset < len(data):
        if offset + 4 > len(data):
            raise ParameterError("truncated field length")
        size = int.from_bytes(data[offset : offset + 4], "big")
        offset += 4
        if offset + size > len(data):
            raise ParameterError("truncated field body")
        parts.append(data[offset : offset + size])
        offset += size
    return parts


# ---------------------------------------------------------------------------
# secp256k1 arithmetic in Jacobian coordinates. Fixed-base multiplication
# splits k through the GLV endomorphism (_split): k = k1 + lambda * k2 mod N
# with both halves below 2^127.35 in size, and lambda * P = (beta * x, y) for
# any point P = (x, y). Each half's size is read in signed 13-bit windows
# over a table of affine points: 9 windows hold d * 8192^w * G for
# d = 1..4096 and the top one d = 1..1301; a digit d > 4096 becomes
# d - 8192 with a carry into the next window, and a negative digit or half
# negates y. Each table point is added with a mixed Jacobian-affine addition
# (Hankerson-Menezes-Vanstone, Guide to ECC, 3.2-3.3), at most 9 per half,
# and k1 * G + lambda * (k2 * G) takes one more addition: at most 19 per
# k * G.
#
# The table is package data, secp256k1_base_table.bin, as libsecp256k1
# commits its generator tables as generated source: every process would
# otherwise compute the same 38,165 points. The first k * G streams the file
# a row at a time through one SHA-256, holds each point as one integer
# x * 2^256 + y and returns the rows once the whole file's digest matches
# (_base_table). tests/test_crypto.py rebuilds it from G and compares it
# byte for byte.
#
# Affine additions that share one inversion of their x differences
# (Montgomery's trick, Math. Comp. 1987; _affine_sums) multiply many keys
# at once (_base_mul_batch): each half's table points are summed as a
# balanced tree, one level at a time across the halves of up to
# _BATCH_CHUNK keys, and one more level joins each key's two halves, for 5
# inversions per chunk. The points travel as flat lists of coordinates, not
# as a tuple per point, since at six modular products an addition costs
# little more than building and unpacking its tuples. Within a half the
# equal-x case of affine addition never arises, and at the join it never
# arises either; _base_mul_tree gives the arguments.
#
# Variable-base multiplication (_jmul) is plain double-and-add over the
# affine point, without the GLV split: only the recovery of a foreign
# signature and an ECDH with a point of unknown scalar reach it, too
# rarely for a table of the point's multiples, or the split, to pay.
#
# An ECDH d * E with E = e * G drawn in this process is (d * e mod N) * G,
# one fixed-base multiplication instead of a double-and-add one (the
# argument is at _shared_x). ecies_encrypt records each layer it wraps for
# an in-process point q * G with q and the layer's ECDH x, so ecies_openers
# names exactly the keys that open the layer and they open it without a
# multiplication (the argument is at _layer_key). Each k * G this module
# computes for a key is kept under k. onions_wrap learns every layer's
# ephemeral scalar before it wraps, so it computes all of a service's
# ephemeral keys and ECDH products in one _base_mul_batch and records them
# for the unchanged per-layer path to read (the argument is at onions_wrap).
# presign computes the nonces' k * G of many signatures in one
# _base_mul_batch and their inverses with one pow, for sign to return (the
# argument is above _recover_address). Every such record is a field of one
# _Memo, which lives for one scope().
# ---------------------------------------------------------------------------

_P = 0xFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFEFFFFFC2F
_N = 0xFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFEBAAEDCE6AF48A03BBFD25E8CD0364141
_GX = 0x79BE667EF9DCBBAC55A06295CE870B07029BFCDB2DCE28D959F2815B16F81798
_GY = 0x483ADA7726A3C4655DA4FBFC0E1108A8FD17B448A68554199C47D08FFB10D4B8

_INF = (0, 0, 0)


def _jdouble(p):
    x1, y1, z1 = p
    if not y1:
        return _INF
    yy = y1 * y1 % _P
    s = 4 * x1 * yy % _P
    m = 3 * x1 * x1 % _P
    x3 = (m * m - 2 * s) % _P
    y3 = (m * (s - x3) - 8 * yy * yy) % _P
    z3 = 2 * y1 * z1 % _P
    return (x3, y3, z3)


def _jadd(p, q):
    if not p[2]:
        return q
    if not q[2]:
        return p
    x1, y1, z1 = p
    x2, y2, z2 = q
    z1z1 = z1 * z1 % _P
    z2z2 = z2 * z2 % _P
    u1 = x1 * z2z2 % _P
    u2 = x2 * z1z1 % _P
    s1 = y1 * z2 * z2z2 % _P
    s2 = y2 * z1 * z1z1 % _P
    if u1 == u2:
        if s1 != s2:
            return _INF
        return _jdouble(p)
    h = (u2 - u1) % _P
    i = 4 * h * h % _P
    j = h * i % _P
    r = 2 * (s2 - s1) % _P
    v = u1 * i % _P
    x3 = (r * r - j - 2 * v) % _P
    y3 = (r * (v - x3) - 2 * s1 * j) % _P
    z3 = 2 * h * z1 * z2 % _P
    return (x3, y3, z3)


def _jadd_affine(p, x2, y2):
    """p + (x2, y2) for Jacobian p and an affine point: _jadd with z2 = 1."""
    x1, y1, z1 = p
    if not z1:
        return (x2, y2, 1)
    z1z1 = z1 * z1 % _P
    u2 = x2 * z1z1 % _P
    s2 = y2 * z1 * z1z1 % _P
    if x1 == u2:
        if y1 != s2:
            return _INF
        return _jdouble(p)
    h = (u2 - x1) % _P
    i = 4 * h * h % _P
    j = h * i % _P
    r = 2 * (s2 - y1) % _P
    v = x1 * i % _P
    x3 = (r * r - j - 2 * v) % _P
    y3 = (r * (v - x3) - 2 * y1 * j) % _P
    z3 = 2 * h * z1 % _P
    return (x3, y3, z3)


def _jmul(k, p):
    """k * p for any integer k and p on secp256k1, by double-and-add.

    k reduces mod N, the order of every point on the curve. p becomes affine
    once, and the bits of k are read from the top (Hankerson-Menezes-Vanstone,
    Guide to ECC, alg. 3.27): each costs one doubling, each set bit one
    mixed addition.
    """
    k %= _N
    if not k or not p[2]:
        return _INF
    x, y = _to_affine(p)
    acc = _INF
    for bit in bin(k)[2:]:
        acc = _jdouble(acc)
        if bit == "1":
            acc = _jadd_affine(acc, x, y)
    return acc


def _to_affine(p):
    x, y, z = p
    if not z:
        return None
    zi = pow(z, -1, _P)
    zi2 = zi * zi % _P
    return (x * zi2 % _P, y * zi2 * zi % _P)


def _affine_sums(x1s, y1s, x2s, y2s):
    """P + Q for affine points P = (x1s[j], y1s[j]) and Q = (x2s[j], y2s[j]) with distinct x, sharing one inversion.

    The sums come back as two lists, of x and of y. Montgomery's trick: the
    product of all x differences is inverted once and each difference's
    inverse is peeled off it, last pair first. An equal x makes the product
    zero, and pow(0, -1, P) raises rather than give a wrong point.
    """
    p = _P
    prefix = []
    prod = 1
    for x1, x2 in zip(x1s, x2s):
        prefix.append(prod)
        prod = prod * (x2 - x1) % p
    inv = pow(prod, -1, p)
    xs = [0] * len(prefix)
    ys = [0] * len(prefix)
    for j in range(len(prefix) - 1, -1, -1):
        x1 = x1s[j]
        y1 = y1s[j]
        x2 = x2s[j]
        lam = (y2s[j] - y1) * inv * prefix[j] % p
        inv = inv * (x2 - x1) % p
        x3 = (lam * lam - x1 - x2) % p
        xs[j] = x3
        ys[j] = (lam * (x1 - x3) - y1) % p
    return xs, ys


# The GLV endomorphism of secp256k1 (Gallant, Lambert and Vanstone, CRYPTO
# 2001): lambda * (x, y) = (beta * x, y) for every point, with
# lambda = 0x5363AD4CC05C30E0A5261C028812645A122E22EA20816678DF02967C1B23BD72,
# lambda^3 = 1 mod N and beta^3 = 1 mod P. (_A1, _B1) and (_A2, _B2) are a
# reduced basis of the lattice of (a, b) with a + b * lambda = 0 mod N, as
# in libsecp256k1.
_BETA = 0x7AE96A2B657C07106E64479EAC3434E99CF0497512F58995C1396C28719501EE
_A1 = 0x3086D221A7D46BCDE86C90E49284EB15
_B1 = -0xE4437ED6010E88286F547FA90ABFE4C3
_A2 = 0x114CA50F7A8E2F3F657C1108D9D44CFD8
_B2 = _A1


def _split(k):
    """(k1, k2) with k1 + lambda * k2 = k mod N, |k1| <= (|a1| + |a2|) / 2 and |k2| <= (|b1| + |b2|) / 2.

    Babai rounding, as libsecp256k1's secp256k1_scalar_split_lambda, with
    exact division in place of its 384-bit shifts. a1 * b2 - a2 * b1 = N,
    so (k, 0) = t1 * (a1, b1) + t2 * (a2, b2) for t1 = b2 * k / N and
    t2 = -b1 * k / N. Subtracting c1 * (a1, b1) + c2 * (a2, b2), c1 and c2
    the integers nearest t1 and t2, keeps k mod N, since each basis vector
    has a + b * lambda = 0 mod N, and leaves (t1 - c1) * (a1, b1) +
    (t2 - c2) * (a2, b2) with both factors at most 1/2 in size. The bounds
    are below 2^127.35 and 2^127.12.
    """
    c1 = (_B2 * k + _N // 2) // _N
    c2 = (-_B1 * k + _N // 2) // _N
    return k - c1 * _A1 - c2 * _A2, -c1 * _B1 - c2 * _B2


# Signed windows of _WINDOW bits: a digit above _HALF becomes digit - 2^_WINDOW
# and carries one into the next window.
_WINDOW = 13
_HALF = 1 << _WINDOW - 1
_MASK = (1 << _WINDOW) - 1
# A table slot x * 2^256 + y splits into x = slot >> 256 and y = slot & _LOW.
_LOW = (1 << 256) - 1


_BASE_TABLE_FILE = os.path.join(os.path.dirname(__file__), "secp256k1_base_table.bin")
_BASE_TABLE_SHA256 = "10c786bdfb5ff5fb7c37b6f8deb122c7ed1d1b8e78828726571908871b31224f"


@functools.cache
def _base_table():
    """Row w holds the affine d * B, B = 2^(_WINDOW * w) * G, at index d - 1, as x * 2^256 + y.

    Rows 0..8 hold d = 1.._HALF and the top row, row 9, d = 1..1301: a half
    of _split is below 1301.27 * 2^117 in size, and its signed digits in
    windows 0..8 round the rest to at most 1,301 at weight 2^117, with no
    carry beyond it. The points are read from _BASE_TABLE_FILE, which holds
    them row by row as x || y, each a 32-byte big-endian integer, so each
    64-byte slot read as one integer is x * 2^256 + y. One integer per
    point keeps 3.8 MiB under tracemalloc for the 38,165 points, half what
    (x, y) tuples would.

    The file is read one row (256 KiB) at a time: each row feeds one
    running SHA-256 and is decoded straight into its list, so no copy of
    the whole file is held beside the points. The digest of the whole file
    is checked before anything is returned, so a damaged, short or long
    file raises CryptoError and nothing is cached: a wrong point would give
    wrong keys without any error. Reading, checking and decoding take about
    10 ms, with a tracemalloc peak 0.4 MiB above what the table keeps.

    Read on the first fixed-base multiplication, not at import, so a
    process that never multiplies by G never reads the file.
    """
    digest = hashlib.sha256()
    rows = []
    with open(_BASE_TABLE_FILE, "rb") as f:
        while row := f.read(64 * _HALF):
            digest.update(row)
            # struct rejects a row that ends inside a slot; such a file fails the check below
            if not len(row) % 64:
                slots = map(itemgetter(0), struct.iter_unpack("64s", row))
                rows.append(list(map(int.from_bytes, slots, repeat("big"))))
    if digest.hexdigest() != _BASE_TABLE_SHA256:
        raise CryptoError(f"{_BASE_TABLE_FILE} is not the secp256k1 base table: its SHA-256 differs")
    return rows


def _jmul_base(k):
    """k * G for 0 <= k < N, as k1 * G + phi(k2 * G) for (k1, k2) = _split(k) and phi(x, y) = (beta * x, y).

    Each half sums the table points of its size's nonzero signed digits in
    its own Jacobian accumulator, with at most 9 mixed additions; a negative
    half negates y, and phi(X, Y, Z) = (beta * X, Y, Z) makes the second
    one lambda * k2 * G. One _jadd joins them, equal x included. With its
    affine conversion it takes about 146 µs, against 164 for 11-bit windows
    over the whole scalar (best of 7 over 200 random keys, on a 2-core
    x86-64 host).
    """
    table = _base_table()
    acc = []
    for h in _split(k):
        j = _INF
        m = abs(h)
        for row in table:
            if not m:
                break
            d = m & _MASK
            m >>= _WINDOW
            if d > _HALF:
                m += 1
                v = row[_MASK - d]
                j = _jadd_affine(j, v >> 256, _P - (v & _LOW))
            elif d:
                v = row[d - 1]
                j = _jadd_affine(j, v >> 256, v & _LOW)
        acc.append(j if h >= 0 else (j[0], _P - j[1], j[2]))
    x2, y2, z2 = acc[1]
    return _jadd(acc[0], (_BETA * x2 % _P, y2, z2))


# The most keys one _base_mul_tree call multiplies. Its 5 inversions are
# already a small part of 256 keys' additions, so larger chunks would gain
# little time and cost memory in proportion.
_BATCH_CHUNK = 256


def _base_mul_batch(ks):
    """Affine k * G for every k in the list ks, 1 <= k < N, by _base_mul_tree on _BATCH_CHUNK keys at a time."""
    out = []
    for start in range(0, len(ks), _BATCH_CHUNK):
        out += _base_mul_tree(ks[start : start + _BATCH_CHUNK])
    return out


def _base_mul_tree(ks):
    """Affine k * G for every k in the list ks, 1 <= k < N, as k1 * G + phi(k2 * G), each half summed by a balanced tree.

    _split gives each key two halves, and a half h's leaves are the table
    points of |h|'s nonzero signed digits in _base_table()'s 10 windows.
    Each level is one list per position, of x and of y, over the 2 * len(ks)
    halves, and adds each half's position j to its position j + h, h being
    half the positions, with one _affine_sums call for the whole level,
    which shares one inversion across the level's additions; an odd last
    position waits for a later level. 10 leaves take 4 levels. A half with a
    zero digit (about 0.1% of halves) has fewer leaves, and a zero half,
    such as k2 for k = 1, has none: it moves behind the others, most leaves
    first, with its leaves in its first positions, so each position covers
    a prefix of the halves and a level only slices and joins lists. A
    negative half negates its root's y. One more call joins each key's
    roots A = k1 * G and B = k2 * G as A + phi(B), phi(x, y) = (beta * x, y),
    so a key costs at most 19 additions and a call 5 inversions; a key with
    a zero half takes the other half's root. The first level holds every
    half's points at once, so _base_mul_batch calls it on _BATCH_CHUNK keys
    at a time. Per key it takes about 102 µs at 5 keys, 83 at 17, 76 at 65,
    77 at 256 and 80 at 1,205, against 123, 98, 90, 93 and 90 for 11-bit
    windows over the whole scalar (best of 7, alternating runs, on the host
    of _jmul_base's timing).

    Within a half no two addends share x, so no branch handles equal x. A
    node sums the signed digits d_w * 8192^w of a set of windows, |d_w| <=
    4096, so it is below 2^131, far below N, in size. Two sibling nodes L
    and R cover disjoint sets of windows, so L - R and L + R are such sums
    too, with some digits negated, and the term of their highest window,
    at least 8192^w in size, exceeds all lower ones together, at most
    4096 * (8192^w - 1) / 8191: the sum is nonzero, so L is not +-R mod N.

    The join meets equal x only if k1 = +-lambda * k2 mod N. With the minus
    sign k = 0 mod N. With the plus sign (k1, -k2) is a nonzero vector of
    _split's lattice, whose reduced basis makes (a1, b1), of length
    2^127.86, its shortest vector, while _split's bounds keep (k1, k2)
    below 2^127.74. Were it ever to happen, _affine_sums would raise, and
    every key of the call would take the single path, _jmul_base, whose
    _jadd handles equal x.
    """
    width, half, mask, low, p = _WINDOW, _HALF, _MASK, _LOW, _P
    splits = [_split(k) for k in ks]
    todo = [abs(k1) for k1, _ in splits] + [abs(k2) for _, k2 in splits]
    # half i's table point in window w is (xs[w][i], ys[w][i]), None for a zero digit
    xs = []
    ys = []
    sparse = []
    for row in _base_table():
        cx = []
        cy = []
        for i, k in enumerate(todo):
            d = k & mask
            if d > half:
                todo[i] = (k >> width) + 1
                v = row[mask - d]
                cx.append(v >> 256)
                cy.append(p - (v & low))
            else:
                todo[i] = k >> width
                if d:
                    v = row[d - 1]
                    cx.append(v >> 256)
                    cy.append(v & low)
                else:
                    sparse.append(i)
                    cx.append(None)
                    cy.append(None)
        xs.append(cx)
        ys.append(cy)
    order = range(len(todo))
    if sparse:
        # the halves with a zero digit move behind the others, most leaves first
        moved = sorted(set(sparse), key=lambda i: sum(cx[i] is None for cx in xs))
        leaves = [[(cx[i], cy[i]) for cx, cy in zip(xs, ys) if cx[i] is not None] for i in moved]
        for i in sorted(moved, reverse=True):
            for col in xs + ys:
                del col[i]
        for j, (cx, cy) in enumerate(zip(xs, ys)):
            for points in leaves:
                if j < len(points):
                    cx.append(points[j][0])
                    cy.append(points[j][1])
        gone = set(moved)
        order = [i for i in order if i not in gone] + moved
    while len(xs) > 1:
        h = len(xs) // 2
        x1s = []
        y1s = []
        x2s = []
        y2s = []
        for j in range(h):
            cut = len(xs[j + h])
            x1s += xs[j][:cut]
            y1s += ys[j][:cut]
            x2s += xs[j + h]
            y2s += ys[j + h]
        sx, sy = _affine_sums(x1s, y1s, x2s, y2s)
        start = 0
        for j in range(h):
            end = start + len(xs[j + h])
            xs[j][: end - start] = sx[start:end]
            ys[j][: end - start] = sy[start:end]
            start = end
        del xs[h : 2 * h], ys[h : 2 * h]
    ax = [None] * len(todo)
    ay = [None] * len(todo)
    for i, x, y in zip(order, xs[0], ys[0]):
        ax[i] = x
        ay[i] = y
    # key i's roots are A at i and B at n + i; A becomes k1 * G and B phi(k2 * G)
    n = len(ks)
    joined = []
    for i, (k1, k2) in enumerate(splits):
        if k1 < 0:
            ay[i] = p - ay[i]
        if k2:
            j = n + i
            ax[j] = _BETA * ax[j] % p
            if k2 < 0:
                ay[j] = p - ay[j]
            if k1:
                joined.append(i)
            else:
                ax[i] = ax[j]
                ay[i] = ay[j]
    try:
        sx, sy = _affine_sums(
            [ax[i] for i in joined], [ay[i] for i in joined], [ax[n + i] for i in joined], [ay[n + i] for i in joined]
        )
    except ValueError:
        return [_to_affine(_jmul_base(k)) for k in ks]
    for i, x, y in zip(joined, sx, sy):
        ax[i] = x
        ay[i] = y
    return list(zip(ax[:n], ay[:n]))


def _point_on_curve(x, y):
    return (y * y - (x * x * x + 7)) % _P == 0


# ---------------------------------------------------------------------------
# Key pairs, addresses, recoverable signatures
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class KeyPair:
    """A scalar private key with its derived public point and address."""

    privkey: bytes  # 32-byte big-endian scalar in [1, n-1]
    pubkey: bytes  # 64-byte uncompressed point (x || y)
    address: bytes  # low 20 bytes of hash256(pubkey)

    def __repr__(self) -> str:  # never echo the private scalar
        return f"KeyPair(address={self.address.hex()})"


def address_of_pubkey(pubkey: bytes) -> bytes:
    return hash256(pubkey)[-ADDRESS_SIZE:]


def _scalar_of(privkey: bytes) -> int:
    k = int.from_bytes(privkey, "big")
    if not 1 <= k < _N:
        raise ParameterError("private scalar out of range")
    return k


def pubkey_of_privkey(privkey: bytes) -> bytes:
    return _base_point(_scalar_of(privkey))


def keypair_from_scalar(k: int) -> KeyPair:
    if not 1 <= k < _N:
        raise ParameterError("private scalar out of range")
    return _keypair(k, _base_point(k))


def _point_bytes(x: int, y: int) -> bytes:
    """The 64-byte encoding x || y of the affine point (x, y)."""
    return x.to_bytes(32, "big") + y.to_bytes(32, "big")


def _base_point(k: int) -> bytes:
    """k * G for 1 <= k < N as 64 bytes, read from the memo when this scope computed it."""
    point = _memo.points.get(k)
    return _point_bytes(*_to_affine(_jmul_base(k))) if point is None else point


def _draw_scalar(rng: Random) -> int:
    """The next private scalar in [1, N) from rng: every key pair's one draw."""
    return 1 + rng.randrange(_N - 1)


def keypair_gen(rng: Random) -> KeyPair:
    """Draw a fresh key pair from the injected random source."""
    return keypair_from_scalar(_draw_scalar(rng))


def keypairs_gen(rng: Random, count: int) -> list[KeyPair]:
    """`count` key pairs, equal to `count` calls of keypair_gen on the same rng.

    The scalars are drawn first, in order; the public keys then come from one
    batched multiplication. Per key it costs more than keypair_gen at one
    key, as much at 2 and less from 3 on: 230 against 160 µs at 1 key, 160
    against 159 at 2, 132 against 160 at 3, 110 against 160 at 6, 89
    against 156 at 22 and 83 against 156 at 60 (best of alternating runs,
    with the table loaded, on a 2-core x86-64 host). onions_wrap's batch has
    the same crossover, at about 2 scalars.
    """
    ks = [_draw_scalar(rng) for _ in range(count)]
    return [_keypair(k, _point_bytes(x, y)) for k, (x, y) in zip(ks, _base_mul_batch(ks))]


def _keypair(k: int, pub: bytes) -> KeyPair:
    """The key pair of k, whose point pub = k * G the caller just computed.
    The memo keeps the key pair's own pubkey bytes, not a copy."""
    _memo.scalars[pub] = k
    _memo.points[k] = pub
    return KeyPair(k.to_bytes(32, "big"), pub, address_of_pubkey(pub))


@dataclass
class _Memo:
    """What this module remembers of one run: each field a dict from what was computed to its result.

    Every party of a run draws its keys, signs and wraps in this process, so
    each field answers by lookup what another party, or a repeat, would
    compute again. A memo lives for one scope(): a scenario run or a bribery
    run enters one, records everything it draws, signs and wraps, and frees
    it all when it ends. Outside any scope the memo is _UNSCOPED, whose
    fields are one dict that records nothing, so a key, signature or layer
    made outside the current scope, like a foreign one, takes the slower
    path. Each lookup is exact, not a guess; the argument is beside the
    function that relies on it.
    """

    # the 64-byte pubkey of each point E = e * G of a key this module drew,
    # the key pair's own bytes, to e, for _shared_x
    scalars: dict[bytes, int] = field(default_factory=dict)
    # each such e to those bytes, and onions_wrap's batched points, for
    # _base_point: sign() names its signer and pubkey_of_privkey() answers a
    # revealed key through it
    points: dict[int, bytes] = field(default_factory=dict)
    # (digest, signature) to the signer's address, for recover_signer
    signers: dict[tuple[bytes, Signature], bytes] = field(default_factory=dict)
    # (privkey, digest) bytes to the signature sign or presign made, for sign
    signatures: dict[tuple[bytes, bytes], Signature] = field(default_factory=dict)
    # a wrapped layer's _layer_key to its recipient's scalar q and its ECDH x
    layers: dict[bytes, tuple[int, int]] = field(default_factory=dict)
    # scope_cache's results: one dict per cached function, from its arguments to its result
    results: dict[Callable, dict] = field(default_factory=dict)


class _RecordsNothing(dict):
    """Every field of _UNSCOPED: every lookup misses and every write is dropped.

    All six fields are this one dict, so each method that would store an
    entry drops it; the others only read or remove, and it stays empty.
    """

    def __setitem__(self, key, value):
        pass

    def update(self, *args, **kwargs):
        pass

    def setdefault(self, key, default=None):
        return default

    def __ior__(self, other):
        return self


_memo = _UNSCOPED = _Memo(*[_RecordsNothing()] * len(fields(_Memo)))


@contextlib.contextmanager
def scope():
    """Install a fresh _Memo for the lifetime of a with block, and yield it.

    On exit the enclosing block's memo is back in place (outside any block,
    _UNSCOPED), so what the block recorded is freed with it, whether the
    block raised or not. Every function of this module returns the same
    inside a scope or out; only its cost differs.
    """
    global _memo
    outer = _memo
    _memo = memo = _Memo()
    try:
        yield memo
    finally:
        _memo = outer


def scope_cache(fn):
    """fn, memoized on its positional arguments for the current scope().

    For a pure function of hashable arguments whose result no caller
    mutates, such as the decoding of bytes that every courier of a run
    receives alike: within one scope it runs once per distinct arguments.
    Outside any scope _UNSCOPED keeps no result, so it runs on every call.
    An exception is raised each time, never recorded.
    """

    @functools.wraps(fn)
    def cached(*args):
        results = _memo.results.get(fn)
        if results is None:
            results = _memo.results[fn] = {}
        try:
            return results[args]
        except KeyError:
            result = results[args] = fn(*args)
            return result

    return cached


@dataclass(frozen=True)
class Signature:
    """Recoverable signature (v, r, s) over a 32-byte digest."""

    v: int
    r: int
    s: int

    def to_bytes(self) -> bytes:
        return bytes([self.v]) + self.r.to_bytes(32, "big") + self.s.to_bytes(32, "big")

    @classmethod
    def from_bytes(cls, raw: bytes) -> "Signature":
        if len(raw) != 65:
            raise VerificationError("signature must be 65 bytes")
        return cls(raw[0], int.from_bytes(raw[1:33], "big"), int.from_bytes(raw[33:], "big"))


def _check_digest(digest: bytes) -> int:
    if len(digest) != DIGEST_SIZE:
        raise ParameterError("digest must be 32 bytes")
    return int.from_bytes(digest, "big")


def sign(privkey: bytes, digest: bytes) -> Signature:
    """Sign a 32-byte digest; the signer's address is recoverable from (v,r,s).

    The nonce is derived from (privkey, digest), so signing is deterministic.
    """
    z = _check_digest(digest)
    d = _scalar_of(privkey)
    key = bytes(privkey), bytes(digest)
    sig = _memo.signatures.get(key)
    counter = 0
    while sig is None:
        k = _nonce(privkey, digest, counter)
        counter += 1
        if k:
            sig = _signature(d, z, pow(k, -1, _N), *_to_affine(_jmul_base(k)))
    _memo.signatures[key] = sig
    _memo.signers[key[1], sig] = address_of_pubkey(pubkey_of_privkey(privkey))
    return sig


def presign(pairs: Sequence[tuple[bytes, bytes]]) -> None:
    """Record sign(privkey, digest) for each (privkey, digest) pair in the current scope, for sign() to return.

    Every first nonce's k * G comes from one batch and every k^-1 from one
    inversion, so a pair costs a batched key where sign() alone costs a
    single k * G and a pow. Each signature is sign()'s, from its first
    nonce. A pair that sign() would reject, or whose first nonce it would
    redraw, is left for sign() to handle. Outside any scope, under
    _UNSCOPED, it computes and records nothing.
    """
    if _memo is _UNSCOPED:
        return
    todo = {}
    for privkey, digest in pairs:
        key = bytes(privkey), bytes(digest)
        d = int.from_bytes(privkey, "big")
        if len(digest) == DIGEST_SIZE and 1 <= d < _N and key not in _memo.signatures:
            k = _nonce(privkey, digest, 0)
            if k:
                todo[key] = d, int.from_bytes(digest, "big"), k
    ks = [k for _, _, k in todo.values()]
    for (key, (d, z, _)), k_inv, (rx, ry) in zip(todo.items(), _inverses(ks, _N), _base_mul_batch(ks)):
        sig = _signature(d, z, k_inv, rx, ry)
        if sig is not None:
            _memo.signatures[key] = sig


def _nonce(privkey: bytes, digest: bytes, counter: int) -> int:
    """sign()'s nonce for (privkey, digest) at the given attempt, in [0, N)."""
    seed = _hmac.new(privkey, digest + counter.to_bytes(4, "big"), hashlib.sha256).digest()
    return int.from_bytes(seed, "big") % _N


def _signature(d: int, z: int, k_inv: int, rx: int, ry: int) -> Signature | None:
    """The signature of digest z by scalar d with the nonce k whose k^-1 mod N is k_inv and k * G = (rx, ry); None if k must be redrawn."""
    # keep r below the group order so the recovery id is a single parity bit
    if not 0 < rx < _N:
        return None
    s = k_inv * (z + rx * d) % _N
    return Signature(ry & 1, rx, s) if s else None


def _inverses(values: Sequence[int], m: int) -> list[int]:
    """[pow(v, -1, m) for v in values] from one pow (Montgomery's trick).

    The product of all values is inverted once and each value's inverse is
    peeled off it, last value first. A value with no inverse mod m makes the
    product one too, and pow raises ValueError as it would for that value.
    """
    prefix = []
    prod = 1
    for v in values:
        prefix.append(prod)
        prod = prod * v % m
    inv = pow(prod, -1, m)
    out = [0] * len(prefix)
    for j in range(len(prefix) - 1, -1, -1):
        out[j] = inv * prefix[j] % m
        inv = inv * values[j] % m
    return out


def recover_signer(digest: bytes, sig: Signature) -> bytes:
    """Recover the 20-byte address that produced `sig` over `digest`."""
    _check_digest(digest)
    if not isinstance(sig, Signature):
        raise VerificationError("not a signature value")
    key = (bytes(digest), sig)
    address = _memo.signers.get(key)
    if address is None:
        address = _recover_address(*key)
        _memo.signers[key] = address
    return address


def signed_by(digest: bytes, sig_bytes: bytes, address: bytes) -> bool:
    """Whether the wire signature `sig_bytes` over `digest` recovers to
    `address`; a malformed signature is no match."""
    try:
        return recover_signer(digest, Signature.from_bytes(sig_bytes)) == address
    except CryptoError:
        return False


# sign() records each signature's signer and recover_signer() answers it by
# lookup; only a foreign, tampered or malformed signature reaches the curve
# arithmetic of _recover_address. The lookup is exact, not a guess: sign
# returns (v, r, s) only when R = k*G has x = r < N and y parity v, so the
# recovery Q = r^-1 * (s*R - z*G) (SEC 1 v2.0, 4.1.6) equals
# r^-1 * ((z + r*d)*G - z*G) = d*G for every digest z. The memo also serves
# every courier and contract that re-recovers the same few signatures of a
# service. A failed recovery raises and so is never stored.
#
# The memo's signatures hold each signature sign() made or presign()
# computed, under its (privkey, digest) bytes. This is exact: the signature
# is a pure function of those bytes, and presign keeps only one whose first
# nonce sign() would accept. A recruitment presigns what it can predict:
# the sender's supplementary authorisation and each candidate's acceptance
# at the index it will be invited with, in one batch; then the n
# countersignatures, in another. sign() returns a recorded signature
# without a multiplication, so a signature re-made after a lost message
# costs nothing either, and it records the signer whether it computed the
# signature or not.


def _recover_address(digest: bytes, sig: Signature) -> bytes:
    if sig.v not in (0, 1) or not 0 < sig.r < _N or not 0 < sig.s < _N:
        raise VerificationError("malformed signature")
    x = sig.r
    y_sq = (x * x * x + 7) % _P
    y = pow(y_sq, (_P + 1) // 4, _P)
    if y * y % _P != y_sq:
        raise VerificationError("signature r does not name a curve point")
    if y & 1 != sig.v:
        y = _P - y
    r_inv = pow(sig.r, -1, _N)
    z = int.from_bytes(digest, "big")
    # Q = r^-1 * (s*R - z*G) = (-z*r^-1)*G + (s*r^-1)*R  (SEC 1 v2.0, 4.1.6)
    q = _jadd(_jmul_base(-z * r_inv % _N), _jmul(sig.s * r_inv % _N, (x, y, 1)))
    aff = _to_affine(q)
    if aff is None:
        raise VerificationError("recovered point at infinity")
    qx, qy = aff
    if not _point_on_curve(qx, qy):
        raise VerificationError("recovered point off curve")
    return address_of_pubkey(_point_bytes(qx, qy))


# ---------------------------------------------------------------------------
# Symmetric and asymmetric authenticated encryption
# ---------------------------------------------------------------------------

_NONCE_SIZE = 12


def new_secret_key(rng: Random) -> bytes:
    """Uniform 256-bit secret from the injected random source."""
    return rng.getrandbits(256).to_bytes(KEY_SIZE, "big")


def _draw_nonce(rng: Random) -> bytes:
    """The next AES-GCM nonce from rng: every encryption's one nonce draw."""
    return rng.getrandbits(8 * _NONCE_SIZE).to_bytes(_NONCE_SIZE, "big")


_TAG_SIZE = 16
_EVP_CTRL_GCM_GET_TAG = 0x10
_EVP_CTRL_GCM_SET_TAG = 0x11


@functools.cache
def _gcm():
    """AES-256-GCM's seal and open, bound with ctypes on the first encryption
    or decryption to OpenSSL's EVP interface in the libcrypto that hashlib's
    _hashlib extension has already mapped, so no second copy of OpenSSL is
    loaded. One encryption and one decryption context are each initialised
    once with the cipher, so a call sets only the key and the IV. They are
    process state, like _memo: the simulator is single-threaded. The
    functions keep ctypes' default int arguments and result, which are
    cheaper per call than declared argtypes, so every pointer is passed as
    a c_void_p, bytes or ctypes object, never as a bare int."""
    import ctypes

    ptr = ctypes.c_void_p
    try:
        import _hashlib

        lib = ctypes.CDLL(_hashlib.__file__)
        new_ctx, aes_256_gcm, ctrl = lib.EVP_CIPHER_CTX_new, lib.EVP_aes_256_gcm, lib.EVP_CIPHER_CTX_ctrl
        enc_init, enc_update, enc_final = lib.EVP_EncryptInit_ex, lib.EVP_EncryptUpdate, lib.EVP_EncryptFinal_ex
        dec_init, dec_update, dec_final = lib.EVP_DecryptInit_ex, lib.EVP_DecryptUpdate, lib.EVP_DecryptFinal_ex
    except (ImportError, OSError, AttributeError) as exc:
        raise CryptoError(f"AES-GCM needs OpenSSL's EVP interface through hashlib's _hashlib: {exc}") from None

    def failed(name: str):
        raise CryptoError(f"OpenSSL {name} failed")

    new_ctx.restype = aes_256_gcm.restype = ptr
    cipher, enc, dec = aes_256_gcm(), new_ctx(), new_ctx()
    if not (cipher and enc and dec):
        failed("EVP_aes_256_gcm or EVP_CIPHER_CTX_new")
    cipher, enc, dec = ptr(cipher), ptr(enc), ptr(dec)
    if enc_init(enc, cipher, None, None, None) != 1:
        failed("EVP_EncryptInit_ex")
    if dec_init(dec, cipher, None, None, None) != 1:
        failed("EVP_DecryptInit_ex")
    buffer, byref = ctypes.create_string_buffer, ctypes.byref
    outl = byref(ctypes.c_int())

    def seal(key: bytes, nonce: bytes, plaintext: bytes) -> bytes:
        n = len(plaintext)
        out = buffer(n + _TAG_SIZE)
        if enc_init(enc, None, None, key, nonce) != 1:
            failed("EVP_EncryptInit_ex")
        if enc_update(enc, out, outl, plaintext, n) != 1:
            failed("EVP_EncryptUpdate")
        if enc_final(enc, None, outl) != 1:
            failed("EVP_EncryptFinal_ex")
        if ctrl(enc, _EVP_CTRL_GCM_GET_TAG, _TAG_SIZE, byref(out, n)) != 1:
            failed("EVP_CIPHER_CTX_ctrl")
        return nonce + out.raw

    def open_(key: bytes, sealed: bytes, failure: str) -> bytes:
        n = len(sealed) - _NONCE_SIZE - _TAG_SIZE
        out = buffer(n)
        if dec_init(dec, None, None, key, sealed[:_NONCE_SIZE]) != 1:
            failed("EVP_DecryptInit_ex")
        if dec_update(dec, out, outl, sealed[_NONCE_SIZE:-_TAG_SIZE], n) != 1:
            failed("EVP_DecryptUpdate")
        if ctrl(dec, _EVP_CTRL_GCM_SET_TAG, _TAG_SIZE, sealed[-_TAG_SIZE:]) != 1:
            failed("EVP_CIPHER_CTX_ctrl")
        if dec_final(dec, None, outl) != 1:
            raise AuthenticationError(failure)
        return out.raw

    return seal, open_


def _seal(key: bytes, nonce: bytes, plaintext: bytes) -> bytes:
    """nonce || the AES-GCM ciphertext+tag of plaintext under key."""
    return _gcm()[0](key, nonce, plaintext)


def _open(key: bytes, sealed: bytes, failure: str) -> bytes:
    """The plaintext of a _seal output; a failed tag raises AuthenticationError(failure)."""
    return _gcm()[1](key, sealed, failure)


def sym_encrypt(key: bytes, plaintext: bytes, rng: Random) -> bytes:
    """AES-256-GCM; the returned blob is nonce || ciphertext+tag."""
    if len(key) != KEY_SIZE:
        raise ParameterError("symmetric key must be 32 bytes")
    return _seal(key, _draw_nonce(rng), plaintext)


def sym_decrypt(key: bytes, blob: bytes) -> bytes:
    if len(key) != KEY_SIZE:
        raise ParameterError("symmetric key must be 32 bytes")
    if len(blob) < _NONCE_SIZE + 16:
        raise AuthenticationError("ciphertext too short")
    return _open(key, blob, "wrong key or tampered ciphertext")


# Every party of a run draws its keys in this process, and ecies_encrypt
# draws each ephemeral key here too, so the scalar e of each such point
# E = e*G is known. _keypair records it, and _shared_x computes the ECDH
# point d*E as (d*e mod N)*G: one fixed-base multiplication instead of a
# double-and-add one. This is exact, not a guess: E is recorded only where
# this module computed it as e*G, so d*E = d*(e*G) = (d*e mod N)*G for
# every d, and with N prime and d, e in [1, N) the product d*e mod N is
# never 0. No scalar leaves the module and no caller can claim one for a
# point; a foreign point only takes the slower _jmul.
def _shared_x(d: int, point: bytes) -> int:
    """The x of d * point, for 1 <= d < N and point x || y, 64 bytes, on secp256k1."""
    e = _memo.scalars.get(point)
    if e is None:
        x, y = int.from_bytes(point[:32], "big"), int.from_bytes(point[32:], "big")
        return _to_affine(_jmul(d, (x, y, 1)))[0]
    return int.from_bytes(_base_point(d * e % _N)[:32], "big")


# One record per layer that ecies_encrypt wraps for a point Q = q * G of
# known scalar: q and the layer's ECDH x = x(e * Q), under the layer's
# ephemeral point and AES-GCM tag (_layer_key). The point alone would not
# do: two wraps from equal rng states draw the same ephemeral key for
# different recipients. For the ephemeral point E, of prime order N,
# x(d * E) equals x(q * E) iff d = +-q mod N, so q and N - q are the only
# keys that derive the layer's AES key; any other fails the AES-GCM tag.
# ecies_openers names those two, and ecies_decrypt reads their ECDH x from
# the record, which is exact: the record's key holds E, the point its x was
# computed for. A tampered body under a recorded point and tag still fails
# the tag check.
def _layer_key(blob: bytes) -> bytes:
    """A layer's ephemeral point and AES-GCM tag, which name its record in the memo."""
    return blob[:64] + blob[-16:]


def ecies_encrypt(pubkey: bytes, plaintext: bytes, rng: Random) -> bytes:
    """Authenticated public-key encryption: ephemeral ECDH + AES-GCM.

    Blob layout: ephemeral pubkey (64) || nonce (12) || ciphertext+tag.
    A peel with the wrong private key fails the GCM tag check.
    """
    if len(pubkey) != 64:
        raise ParameterError("pubkey must be 64 bytes")
    px = int.from_bytes(pubkey[:32], "big")
    py = int.from_bytes(pubkey[32:], "big")
    if not _point_on_curve(px, py):
        raise ParameterError("pubkey not on curve")
    eph = keypair_gen(rng)
    sx = _shared_x(int.from_bytes(eph.privkey, "big"), pubkey)
    sym = hash256(sx.to_bytes(32, "big"))
    blob = eph.pubkey + _seal(sym, _draw_nonce(rng), plaintext)
    q = _memo.scalars.get(pubkey)
    if q is not None:
        _memo.layers[_layer_key(blob)] = q, sx
    return blob


def ecies_decrypt(privkey: bytes, blob: bytes) -> bytes:
    if len(blob) < 64 + _NONCE_SIZE + 16:
        raise AuthenticationError("ciphertext too short")
    ex = int.from_bytes(blob[:32], "big")
    ey = int.from_bytes(blob[32:64], "big")
    if not _point_on_curve(ex, ey):
        raise AuthenticationError("ephemeral point off curve")
    d = int.from_bytes(privkey, "big")
    if not 1 <= d < _N:
        # an unusable scalar can never open a layer; report it the same way
        raise AuthenticationError("private scalar out of range")
    record = _memo.layers.get(_layer_key(blob))
    if record is not None and d in (record[0], _N - record[0]):
        sx = record[1]
    else:
        sx = _shared_x(d, blob[:64])
    sym = hash256(sx.to_bytes(32, "big"))
    return _open(sym, blob[64:], "wrong key or tampered onion layer")


def ecies_openers(blob: bytes, keys_by_scalar: Mapping[int, bytes]) -> list[bytes]:
    """The keys of `keys_by_scalar` that can open `blob`, in the order to try them.

    `keys_by_scalar` maps each private key's scalar to the key. For a layer
    ecies_encrypt wrapped in this scope for a point q * G, the openers are
    the key under q, then the key under N - q (see _layer_key): two lookups,
    whatever the number of keys. For any other layer, every key, in the
    mapping's order. It multiplies nothing.
    """
    record = _memo.layers.get(_layer_key(blob))
    if record is None:
        return list(keys_by_scalar.values())
    q = record[0]
    return [keys_by_scalar[want] for want in (q, _N - q) if want in keys_by_scalar]


# ---------------------------------------------------------------------------
# (t, n) threshold secret sharing over a prime field
# ---------------------------------------------------------------------------

# 256-bit prime (= 2**256 - 2**32 - 977). Any 256-bit secret reduces into the
# field with quotient 0 or 1; the quotient rides along publicly so restore is
# exact even for the ~2^-224 fraction of secrets at or above the modulus.
DEFAULT_SHARE_PRIME = 2**256 - 2**32 - 977
# small field for hand-checkable oracle tests
SMALL_TEST_PRIME = 257


@dataclass(frozen=True)
class Share:
    """One point of a Shamir split: (index, poly(index)) plus the public
    reduction quotient shared by the whole split."""

    index: int
    value: int
    wrap: int = 0

    def to_bytes(self) -> bytes:
        return self.index.to_bytes(8, "big") + self.value.to_bytes(32, "big") + self.wrap.to_bytes(32, "big")

    @classmethod
    def from_bytes(cls, raw: bytes) -> "Share":
        if len(raw) != 72:
            raise ParameterError("share encoding must be 72 bytes")
        return cls(
            int.from_bytes(raw[:8], "big"),
            int.from_bytes(raw[8:40], "big"),
            int.from_bytes(raw[40:], "big"),
        )


def _secret_to_int(secret: bytes | int) -> int:
    if isinstance(secret, int):
        if secret < 0:
            raise ParameterError("secret must be non-negative")
        return secret
    return int.from_bytes(secret, "big")


def ss_split(
    secret: bytes | int,
    t: int,
    n: int,
    rng: Random,
    prime: int = DEFAULT_SHARE_PRIME,
) -> list[Share]:
    """Split a secret into n shares, any t of which restore it.

    The polynomial has degree t-1 with constant term secret mod prime; the
    quotient secret // prime is attached to every share.
    """
    if not 1 <= t <= n:
        raise ParameterError(f"invalid threshold parameters t={t}, n={n}")
    if n >= prime:
        raise ParameterError("share count must be below the field size")
    k = _secret_to_int(secret)
    value = k % prime
    wrap = k // prime
    coeffs = [value] + [rng.randrange(prime) for _ in range(t - 1)]
    shares = []
    for index in range(1, n + 1):
        acc = 0
        for c in reversed(coeffs):
            acc = (acc * index + c) % prime
        shares.append(Share(index, acc, wrap))
    return shares


def ss_restore(
    shares: Sequence[Share],
    t: int,
    prime: int = DEFAULT_SHARE_PRIME,
    as_bytes: bool = True,
) -> bytes | int:
    """Lagrange-interpolate the secret at 0 from any t of the given shares.

    Returns the original 256-bit secret as 32 bytes by default (set
    as_bytes=False to get the raw integer, e.g. over a small test field).
    """
    if t < 1:
        raise ParameterError("threshold must be positive")
    if len(shares) < t:
        raise InsufficientSharesError(f"need at least {t} shares, got {len(shares)}")
    indices = [s.index for s in shares]
    if len(set(indices)) != len(indices):
        raise ParameterError("duplicate share indices")
    if len({s.wrap for s in shares}) != 1:
        raise ParameterError("shares mix different splits")
    chosen = sorted(shares, key=lambda s: s.index)[:t]
    terms = []
    dens = []
    for i, si in enumerate(chosen):
        num = 1
        den = 1
        for j, sj in enumerate(chosen):
            if i == j:
                continue
            num = num * (-sj.index) % prime
            den = den * (si.index - sj.index) % prime
        terms.append(si.value * num)
        dens.append(den)
    # one pow for the t denominators
    acc = sum(term * den_inv for term, den_inv in zip(terms, _inverses(dens, prime))) % prime
    k = acc + chosen[0].wrap * prime
    if not as_bytes:
        return k
    if k >= 2**256:
        raise ParameterError("restored secret exceeds 256 bits")
    return k.to_bytes(KEY_SIZE, "big")


# ---------------------------------------------------------------------------
# Onion wrapping of shares
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Onion:
    """A share wrapped in successive public-key layers.

    The onion carries no holder information, on the wire (`wire_bytes`) or
    off it, so whoever unwraps it without knowing the wrapping keys must
    trial-decrypt each layer.
    """

    layers_remaining: int
    payload: bytes

    def wire_bytes(self) -> bytes:
        return bytes([self.layers_remaining]) + self.payload

    @classmethod
    def from_wire(cls, raw: bytes) -> "Onion":
        if not raw:
            raise ParameterError("empty onion encoding")
        return cls(raw[0], raw[1:])

    def share(self) -> Share:
        if self.layers_remaining != 0:
            raise OnionStateError("onion still has encrypted layers")
        return Share.from_bytes(self.payload)


def onion_wrap(share: Share, layer_pubkeys: Sequence[bytes], rng: Random) -> Onion:
    """Encrypt a share under each public key in turn (last key = outer layer)."""
    if len(layer_pubkeys) < 1:
        raise ParameterError("need at least one wrapping key")
    payload = share.to_bytes()
    for pk in layer_pubkeys:
        payload = ecies_encrypt(pk, payload, rng)
    return Onion(len(layer_pubkeys), payload)


def onions_wrap(shares: Sequence[Share], layer_pubkeys: Sequence[Sequence[bytes]], rng: Random) -> list[Onion]:
    """onion_wrap of each share under its own key list, in order, on one rng.

    Equal to that loop of onion_wrap calls, draw for draw and byte for byte,
    and it raises what the loop raises after the same draws. Outside any
    scope, under _UNSCOPED, it is that loop.

    A service's wrap draws each layer's ephemeral scalar e and then its
    nonce from one rng, so a copy of that rng names every e before the first
    layer is sealed. One batched multiplication makes each e and each
    product e * q for a recipient point Q = q * G of known scalar, and
    records each k * G, as its 64 bytes, in the memo, where ecies_encrypt's
    keypair_gen and _shared_x (e * Q as (e * q mod N) * G) read them back.
    A hit is exact: every entry is k * G for its key k, so a mispredicted
    draw costs a miss, never a wrong point, and a key the wrap rejects
    costs only points nobody reads.
    """
    if len(shares) != len(layer_pubkeys):
        raise ParameterError("need one wrapping-key list per share")
    if _memo is not _UNSCOPED:
        ahead = Random()
        ahead.setstate(rng.getstate())
        ks = []
        for pubkeys in layer_pubkeys:
            for pk in pubkeys:
                e = _draw_scalar(ahead)
                _draw_nonce(ahead)
                ks.append(e)
                q = _memo.scalars.get(pk)
                if q is not None:
                    ks.append(e * q % _N)
        _memo.points.update(zip(ks, [_point_bytes(x, y) for x, y in _base_mul_batch(ks)]))
    return [onion_wrap(share, pubkeys, rng) for share, pubkeys in zip(shares, layer_pubkeys)]


def onion_peel(onion: Onion, privkey: bytes) -> Onion:
    """Remove the outermost layer; wrong keys raise AuthenticationError."""
    if onion.layers_remaining == 0:
        raise OnionStateError("no layers left to peel")
    return Onion(onion.layers_remaining - 1, ecies_decrypt(privkey, onion.payload))
