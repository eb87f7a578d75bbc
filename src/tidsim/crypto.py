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
from dataclasses import dataclass, field, fields
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
# secp256k1 arithmetic runs in OpenSSL, in the libcrypto that hashlib's
# _hashlib extension has already mapped (_ec, beside _gcm below), on the
# 64-byte points x || y that keys and layers carry: k * G (_base_mul, and
# keypairs_gen a column at a time) for a key or a signature's nonce, and
# a * G + b * P (_mul_add) for the recovery of a foreign signature and for
# an ECDH with a point of unknown scalar. What the memo (_Memo) saves of
# both is argued at _shared_x, _layer_key and recover_signer.
# ---------------------------------------------------------------------------

_P = 0xFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFEFFFFFC2F
_N = 0xFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFEBAAEDCE6AF48A03BBFD25E8CD0364141


def _point_on_curve(x, y):
    return x < _P and y < _P and (y * y - (x * x * x + 7)) % _P == 0


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


def _base_point(k: int) -> bytes:
    """k * G for 1 <= k < N as 64 bytes, read from the memo when this scope computed it."""
    point = _memo.points.get(k)
    return _base_mul(k) if point is None else point


def _draw_scalar(rng: Random) -> int:
    """The next private scalar in [1, N) from rng: every key pair's one draw."""
    return 1 + rng.randrange(_N - 1)


def keypair_gen(rng: Random) -> KeyPair:
    """Draw a fresh key pair from the injected random source."""
    return keypair_from_scalar(_draw_scalar(rng))


def keypairs_gen(rng: Random, count: int) -> list[KeyPair]:
    """[keypair_gen(rng) for _ in range(count)], with k * G computed a column at a time (_ec)."""
    ks = [_draw_scalar(rng) for _ in range(count)]
    return list(map(_keypair, ks, _ec()[0](ks)))


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
    # each such e to those bytes, for _base_point: sign() names its signer
    # and pubkey_of_privkey() answers a revealed key through it
    points: dict[int, bytes] = field(default_factory=dict)
    # (digest, signature) to the signer's address, for recover_signer
    signers: dict[tuple[bytes, Signature], bytes] = field(default_factory=dict)
    # a wrapped layer's _layer_key to its recipient's scalar q and its ECDH x
    layers: dict[bytes, tuple[int, int]] = field(default_factory=dict)
    # scope_cache's results: one dict per cached function, from its arguments to its result
    results: dict[Callable, dict] = field(default_factory=dict)


class _RecordsNothing(dict):
    """Every field of _UNSCOPED: every lookup misses and every write is dropped.

    All five fields are this one dict, so each method that would store an
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
    sig = None
    counter = 0
    while sig is None:
        k = _nonce(privkey, digest, counter)
        counter += 1
        if k:
            point = _base_mul(k)
            r = int.from_bytes(point[:32], "big")
            s = pow(k, -1, _N) * (z + r * d) % _N
            # keep r below the group order so the recovery id is a single parity bit
            if 0 < r < _N and s:
                sig = Signature(point[63] & 1, r, s)
    _memo.signers[bytes(digest), sig] = address_of_pubkey(pubkey_of_privkey(privkey))
    return sig


def _nonce(privkey: bytes, digest: bytes, counter: int) -> int:
    """sign()'s nonce for (privkey, digest) at the given attempt, in [0, N)."""
    seed = _hmac.new(privkey, digest + counter.to_bytes(4, "big"), hashlib.sha256).digest()
    return int.from_bytes(seed, "big") % _N


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
    q = _mul_add(-z * r_inv % _N, sig.s * r_inv % _N, x.to_bytes(32, "big") + y.to_bytes(32, "big"))
    if not q:
        raise VerificationError("recovered point at infinity")
    return address_of_pubkey(q)


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


@functools.cache
def _libcrypto(*names: str) -> list:
    """The functions `names` of the libcrypto that hashlib's _hashlib
    extension has already mapped, bound with ctypes, so no second copy of
    OpenSSL is loaded. A missing extension or library raises CryptoError,
    and so does a missing function, naming each one missing; nothing is
    cached then."""
    import ctypes

    try:
        import _hashlib

        lib = ctypes.CDLL(_hashlib.__file__)
    except (ImportError, OSError) as exc:
        raise CryptoError(f"tidsim needs OpenSSL's libcrypto through hashlib's _hashlib: {exc}") from None
    missing = [name for name in names if not hasattr(lib, name)]
    if missing:
        raise CryptoError(f"hashlib's libcrypto lacks {', '.join(missing)}")
    return [getattr(lib, name) for name in names]


def _failed(name: str):
    raise CryptoError(f"OpenSSL {name} failed")


_NID_SECP256K1 = 714  # NID_secp256k1, OpenSSL's obj_mac.h
_UNCOMPRESSED = 4  # POINT_CONVERSION_UNCOMPRESSED: 0x04 || x || y, and one 0x00 byte for infinity
_COLUMN = 32  # k * G results made affine by one EC_POINTs_make_affine, that is one field inversion


@functools.cache
def _ec():
    """k * G for a sequence of scalars, and a * G + b * P, on secp256k1,
    bound with ctypes to OpenSSL's EC interface in _libcrypto() on the first
    multiplication. A point crosses as 64 bytes x || y, OpenSSL's encoding
    without its 0x04 byte; oct2point checks a given point, and infinity
    comes back as b"". k * G fills a column of _COLUMN points made affine
    with one shared field inversion. A zero scalar pads each EC_POINT_mul
    to two terms, which keeps OpenSSL on its wNAF path over the precomputed
    multiples of G, off its constant-time ladder: the simulator keeps no
    secret from a timing observer. What is missing raises CryptoError. The
    handles are process state, like _memo: the simulator is single-threaded."""
    import ctypes

    ptr, size, c_int, char_p = ctypes.c_void_p, ctypes.c_size_t, ctypes.c_int, ctypes.c_char_p
    signatures = {
        "EC_GROUP_new_by_curve_name": (ptr, [c_int]),
        "EC_GROUP_precompute_mult": (c_int, [ptr, ptr]),
        "BN_CTX_new": (ptr, []),
        "EC_POINT_new": (ptr, [ptr]),
        "EC_GROUP_get0_generator": (ptr, [ptr]),
        "BN_new": (ptr, []),
        "BN_bin2bn": (ptr, [char_p, c_int, ptr]),
        "EC_POINT_mul": (c_int, [ptr] * 6),
        "EC_POINTs_make_affine": (c_int, [ptr, size, ptr, ptr]),
        "EC_POINT_point2oct": (size, [ptr, ptr, c_int, char_p, size, ptr]),
        "EC_POINT_oct2point": (c_int, [ptr, ptr, char_p, size, ptr]),
    }
    functions = _libcrypto(*signatures)
    for f, (restype, argtypes) in zip(functions, signatures.values()):
        f.restype, f.argtypes = restype, argtypes
    group_new, precompute, ctx_new, point_new, generator, bn_new, bin2bn, mul, make_affine, point2oct, oct2point = functions
    group = group_new(_NID_SECP256K1)
    if not group:
        raise CryptoError("OpenSSL's libcrypto has no secp256k1 group")
    # a context, a given point, two scalars, a zero and the column of results
    handles = [ctx_new(), point_new(group), bn_new(), bn_new(), bn_new(), *(point_new(group) for _ in range(_COLUMN))]
    ctx, given, u, v, zero, *column = handles
    if not all(handles):
        _failed("BN_CTX_new, EC_POINT_new or BN_new")
    if precompute(group, ctx) != 1:
        _failed("EC_GROUP_precompute_mult")
    g = generator(group)
    column_array = (ptr * _COLUMN)(*column)
    buffer = ctypes.create_string_buffer(65)

    def multiply(result: int, a: int, point: int, b: int) -> None:  # result = a * G + b * point, for b a BIGNUM
        bin2bn(a.to_bytes(32, "big"), 32, u)
        if mul(group, result, u, point, b, ctx) != 1:
            _failed("EC_POINT_mul")

    def read(point: int) -> bytes:
        n = point2oct(group, point, _UNCOMPRESSED, buffer, 65, ctx)
        if not n:
            _failed("EC_POINT_point2oct")
        return buffer.raw[1:n]

    def base_muls(ks: Sequence[int]) -> list[bytes]:
        points = []
        for start in range(0, len(ks), _COLUMN):
            used = column[: len(ks) - start]
            for point, k in zip(used, ks[start : start + _COLUMN]):
                multiply(point, k, g, zero)
            if make_affine(group, len(used), column_array, ctx) != 1:
                _failed("EC_POINTs_make_affine")
            points += map(read, used)
        return points

    def mul_add(a: int, b: int, point: bytes) -> bytes:
        if oct2point(group, given, b"\x04" + point, 65, ctx) != 1:
            _failed("EC_POINT_oct2point")
        bin2bn(b.to_bytes(32, "big"), 32, v)
        multiply(column[0], a, given, v)
        return read(column[0])

    return base_muls, mul_add


def _base_mul(k: int) -> bytes:
    """k * G as x || y, for 1 <= k < N: a column of one."""
    return _ec()[0]((k,))[0]


def _mul_add(a: int, b: int, point: bytes) -> bytes:
    """a * G + b * point as x || y, or b"" at infinity, for 0 <= a, b < N and point x || y on secp256k1."""
    return _ec()[1](a, b, point)


_TAG_SIZE = 16
_EVP_CTRL_GCM_GET_TAG = 0x10
_EVP_CTRL_GCM_SET_TAG = 0x11


@functools.cache
def _gcm():
    """AES-256-GCM's seal and open, bound with ctypes on the first encryption
    or decryption to OpenSSL's EVP interface in _libcrypto(). One encryption
    and one decryption context are each initialised once with the cipher, so
    a call sets only the key and the IV. They are process state, like _memo:
    the simulator is single-threaded. The functions keep ctypes' default int
    arguments and result, which are cheaper per call than declared argtypes
    for calls of a few µs, so every pointer is passed as a c_void_p, bytes
    or ctypes object, never as a bare int."""
    import ctypes

    ptr = ctypes.c_void_p
    new_ctx, aes_256_gcm, ctrl, enc_init, enc_update, enc_final, dec_init, dec_update, dec_final = _libcrypto(
        "EVP_CIPHER_CTX_new",
        "EVP_aes_256_gcm",
        "EVP_CIPHER_CTX_ctrl",
        "EVP_EncryptInit_ex",
        "EVP_EncryptUpdate",
        "EVP_EncryptFinal_ex",
        "EVP_DecryptInit_ex",
        "EVP_DecryptUpdate",
        "EVP_DecryptFinal_ex",
    )
    new_ctx.restype = aes_256_gcm.restype = ptr
    cipher, enc, dec = aes_256_gcm(), new_ctx(), new_ctx()
    if not (cipher and enc and dec):
        _failed("EVP_aes_256_gcm or EVP_CIPHER_CTX_new")
    cipher, enc, dec = ptr(cipher), ptr(enc), ptr(dec)
    if enc_init(enc, cipher, None, None, None) != 1:
        _failed("EVP_EncryptInit_ex")
    if dec_init(dec, cipher, None, None, None) != 1:
        _failed("EVP_DecryptInit_ex")
    buffer, byref = ctypes.create_string_buffer, ctypes.byref
    outl = byref(ctypes.c_int())

    def seal(key: bytes, nonce: bytes, plaintext: bytes) -> bytes:
        n = len(plaintext)
        out = buffer(n + _TAG_SIZE)
        if enc_init(enc, None, None, key, nonce) != 1:
            _failed("EVP_EncryptInit_ex")
        if enc_update(enc, out, outl, plaintext, n) != 1:
            _failed("EVP_EncryptUpdate")
        if enc_final(enc, None, outl) != 1:
            _failed("EVP_EncryptFinal_ex")
        if ctrl(enc, _EVP_CTRL_GCM_GET_TAG, _TAG_SIZE, byref(out, n)) != 1:
            _failed("EVP_CIPHER_CTX_ctrl")
        return nonce + out.raw

    def open_(key: bytes, sealed: bytes, failure: str) -> bytes:
        n = len(sealed) - _NONCE_SIZE - _TAG_SIZE
        out = buffer(n)
        if dec_init(dec, None, None, key, sealed[:_NONCE_SIZE]) != 1:
            _failed("EVP_DecryptInit_ex")
        if dec_update(dec, out, outl, sealed[_NONCE_SIZE:-_TAG_SIZE], n) != 1:
            _failed("EVP_DecryptUpdate")
        if ctrl(dec, _EVP_CTRL_GCM_SET_TAG, _TAG_SIZE, sealed[-_TAG_SIZE:]) != 1:
            _failed("EVP_CIPHER_CTX_ctrl")
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
# point; a foreign point takes _mul_add, with a zero G term.
def _shared_x(d: int, point: bytes) -> int:
    """The x of d * point, for 1 <= d < N and point x || y, 64 bytes, on secp256k1."""
    e = _memo.scalars.get(point)
    product = _mul_add(0, d, point) if e is None else _base_point(d * e % _N)
    return int.from_bytes(product[:32], "big")


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


def onion_peel(onion: Onion, privkey: bytes) -> Onion:
    """Remove the outermost layer; wrong keys raise AuthenticationError."""
    if onion.layers_remaining == 0:
        raise OnionStateError("no layers left to peel")
    return Onion(onion.layers_remaining - 1, ecies_decrypt(privkey, onion.payload))
