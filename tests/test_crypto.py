"""Crypto kernel tests.

The Shamir checks are validated against an independent brute-force Lagrange
oracle written here in the test module, not against the library's own
interpolation path.
"""

import collections
import contextlib
import ctypes
import gc
import hashlib
import itertools
import operator
import re
import sys
import weakref
from dataclasses import fields
from random import Random

import pytest
from hypothesis import example, given, settings, strategies as st

from tidsim import crypto
from tidsim.actors import peel_with_keys
from tidsim.adversary import run_bribery
from tidsim.crypto import (
    AuthenticationError,
    CryptoError,
    InsufficientSharesError,
    Onion,
    OnionStateError,
    ParameterError,
    Share,
    Signature,
    SMALL_TEST_PRIME,
    VerificationError,
    _N,
    _P,
    _base_mul,
    _mul_add,
    _recover_address,
    address_of_pubkey,
    ecies_decrypt,
    ecies_encrypt,
    ecies_openers,
    decode_parts,
    encode_parts,
    hash256,
    keypair_from_scalar,
    keypair_gen,
    keypairs_gen,
    new_secret_key,
    onion_peel,
    onion_wrap,
    pubkey_of_privkey,
    recover_signer,
    sign,
    signed_by,
    ss_restore,
    ss_split,
    sym_decrypt,
    sym_encrypt,
)
from tidsim.scenario import ScenarioConfig, ScenarioRunner, run_scenario

# SHA3-256 golden values, pinned from hashlib on first computation.
SHA3_256_EMPTY = "a7ffc6f8bf1ed76651c14756a061d662f580ff4de43b49fa82d80a4b80f8434a"
SHA3_256_ABC = "3a985da74fe225b2045c172d6bd390bd855f086e3e9d525b46bfe24511431532"


def oracle_lagrange_at_zero(points, prime):
    """Independent Lagrange interpolation oracle (plain egcd arithmetic)."""

    def egcd(a, b):
        if b == 0:
            return a, 1, 0
        g, x, y = egcd(b, a % b)
        return g, y, x - (a // b) * y

    def inv(a):
        g, x, _ = egcd(a % prime, prime)
        assert g == 1
        return x % prime

    total = 0
    for xi, yi in points:
        term = yi
        for xj, _ in points:
            if xj == xi:
                continue
            term = term * ((-xj) % prime) % prime
            term = term * inv((xi - xj) % prime) % prime
        total = (total + term) % prime
    return total


class FixedRandom:
    """Duck-typed random source that replays a pinned list of randrange results."""

    def __init__(self, values):
        self._values = list(values)

    def randrange(self, *args, **kwargs):
        return self._values.pop(0)


class TestHash:
    def test_deterministic(self):
        rng = Random(7)
        for _ in range(50):
            data = rng.randbytes(rng.randrange(0, 200))
            assert hash256(data) == hash256(data)
            assert len(hash256(data)) == 32

    def test_golden_values(self):
        assert hash256(b"").hex() == SHA3_256_EMPTY
        assert hash256(b"abc").hex() == SHA3_256_ABC

    def test_extension_changes_digest(self):
        # small brute-force collision scan: x vs x || 0x00
        rng = Random(11)
        for _ in range(1000):
            x = rng.randbytes(rng.randrange(0, 64))
            assert hash256(x) != hash256(x + b"\x00")

    def test_encode_parts_unambiguous(self):
        assert encode_parts(b"ab", b"c") != encode_parts(b"a", b"bc")
        assert encode_parts(1, b"x") != encode_parts(b"x", 1)


class TestKeyPairs:
    def test_same_seed_same_keypair(self):
        assert keypair_gen(Random(42)) == keypair_gen(Random(42))

    def test_address_is_20_bytes(self):
        kp = keypair_gen(Random(1))
        assert len(kp.address) == 20
        assert kp.address == hash256(kp.pubkey)[-20:]

    def test_seed_collision_scan(self):
        addresses = set()
        rng = Random(99)
        for _ in range(10_000):
            addresses.add(keypair_from_scalar(1 + rng.randrange(2**250)).address)
        assert len(addresses) == 10_000

    def test_scalar_bounds(self):
        with pytest.raises(ParameterError):
            keypair_from_scalar(0)


@contextlib.contextmanager
def counted_base_mults():
    """The k of every fixed-base multiplication k*G while the block runs."""
    calls = []
    real = crypto._base_mul

    def base(k):
        calls.append(k)
        return real(k)

    crypto._base_mul = base
    try:
        yield calls
    finally:
        crypto._base_mul = real


class TestSignatures:
    def test_round_trip_fuzz(self):
        rng = Random(3)
        for _ in range(1000):
            kp = keypair_gen(rng)
            digest = rng.randbytes(32)
            sig = sign(kp.privkey, digest)
            assert recover_signer(digest, sig) == kp.address
            # sign memoizes its signer, so check the curve arithmetic itself too
            assert _recover_address(digest, sig) == kp.address

    def test_tampered_digest_fuzz(self):
        rng = Random(5)
        kp = keypair_gen(rng)
        for _ in range(1000):
            digest = rng.randbytes(32)
            sig = sign(kp.privkey, digest)
            tampered = bytearray(digest)
            tampered[rng.randrange(32)] ^= 1 + rng.randrange(255)
            try:
                recovered = recover_signer(bytes(tampered), sig)
            except VerificationError:
                continue
            assert recovered != kp.address

    def test_two_signers_distinct(self):
        rng = Random(8)
        a, b = keypair_gen(rng), keypair_gen(rng)
        digest = hash256(b"shared message")
        assert recover_signer(digest, sign(a.privkey, digest)) != recover_signer(
            digest, sign(b.privkey, digest)
        )

    def test_malformed_signature_rejected(self):
        digest = hash256(b"m")
        # twice each: a failed recovery must not be memoized
        for sig in [Signature(v=2, r=1, s=1), Signature(v=0, r=0, s=1), Signature(v=0, r=1, s=_N)] * 2:
            with pytest.raises(VerificationError):
                recover_signer(digest, sig)
        with pytest.raises(VerificationError):
            Signature.from_bytes(b"\x00" * 10)

    def test_signature_bytes_round_trip(self):
        sig = sign(keypair_gen(Random(2)).privkey, hash256(b"x"))
        assert Signature.from_bytes(sig.to_bytes()) == sig

    def test_signed_by(self):
        rng = Random(4)
        signer, other = keypair_gen(rng), keypair_gen(rng)
        digest = hash256(b"signed")
        sig = sign(signer.privkey, digest)
        assert signed_by(digest, sig.to_bytes(), signer.address)
        assert _recover_address(digest, sig) == signer.address
        assert not signed_by(digest, sig.to_bytes(), other.address)
        assert not signed_by(digest, sig.to_bytes()[:64], signer.address)
        for r in (0, _N):
            assert not signed_by(digest, Signature(sig.v, r, sig.s).to_bytes(), signer.address)

    def test_sign_redraws_a_rejected_nonce(self, monkeypatch):
        # a nonce of 0 is redrawn, as is one whose R has x >= N
        real_nonce, real_base = crypto._nonce, crypto._base_mul
        kp = keypair_gen(Random(9))
        digests = [bytes([i]) + hash256(bytes([i]))[1:] for i in range(6)]
        first = [sign(kp.privkey, d) for d in digests]
        # outside a scope sign records nothing, so each call below signs again

        def nonce(privkey, digest, counter):
            return 0 if counter == 0 and digest[0] % 2 == 0 else real_nonce(privkey, digest, counter)

        monkeypatch.setattr(crypto, "_nonce", nonce)
        sigs = [sign(kp.privkey, d) for d in digests]
        assert all(_recover_address(d, sig) == kp.address for d, sig in zip(digests, sigs))
        # the redrawn ones are not the signatures of a first nonce
        assert [sig == first_sig for sig, first_sig in zip(sigs, first)] == [False, True] * 3
        monkeypatch.setattr(crypto, "_nonce", real_nonce)
        rejected = real_base(real_nonce(kp.privkey, digests[0], 0))
        first_nonce = real_nonce(kp.privkey, digests[0], 0)
        x_at_n = _N.to_bytes(32, "big") + real_base(first_nonce)[32:]
        monkeypatch.setattr(crypto, "_base_mul", lambda k: x_at_n if k == first_nonce else real_base(k))
        assert sign(kp.privkey, digests[0]) == sigs[0]


class TestSymmetric:
    def test_round_trip(self):
        rng = Random(21)
        key = new_secret_key(rng)
        msg = b"the pending information"
        assert sym_decrypt(key, sym_encrypt(key, msg, rng)) == msg

    def test_wrong_key_fails(self):
        rng = Random(22)
        key, other = new_secret_key(rng), new_secret_key(rng)
        blob = sym_encrypt(key, b"secret", rng)
        with pytest.raises(AuthenticationError):
            sym_decrypt(other, blob)

    def test_tamper_fails(self):
        rng = Random(23)
        key = new_secret_key(rng)
        blob = bytearray(sym_encrypt(key, b"secret", rng))
        blob[-1] ^= 0xFF
        with pytest.raises(AuthenticationError):
            sym_decrypt(key, bytes(blob))

    def test_ciphertext_differs_from_plaintext(self):
        rng = Random(24)
        key = new_secret_key(rng)
        msg = b"plaintext bytes"
        assert msg not in sym_encrypt(key, msg, rng)


class TestEcies:
    def test_round_trip(self):
        rng = Random(31)
        kp = keypair_gen(rng)
        blob = ecies_encrypt(kp.pubkey, b"layer data", rng)
        assert ecies_decrypt(kp.privkey, blob) == b"layer data"

    def test_wrong_privkey_fails(self):
        rng = Random(32)
        kp, other = keypair_gen(rng), keypair_gen(rng)
        blob = ecies_encrypt(kp.pubkey, b"layer data", rng)
        with pytest.raises(AuthenticationError):
            ecies_decrypt(other.privkey, blob)


@pytest.fixture
def fresh_gcm():
    """Cleared _gcm and _libcrypto caches before and after the test, so the
    next seal or open binds OpenSSL again."""
    crypto._gcm.cache_clear()
    crypto._libcrypto.cache_clear()
    yield
    crypto._gcm.cache_clear()
    crypto._libcrypto.cache_clear()


@pytest.fixture
def fresh_ec():
    """Cleared _ec and _libcrypto caches before and after the test, so the
    next multiplication binds OpenSSL again."""
    crypto._ec.cache_clear()
    crypto._libcrypto.cache_clear()
    yield
    crypto._ec.cache_clear()
    crypto._libcrypto.cache_clear()


class FakeEvp:
    """A stand-in libcrypto whose int-returning EVP calls all succeed except
    the one named `failing`, which returns 0 from its call after the first
    `after`."""

    def __init__(self, failing, after=0):
        calls = itertools.count()
        for name in ["EVP_CIPHER_CTX_new", "EVP_aes_256_gcm", "EVP_CIPHER_CTX_ctrl"] + [
            f"EVP_{op}{step}" for op in ("Encrypt", "Decrypt") for step in ("Init_ex", "Update", "Final_ex")
        ]:
            if name == failing:
                setattr(self, name, lambda *args: int(next(calls) < after))
            else:
                setattr(self, name, lambda *args: 1)


class TestAesGcm:
    """The ctypes binding of OpenSSL's AES-256-GCM (crypto._gcm) against the
    GCM specification's test cases, tampering, sizes and an independent
    implementation. A sealed blob is nonce (12) || ciphertext || tag (16)."""

    # McGrew and Viega, "The Galois/Counter Mode of Operation", test cases
    # 13 and 14: K = 0^256, IV = 0^96, P empty and P = 0^128, no AAD
    @pytest.mark.parametrize(
        "plaintext, sealed",
        [
            (b"", "530f8afbc74536b9a963b4f1c4cb738b"),
            (bytes(16), "cea7403d4d606b6e074ec5d3baf39d18d0d1c8a799996bf0265b98b5d48ab919"),
        ],
        ids=["case_13", "case_14"],
    )
    def test_gcm_spec_vectors(self, plaintext, sealed):
        key, iv = bytes(32), bytes(12)
        assert crypto._seal(key, iv, plaintext) == iv + bytes.fromhex(sealed)
        assert crypto._open(key, iv + bytes.fromhex(sealed), "unused") == plaintext

    def test_every_flipped_byte_fails_with_the_same_message(self):
        rng = Random(25)
        key = new_secret_key(rng)
        blob = sym_encrypt(key, b"the pending information", rng)
        for i in range(len(blob)):
            tampered = bytearray(blob)
            tampered[i] ^= 1 << rng.randrange(8)
            with pytest.raises(AuthenticationError, match="^wrong key or tampered ciphertext$"):
                sym_decrypt(key, bytes(tampered))
        assert sym_decrypt(key, blob) == b"the pending information"

    def test_every_flipped_layer_byte_fails_with_the_same_message(self):
        # past the ephemeral point, whose damage fails the curve check first
        rng = Random(26)
        kp = keypair_gen(rng)
        blob = ecies_encrypt(kp.pubkey, b"share", rng)
        for i in range(64, len(blob)):
            tampered = bytearray(blob)
            tampered[i] ^= 0x80
            with pytest.raises(AuthenticationError, match="^wrong key or tampered onion layer$"):
                ecies_decrypt(kp.privkey, bytes(tampered))

    def test_wrong_key_fails_with_the_same_message(self):
        rng = Random(27)
        blob = sym_encrypt(new_secret_key(rng), b"secret", rng)
        for _ in range(20):
            with pytest.raises(AuthenticationError, match="^wrong key or tampered ciphertext$"):
                sym_decrypt(new_secret_key(rng), blob)

    @pytest.mark.parametrize("size", [0, 1, 15, 16, 17, 4095, 4096, 4097, 65_537])
    def test_sizes_round_trip(self, size):
        rng = Random(size)
        key, plaintext = new_secret_key(rng), rng.randbytes(size)
        blob = sym_encrypt(key, plaintext, rng)
        assert len(blob) == 12 + size + 16
        assert sym_decrypt(key, blob) == plaintext

    def test_failed_open_leaves_the_context_usable(self):
        rng = Random(28)
        key = new_secret_key(rng)
        blob = sym_encrypt(key, b"after a failure", rng)
        with pytest.raises(AuthenticationError):
            sym_decrypt(new_secret_key(rng), blob)
        assert sym_decrypt(key, blob) == b"after a failure"
        assert sym_decrypt(key, sym_encrypt(key, b"", rng)) == b""

    def test_matches_an_independent_aes_gcm(self):
        aead = pytest.importorskip("cryptography.hazmat.primitives.ciphers.aead")
        rng = Random(29)
        for _ in range(500):
            key, nonce = rng.randbytes(32), rng.randbytes(12)
            plaintext = rng.randbytes(rng.choice([rng.randrange(64), rng.randrange(3000)]))
            sealed = crypto._seal(key, nonce, plaintext)
            assert sealed == nonce + aead.AESGCM(key).encrypt(nonce, plaintext, None)
            assert crypto._open(key, sealed, "unused") == plaintext

    def test_missing_hashlib_binding_raises_crypto_error(self, fresh_gcm, monkeypatch):
        monkeypatch.setitem(sys.modules, "_hashlib", None)
        with pytest.raises(CryptoError, match="_hashlib") as info:
            sym_encrypt(bytes(32), b"x", Random(0))
        assert type(info.value) is CryptoError

    def test_missing_symbol_raises_crypto_error_naming_it(self, fresh_gcm, monkeypatch):
        monkeypatch.setattr(ctypes, "CDLL", lambda path: object())
        with pytest.raises(CryptoError, match="EVP_CIPHER_CTX_new"):
            sym_encrypt(bytes(32), b"x", Random(0))

    @pytest.mark.parametrize(
        "failing, call",
        [
            ("EVP_aes_256_gcm", "encrypt"),
            ("EVP_CIPHER_CTX_new", "encrypt"),
            ("EVP_EncryptInit_ex", "encrypt"),
            ("EVP_EncryptUpdate", "encrypt"),
            ("EVP_EncryptFinal_ex", "encrypt"),
            ("EVP_CIPHER_CTX_ctrl", "encrypt"),
            ("EVP_DecryptInit_ex", "decrypt"),
            ("EVP_DecryptUpdate", "decrypt"),
            ("EVP_CIPHER_CTX_ctrl", "decrypt"),
        ],
    )
    def test_evp_failure_raises_crypto_error_naming_it(self, fresh_gcm, monkeypatch, failing, call):
        monkeypatch.setattr(ctypes, "CDLL", lambda path: FakeEvp(failing))
        with pytest.raises(CryptoError, match=failing) as info:
            if call == "encrypt":
                sym_encrypt(bytes(32), b"x", Random(0))
            else:
                sym_decrypt(bytes(32), bytes(29))
        assert type(info.value) is CryptoError

    # the binding initialises each context once with the cipher, then each
    # seal or open sets its key and IV: the second Init_ex call fails here
    @pytest.mark.parametrize("failing, call", [("EVP_EncryptInit_ex", "encrypt"), ("EVP_DecryptInit_ex", "decrypt")])
    def test_per_call_init_failure_raises_crypto_error_naming_it(self, fresh_gcm, monkeypatch, failing, call):
        monkeypatch.setattr(ctypes, "CDLL", lambda path: FakeEvp(failing, after=1))
        with pytest.raises(CryptoError, match=failing) as info:
            if call == "encrypt":
                sym_encrypt(bytes(32), b"x", Random(0))
            else:
                sym_decrypt(bytes(32), bytes(29))
        assert type(info.value) is CryptoError

    def test_failed_final_is_an_authentication_error(self, fresh_gcm, monkeypatch):
        monkeypatch.setattr(ctypes, "CDLL", lambda path: FakeEvp("EVP_DecryptFinal_ex"))
        with pytest.raises(AuthenticationError, match="^wrong key or tampered ciphertext$"):
            sym_decrypt(bytes(32), bytes(29))


class FakeEc:
    """A stand-in libcrypto for the secp256k1 binding: every call succeeds,
    each pointer-returning one with a nonzero address and point2oct with
    the 65 bytes of an uncompressed point, except the one named `failing`,
    which returns 0."""

    def __init__(self, failing):
        for name in [
            "EC_GROUP_new_by_curve_name",
            "EC_GROUP_precompute_mult",
            "BN_CTX_new",
            "EC_POINT_new",
            "EC_GROUP_get0_generator",
            "BN_new",
            "BN_bin2bn",
            "EC_POINT_mul",
            "EC_POINTs_make_affine",
            "EC_POINT_point2oct",
            "EC_POINT_oct2point",
        ]:
            result = 0 if name == failing else 65 if name == "EC_POINT_point2oct" else 1
            setattr(self, name, lambda *args, result=result: result)


class CountedLib:
    """A libcrypto `lib` whose functions each count their calls in `calls`, by name."""

    def __init__(self, lib, calls):
        self.lib, self.calls = lib, calls

    def __getattr__(self, name):
        return CountedFunction(getattr(self.lib, name), name, self.calls)


class CountedFunction:
    """A ctypes function `f` that counts its calls in `calls` under `name`;
    its restype and argtypes are set on `f`."""

    def __init__(self, f, name, calls):
        vars(self).update(f=f, name=name, calls=calls)

    def __setattr__(self, attr, value):
        setattr(self.f, attr, value)

    def __call__(self, *args):
        self.calls[self.name] += 1
        return self.f(*args)


class TestEcBinding:
    """The ctypes binding of OpenSSL's secp256k1 (crypto._ec): each failure
    to bind or to compute raises CryptoError naming what failed."""

    # one call of each operation: k * G, and a * G + b * P for a foreign point
    @staticmethod
    def multiply():
        keypair_from_scalar(0xC0FFEE)
        crypto._shared_x(0xBEEF, keypair_from_scalar(0xFACADE).pubkey)

    def test_missing_hashlib_binding_raises_crypto_error(self, fresh_ec, monkeypatch):
        monkeypatch.setitem(sys.modules, "_hashlib", None)
        with pytest.raises(CryptoError, match="_hashlib") as info:
            self.multiply()
        assert type(info.value) is CryptoError

    @pytest.mark.parametrize("missing", ["EC_GROUP_precompute_mult", "EC_POINT_mul", "EC_POINTs_make_affine"])
    def test_missing_symbol_raises_crypto_error_naming_it(self, fresh_ec, monkeypatch, missing):
        fake = FakeEc(None)
        delattr(fake, missing)
        monkeypatch.setattr(ctypes, "CDLL", lambda path: fake)
        with pytest.raises(CryptoError, match=f"^hashlib's libcrypto lacks {missing}$") as info:
            self.multiply()
        assert type(info.value) is CryptoError

    def test_no_secp256k1_group_raises_crypto_error(self, fresh_ec, monkeypatch):
        monkeypatch.setattr(ctypes, "CDLL", lambda path: FakeEc("EC_GROUP_new_by_curve_name"))
        with pytest.raises(CryptoError, match="^OpenSSL's libcrypto has no secp256k1 group$"):
            self.multiply()

    @pytest.mark.parametrize(
        "failing",
        [
            "BN_CTX_new",
            "EC_POINT_new",
            "BN_new",
            "EC_GROUP_precompute_mult",
            "EC_POINT_mul",
            "EC_POINTs_make_affine",
            "EC_POINT_point2oct",
            "EC_POINT_oct2point",
        ],
    )
    def test_failed_call_raises_crypto_error_naming_it(self, fresh_ec, monkeypatch, failing):
        monkeypatch.setattr(ctypes, "CDLL", lambda path: FakeEc(failing))
        with pytest.raises(CryptoError, match=failing) as info:
            self.multiply()
        assert type(info.value) is CryptoError

    # oct2point checks that a point lies on the curve
    def test_point_off_the_curve_raises(self):
        with pytest.raises(CryptoError, match="EC_POINT_oct2point"):
            _mul_add(1, 1, (1).to_bytes(32, "big") * 2)


class TestSecretSharing:
    def test_degree_zero_split(self):
        shares = ss_split(42, t=1, n=3, rng=Random(0), prime=SMALL_TEST_PRIME)
        assert [s.value for s in shares] == [42, 42, 42]

    def test_pinned_coefficients_match_hand_oracle(self):
        # polynomial 42 + 113*x over GF(257), coefficient pinned via fake rng
        shares = ss_split(42, t=2, n=3, rng=FixedRandom([113]), prime=257)
        expected = [(x, (42 + 113 * x) % 257) for x in (1, 2, 3)]
        assert [(s.index, s.value) for s in shares] == expected
        # every 2-subset interpolates back to 42 under the independent oracle
        for pair in itertools.combinations(expected, 2):
            assert oracle_lagrange_at_zero(pair, 257) == 42

    def test_exhaustive_subset_identity_small_field(self):
        rng = Random(77)
        for n in range(1, 7):
            for t in range(1, n + 1):
                secret = rng.randrange(SMALL_TEST_PRIME)
                shares = ss_split(secret, t, n, rng, prime=SMALL_TEST_PRIME)
                for size in range(t, n + 1):
                    for subset in itertools.combinations(shares, size):
                        assert ss_restore(subset, t, prime=SMALL_TEST_PRIME, as_bytes=False) == secret
                        points = [(s.index, s.value) for s in subset[:t]]
                        assert oracle_lagrange_at_zero(points, SMALL_TEST_PRIME) == secret

    def test_full_field_round_trip(self):
        rng = Random(55)
        key = new_secret_key(rng)
        shares = ss_split(key, t=4, n=10, rng=rng)
        assert ss_restore(rng.sample(shares, 4), t=4) == key
        assert ss_restore(shares, t=4) == key

    def test_wrap_handles_secret_above_modulus(self):
        rng = Random(56)
        secret = 300  # above the small field modulus 257
        shares = ss_split(secret, t=2, n=4, rng=rng, prime=257)
        assert all(s.wrap == 1 for s in shares)
        assert ss_restore(shares[:2], t=2, prime=257, as_bytes=False) == 300

    def test_insufficient_shares_error(self):
        rng = Random(57)
        shares = ss_split(new_secret_key(rng), t=3, n=5, rng=rng)
        with pytest.raises(InsufficientSharesError):
            ss_restore(shares[:2], t=3)

    def test_under_threshold_subsets_miss_secret(self):
        # t=n=5: every 4-subset, interpolated as if t were 4, yields a wrong value
        rng = Random(58)
        secret = 123
        shares = ss_split(secret, t=5, n=5, rng=rng, prime=SMALL_TEST_PRIME)
        for subset in itertools.combinations(shares, 4):
            points = [(s.index, s.value) for s in subset]
            assert oracle_lagrange_at_zero(points, SMALL_TEST_PRIME) != secret

    def test_parameter_errors(self):
        rng = Random(59)
        with pytest.raises(ParameterError):
            ss_split(1, t=5, n=4, rng=rng)
        with pytest.raises(ParameterError):
            ss_split(1, t=0, n=4, rng=rng)
        shares = ss_split(9, t=2, n=3, rng=rng, prime=257)
        with pytest.raises(ParameterError):
            ss_restore([shares[0], shares[0]], t=2, prime=257)

    def test_shamir_invariant_up_to_8(self):
        rng = Random(60)
        key = new_secret_key(rng)
        for n in range(1, 9):
            for t in range(1, n + 1):
                shares = ss_split(key, t, n, rng)
                for subset in itertools.combinations(shares, t):
                    assert ss_restore(subset, t) == key

    def test_restore_inverts_its_denominators_with_one_pow(self, monkeypatch):
        rng = Random(61)
        key = new_secret_key(rng)
        shares = ss_split(key, t=6, n=9, rng=rng)
        pows = []
        monkeypatch.setattr(crypto, "pow", lambda *args: pows.append(args) or pow(*args), raising=False)
        assert ss_restore(shares[3:], t=6) == key
        assert len(pows) == 1

    @given(
        prime=st.sampled_from([SMALL_TEST_PRIME, crypto.DEFAULT_SHARE_PRIME, _N]),
        values=st.lists(st.integers(1, 2**256), max_size=8),
    )
    @settings(max_examples=50, deadline=None)
    def test_batch_inverses_equal_each_pow(self, prime, values):
        values = [v % prime or 1 for v in values]
        assert crypto._inverses(values, prime) == [pow(v, -1, prime) for v in values]
        # a value with no inverse raises what pow raises for it
        with pytest.raises(ValueError):
            crypto._inverses(values + [prime] + values, prime)


class TestOnions:
    def test_single_layer(self):
        rng = Random(71)
        kp = keypair_gen(rng)
        share = Share(index=1, value=12345)
        onion = onion_wrap(share, [kp.pubkey], rng)
        assert onion.layers_remaining == 1
        peeled = onion_peel(onion, kp.privkey)
        assert peeled.layers_remaining == 0
        assert peeled.share() == share

    def test_three_layers_all_orderings(self):
        rng = Random(72)
        kps = [keypair_gen(rng) for _ in range(3)]
        share = Share(index=2, value=777)
        onion = onion_wrap(share, [kp.pubkey for kp in kps], rng)
        correct = (2, 1, 0)  # outermost layer is the last wrap key
        for order in itertools.permutations(range(3)):
            if order == correct:
                peeled = onion
                for i in order:
                    peeled = onion_peel(peeled, kps[i].privkey)
                assert peeled.share() == share
            else:
                peeled = onion
                with pytest.raises(AuthenticationError):
                    for i in order:
                        peeled = onion_peel(peeled, kps[i].privkey)

    @pytest.mark.parametrize("layers", [4, 5])
    def test_deeper_onions_round_trip(self, layers):
        rng = Random(73 + layers)
        kps = [keypair_gen(rng) for _ in range(layers)]
        share = Share(index=3, value=31337)
        onion = onion_wrap(share, [kp.pubkey for kp in kps], rng)
        peeled = onion
        for kp in reversed(kps):
            peeled = onion_peel(peeled, kp.privkey)
        assert peeled.layers_remaining == 0
        assert peeled.share() == share
        # one sampled wrong ordering fails
        wrong_first = kps[0] if layers > 1 else kps[-1]
        with pytest.raises(AuthenticationError):
            onion_peel(onion, wrong_first.privkey)

    def test_unrelated_key_fails(self):
        rng = Random(79)
        kp, stranger = keypair_gen(rng), keypair_gen(rng)
        onion = onion_wrap(Share(1, 5), [kp.pubkey], rng)
        with pytest.raises(AuthenticationError):
            onion_peel(onion, stranger.privkey)

    def test_peel_exhausted_onion(self):
        rng = Random(80)
        kp = keypair_gen(rng)
        peeled = onion_peel(onion_wrap(Share(1, 5), [kp.pubkey], rng), kp.privkey)
        with pytest.raises(OnionStateError):
            onion_peel(peeled, kp.privkey)

    def test_wire_round_trip_carries_no_holders(self):
        rng = Random(81)
        kps = [keypair_gen(rng) for _ in range(2)]
        onion = onion_wrap(Share(4, 9), [kp.pubkey for kp in kps], rng)
        wire = Onion.from_wire(onion.wire_bytes())
        assert wire.layers_remaining == 2
        for kp in reversed(kps):
            wire = onion_peel(wire, kp.privkey)
        assert wire.share() == Share(4, 9)


# The 64 bytes (x + P) || y of a curve point (x, y) with x < 2^256 - P: a
# non-canonical encoding, on the curve only once x is reduced mod P
NONCANONICAL = next(
    (x + _P).to_bytes(32, "big") + y.to_bytes(32, "big")
    for x in itertools.count(1)
    for y in [pow(x**3 + 7, (_P + 1) // 4, _P)]
    if y * y % _P == x**3 + 7
)


class TestInputGuards:
    """Each input guard raises its own error, of its own type."""

    @pytest.mark.parametrize(
        "call, error, message",
        [
            pytest.param(lambda: encode_parts(-1), ParameterError, "cannot encode negative integers", id="encode_parts"),
            pytest.param(lambda: decode_parts(bytes(3)), ParameterError, "truncated field length", id="decode_length"),
            pytest.param(
                lambda: decode_parts(bytes([0, 0, 0, 5]) + b"abcd"), ParameterError, "truncated field body", id="decode_body"
            ),
            pytest.param(
                lambda: recover_signer(bytes(32), bytes(65)), VerificationError, "not a signature value", id="recover_signer"
            ),
            pytest.param(
                lambda: sym_encrypt(bytes(31), b"x", Random(0)),
                ParameterError, "symmetric key must be 32 bytes", id="sym_encrypt_key",
            ),
            pytest.param(
                lambda: sym_decrypt(bytes(33), bytes(29)), ParameterError, "symmetric key must be 32 bytes", id="sym_decrypt_key"
            ),
            pytest.param(
                lambda: sign(bytes(31) + b"\x01", bytes(31)), ParameterError, "digest must be 32 bytes", id="sign_digest"
            ),
            pytest.param(
                lambda: ecies_encrypt(b"\x01" * 63, b"x", Random(0)),
                ParameterError, "pubkey must be 64 bytes", id="ecies_pubkey_size",
            ),
            pytest.param(
                lambda: ecies_encrypt((1).to_bytes(32, "big") * 2, b"x", Random(0)),
                ParameterError, "pubkey not on curve", id="ecies_pubkey_point",
            ),
            pytest.param(
                lambda: ecies_encrypt(NONCANONICAL, b"x", Random(0)),
                ParameterError, "pubkey not on curve", id="ecies_pubkey_noncanonical",
            ),
            pytest.param(
                lambda: onion_wrap(Share(1, 1), [], Random(0)),
                ParameterError, "need at least one wrapping key", id="onion_wrap_keys",
            ),
            pytest.param(
                lambda: ecies_decrypt(bytes(31) + b"\x01", bytes(64 + 27)),
                AuthenticationError, "ciphertext too short", id="ecies_short",
            ),
            pytest.param(
                lambda: ecies_decrypt(bytes(31) + b"\x01", bytes(64 + 28)),
                AuthenticationError, "ephemeral point off curve", id="ecies_point",
            ),
            pytest.param(
                lambda: ecies_decrypt(bytes(31) + b"\x01", NONCANONICAL + bytes(28)),
                AuthenticationError, "ephemeral point off curve", id="ecies_point_noncanonical",
            ),
            pytest.param(lambda: Share.from_bytes(bytes(71)), ParameterError, "share encoding must be 72 bytes", id="share"),
            pytest.param(
                lambda: ss_split(-1, 1, 1, Random(0)), ParameterError, "secret must be non-negative", id="split_secret"
            ),
            pytest.param(
                lambda: ss_split(1, 2, 13, Random(0), prime=13),
                ParameterError, "share count must be below the field size", id="split_count",
            ),
            pytest.param(
                lambda: ss_restore([Share(1, 1)], 0), ParameterError, "threshold must be positive", id="restore_threshold"
            ),
            pytest.param(
                lambda: ss_restore([Share(1, 1, 0), Share(2, 1, 1)], 2),
                ParameterError, "shares mix different splits", id="restore_splits",
            ),
            pytest.param(
                lambda: ss_restore([Share(1, 0, 2**256)], 1),
                ParameterError, "restored secret exceeds 256 bits", id="restore_size",
            ),
            pytest.param(lambda: Onion.from_wire(b""), ParameterError, "empty onion encoding", id="onion_wire"),
            pytest.param(
                lambda: Onion(1, bytes(72)).share(), OnionStateError, "onion still has encrypted layers", id="onion_share"
            ),
        ],
    )
    def test_guard_raises(self, call, error, message):
        with pytest.raises(error, match=re.escape(message)) as info:
            call()
        assert type(info.value) is error

    def test_peel_skips_a_layer_with_a_noncanonical_point(self):
        rng = Random(36)
        kp = keypair_gen(rng)
        onions = [onion_wrap(Share(i, i), [kp.pubkey], rng) for i in (1, 2)]
        onions[0] = Onion(1, NONCANONICAL + onions[0].payload[64:])
        assert peel_with_keys(onions, [kp.privkey]) == {2: Share(2, 2)}

    def test_key_pair_repr_hides_the_scalar(self):
        kp = keypair_from_scalar(0xC0FFEE)
        assert repr(kp) == f"KeyPair(address={kp.address.hex()})"
        assert "c0ffee" not in repr(kp) and "12648430" not in repr(kp)

    @staticmethod
    def _signature_at(k, s):
        """A signature (v, r, s) whose R is k*G."""
        point = keypair_from_scalar(k).pubkey
        return Signature(point[63] & 1, int.from_bytes(point[:32], "big"), s)

    def test_recovery_through_a_doubling(self):
        # z = -s*k makes Q's two summands, -z/r * G and s/r * R, one point
        k, s = 0x1234567, 0x89ABCDEF
        sig = self._signature_at(k, s)
        z = -s * k % _N
        expected = keypair_from_scalar(2 * s * k * pow(sig.r, -1, _N) % _N).address
        assert _recover_address(z.to_bytes(32, "big"), sig) == expected

    def test_recovery_at_infinity_raises(self):
        # s = z/k makes s*R - z*G the point at infinity
        k, z = 0x1234567, 0x42
        sig = self._signature_at(k, z * pow(k, -1, _N) % _N)
        with pytest.raises(VerificationError, match="^recovered point at infinity$"):
            _recover_address(z.to_bytes(32, "big"), sig)


class TestDeterminism:
    def test_module_wide_byte_identity(self):
        def run(seed):
            rng = Random(seed)
            kp = keypair_gen(rng)
            key = new_secret_key(rng)
            shares = ss_split(key, 2, 3, rng)
            onion = onion_wrap(shares[0], [kp.pubkey], rng)
            sig = sign(kp.privkey, hash256(key))
            blob = sym_encrypt(key, b"payload", rng)
            return b"".join(
                [kp.privkey, kp.pubkey, key]
                + [s.to_bytes() for s in shares]
                + [onion.payload, sig.to_bytes(), blob]
            )

        assert run(1234) == run(1234)
        assert run(1234) != run(1235)


# ---------------------------------------------------------------------------
# Reference secp256k1 arithmetic in Jacobian coordinates, written here and
# sharing no code with tidsim, which does its curve arithmetic in OpenSSL:
# doubling and addition (Hankerson, Menezes and Vanstone, Guide to ECC,
# 3.2) and plain right-to-left double-and-add.
# ---------------------------------------------------------------------------

G = (
    0x79BE667EF9DCBBAC55A06295CE870B07029BFCDB2DCE28D959F2815B16F81798,
    0x483ADA7726A3C4655DA4FBFC0E1108A8FD17B448A68554199C47D08FFB10D4B8,
    1,
)
INFINITY = (0, 0, 0)


def jdouble(p):
    x1, y1, z1 = p
    if not y1:
        return INFINITY
    yy = y1 * y1 % _P
    s = 4 * x1 * yy % _P
    m = 3 * x1 * x1 % _P
    x3 = (m * m - 2 * s) % _P
    y3 = (m * (s - x3) - 8 * yy * yy) % _P
    z3 = 2 * y1 * z1 % _P
    return (x3, y3, z3)


def jadd(p, q):
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
            return INFINITY
        return jdouble(p)
    h = (u2 - u1) % _P
    i = 4 * h * h % _P
    j = h * i % _P
    r = 2 * (s2 - s1) % _P
    v = u1 * i % _P
    x3 = (r * r - j - 2 * v) % _P
    y3 = (r * (v - x3) - 2 * s1 * j) % _P
    z3 = 2 * h * z1 * z2 % _P
    return (x3, y3, z3)


def to_bytes(p):
    """The 64 bytes x || y of the Jacobian point p, as tidsim carries points; b"" for infinity."""
    x, y, z = p
    if not z:
        return b""
    zi = pow(z, -1, _P)
    return (x * zi * zi % _P).to_bytes(32, "big") + (y * zi * zi * zi % _P).to_bytes(32, "big")


def point_of(pubkey):
    """The Jacobian point of the 64 bytes x || y, with z = 1."""
    return int.from_bytes(pubkey[:32], "big"), int.from_bytes(pubkey[32:64], "big"), 1


def reference_mul(k, point):
    """k * point by plain right-to-left double-and-add, for k >= 0."""
    acc = INFINITY
    while k:
        if k & 1:
            acc = jadd(acc, point)
        point = jdouble(point)
        k >>= 1
    return acc


def reference_recover(digest, sig):
    """Recovery as three multiplications: Q = r^-1 * (s*R - z*G)."""
    x = sig.r
    y = pow((x * x * x + 7) % _P, (_P + 1) // 4, _P)
    if y & 1 != sig.v:
        y = _P - y
    z = int.from_bytes(digest, "big")
    q = jadd(reference_mul(sig.s, (x, y, 1)), reference_mul((-z) % _N, G))
    return address_of_pubkey(to_bytes(reference_mul(pow(sig.r, -1, _N), q)))


EDGE_SCALARS = [
    0,
    1,
    2,
    15,
    16,
    17,
    31,
    33,
    _N - 2,
    _N - 1,
    _N,
    2**255,
    2**256 - 1,  # one long run of ones
    (2**128 - 1) << 64,
    int("1" * 40 + "0" * 9 + "1" * 60 + "01" * 20, 2),
]
scalars = st.integers(min_value=1, max_value=_N - 1)
# A cube root of unity mod N: LAMBDA * (x, y) = (beta * x, y) for every
# point, the endomorphism that GLV multiplication (Gallant, Lambert and
# Vanstone, CRYPTO 2001) splits a scalar through, k = k1 + LAMBDA * k2.
LAMBDA = 0x5363AD4CC05C30E0A5261C028812645A122E22EA20816678DF02967C1B23BD72
LAMBDA_MULTIPLES = [LAMBDA, _N - LAMBDA, 2 * LAMBDA, 3 * LAMBDA % _N, LAMBDA * LAMBDA % _N, LAMBDA + 1]
# A reduced basis (A1, B1), (A2, B2) of the lattice of (a, b) with
# a + b * LAMBDA = 0 mod N, as in libsecp256k1. Its Babai rounding gives
# halves k1 and k2 below HALF_BOUND in size.
A1, B1 = 0x3086D221A7D46BCDE86C90E49284EB15, -0xE4437ED6010E88286F547FA90ABFE4C3
A2, B2 = 0x114CA50F7A8E2F3F657C1108D9D44CFD8, A1
HALF_BOUND = max(abs(A1) + abs(A2), abs(B1) + abs(B2)) // 2
# Signed WINDOW-bit windows over such a half, the recoding of the pure-Python
# kernel this package once had, cover it in ROWS windows.
WINDOW = 13
HALF = 1 << WINDOW - 1
ROWS = -(-HALF_BOUND.bit_length() // WINDOW)


def from_halves(k1, k2):
    """The scalar k1 + LAMBDA * k2 mod N."""
    return (k1 + LAMBDA * k2) % _N


def from_digits(digits, top=0):
    """The half whose signed WINDOW-bit digits, lowest window first, are `digits`, under a top digit `top`."""
    return sum(d << WINDOW * w for w, d in enumerate(digits)) + (top << WINDOW * (ROWS - 1))


def every_window(d, width):
    """The scalar below 2^253 whose width-bit windows, all but the top one, equal d."""
    return sum(d << width * w for w in range(253 // width))


def corner(s1, s2):
    """The scalar whose halves are (1/2 - 2^-20) * (s1 * (A1, B1) + s2 * (A2, B2)), rounded down: next to a corner of the rounding's domain."""
    k1 = (s1 * A1 + s2 * A2) * (2**19 - 1) >> 20
    k2 = (s1 * B1 + s2 * B2) * (2**19 - 1) >> 20
    return from_halves(k1, k2)


# The edges of the kernel this package once had, kept as scalars whose bit
# patterns stress any multiplication: digits HALF + 1..2^WINDOW - 1 became
# negative and carried into the next window, HALF did not. Each scalar
# repeats one digit in every window of its halves below the top one; the
# corners of the rounding's domain hold its largest halves.
WINDOW_EDGE_SCALARS = [
    *(
        from_halves(s * from_digits([d] * (ROWS - 1)), from_digits([d] * (ROWS - 1), 1))
        for d in (HALF - 1, HALF, HALF + 1)
        for s in (1, -1)
    ),
    *(corner(s1, s2) for s1, s2 in ((1, 1), (-1, 1), (-1, -1), (1, -1))),
]
# The scalars whose halves are (1, 0), (2^127, 0), (-1, 0), (0, 1), (0, -1)
# and (0, 2): one zero half, some negative
SPLIT_EDGE_SCALARS = [1, 2**127, _N - 1, LAMBDA, _N - LAMBDA, 2 * LAMBDA % _N]
# The edges of 11-bit windows over the whole scalar: a top window of 7 with
# a carry, every window 1023, 1024 or 1025, and where its last window met
# the group order.
ELEVEN_BIT_EDGE_SCALARS = [
    7 << 253 | 2047 << 242,
    *(every_window(d, 11) for d in (1023, 1024, 1025)),
    2**253 - 1,
    2**253,
    2**253 + 1,
    _N - 1,
    2**256 - _N - 1,
    2**256 - _N,
    2**256 - _N + 1,
]
BASE_EDGE_SCALARS = list(
    dict.fromkeys(
        [
            1,
            # each power of two up to one window past 2^WINDOW - 1, with its neighbours
            *(k for i in range(4, WINDOW + 1) for k in (2**i - 1, 2**i, 2**i + 1)),
            2**255,
            _N - 16,
            # the edges of 9-bit and 11-bit windows
            *(every_window(d, 9) for d in (1, 64, 65, 127, 255, 256, 257, 511)),
            *ELEVEN_BIT_EDGE_SCALARS,
            *WINDOW_EDGE_SCALARS,
            *SPLIT_EDGE_SCALARS,
        ]
    )
)
# The edges every curve check below runs at: both ends of the scalar range,
# the halfway points and the multiples of LAMBDA
CURVE_EDGE_SCALARS = [1, 2, _N - 1, _N - 2, 2**127, 2**128 - 1, _N // 2, *(k % _N for k in LAMBDA_MULTIPLES)]
# Hypothesis draws small integers often, so half of the scalars are built
# from two halves of either sign
curve_scalars = st.one_of(scalars, st.builds(from_halves, *[st.integers(-(2**127), 2**127)] * 2).filter(bool))
# A point of known scalar, for the variable-base checks
C0FFEE = reference_mul(0xC0FFEE, G)


def in_scope(scoped):
    """A fresh crypto.scope() if scoped, otherwise no scope."""
    return crypto.scope() if scoped else contextlib.nullcontext()


class TestScalarKernel:
    """k * G, a * G + b * P, recovery and ECDH through OpenSSL (crypto._ec)
    against the reference double-and-add above, at edge scalars and
    Hypothesis ones, inside a scope and out. By name: test_wnaf_* and
    test_glv_mult_on_multiples_of_lambda check b * P,
    test_glv_mult_on_jacobian_points a * G + b * P, test_signed_window_*
    and test_base_mult* k * G, and test_keypairs_gen_* k * G a column at a
    time, the edge scalars being those whose bit patterns stress a windowed
    or split multiplication."""

    # a * G + b * P with a zero G term: the variable-base product b * P
    @pytest.mark.parametrize("k", EDGE_SCALARS)
    def test_wnaf_matches_double_and_add_on_edge_scalars(self, k):
        assert _mul_add(0, k % _N, to_bytes(C0FFEE)) == to_bytes(reference_mul(k, C0FFEE))

    @given(k=scalars, base=scalars)
    @settings(max_examples=40, deadline=None)
    def test_wnaf_matches_double_and_add(self, k, base):
        point = reference_mul(base, G)
        assert _mul_add(0, k, to_bytes(point)) == to_bytes(reference_mul(k, point))

    @pytest.mark.parametrize("k", LAMBDA_MULTIPLES)
    def test_glv_mult_on_multiples_of_lambda(self, k):
        assert _mul_add(0, k % _N, to_bytes(C0FFEE)) == to_bytes(reference_mul(k, C0FFEE))

    # a * G + b * P for any a, b and P
    @given(a=st.integers(0, _N - 1), b=st.integers(0, _N - 1), base=scalars)
    @example(a=0, b=1, base=1)
    @example(a=1, b=0, base=1)
    @settings(max_examples=30, deadline=None)
    def test_glv_mult_on_jacobian_points(self, a, b, base):
        point = reference_mul(base, G)
        expected = jadd(reference_mul(a, G), reference_mul(b, point))
        assert _mul_add(a, b, to_bytes(point)) == to_bytes(expected)

    def test_infinity_and_zero_scalars_give_infinity(self):
        for point in (G, C0FFEE):
            assert _mul_add(0, 0, to_bytes(point)) == b""
        assert _mul_add(_N - 0xC0FFEE, 1, to_bytes(C0FFEE)) == b""
        assert _mul_add(_N - 2 * 0xC0FFEE % _N, 2, to_bytes(C0FFEE)) == b""

    @pytest.mark.parametrize("k", BASE_EDGE_SCALARS)
    def test_signed_window_base_mult_on_edge_scalars(self, k):
        assert _base_mul(k) == to_bytes(reference_mul(k, G))

    @given(k=scalars)
    @settings(max_examples=40, deadline=None)
    def test_signed_window_base_mult(self, k):
        assert _base_mul(k) == to_bytes(reference_mul(k, G))

    # a * G + P with a * G = P, and with a * G = -P
    def test_mixed_addition_doubles_and_cancels(self):
        pub = to_bytes(C0FFEE)
        assert _mul_add(0xC0FFEE, 1, pub) == to_bytes(jdouble(C0FFEE))
        assert _mul_add(_N - 0xC0FFEE, 1, pub) == b""

    # an empty column, one point, one short of a column, one column, and
    # one point past one and two columns
    @pytest.mark.parametrize("count", [0, 1, 31, 32, 33, 65])
    @pytest.mark.parametrize("scoped", [False, True], ids=["unscoped", "scoped"])
    def test_keypairs_gen_equals_a_keypair_gen_loop(self, scoped, count):
        loop_rng, column_rng = Random(count), Random(count)
        with in_scope(scoped) as loop_memo:
            expected = [keypair_gen(loop_rng) for _ in range(count)]
        with in_scope(scoped) as column_memo:
            assert keypairs_gen(column_rng, count) == expected
        assert column_rng.getstate() == loop_rng.getstate()
        if scoped:
            assert entries(column_memo) == entries(loop_memo)

    # the work, not the time: the marketplace's 5 + 3 * 400 keys take one
    # EC_POINT_mul each and one EC_POINTs_make_affine per column of 32
    def test_marketplace_keys_take_one_inversion_per_column(self, fresh_ec, monkeypatch):
        calls = collections.Counter()
        real = ctypes.CDLL
        monkeypatch.setattr(ctypes, "CDLL", lambda path: CountedLib(real(path), calls))
        with crypto.scope():
            ScenarioRunner(ScenarioConfig(pool_size=400)).build_marketplace()
        assert calls["EC_POINT_mul"] == 1205
        assert calls["EC_POINTs_make_affine"] == -(-1205 // 32) == 38

    @pytest.mark.parametrize("scoped", [False, True], ids=["unscoped", "scoped"])
    def test_base_mult_at_edge_scalars(self, scoped):
        expected = [to_bytes(reference_mul(k, G)) for k in CURVE_EDGE_SCALARS]
        with in_scope(scoped):
            assert [keypair_from_scalar(k).pubkey for k in CURVE_EDGE_SCALARS] == expected
            # in a scope the key pairs above recorded each k * G
            assert [pubkey_of_privkey(k.to_bytes(32, "big")) for k in CURVE_EDGE_SCALARS] == expected

    @pytest.mark.parametrize("scoped", [False, True], ids=["unscoped", "scoped"])
    @given(k=curve_scalars)
    @settings(max_examples=20, deadline=None)
    def test_base_mult(self, scoped, k):
        with in_scope(scoped):
            assert keypair_from_scalar(k).pubkey == pubkey_of_privkey(k.to_bytes(32, "big")) == to_bytes(reference_mul(k, G))

    @staticmethod
    def recoveries_match(d, digest, scoped):
        """A signature by d over digest recovers d's address, by the reference, by recover_signer and by the arithmetic."""
        with in_scope(scoped):
            kp = keypair_from_scalar(d)
            sig = sign(kp.privkey, digest)
            # in a scope sign recorded its signer and recover_signer reads it back
            assert recover_signer(digest, sig) == reference_recover(digest, sig) == kp.address
            assert _recover_address(digest, sig) == kp.address

    @pytest.mark.parametrize("scoped", [False, True], ids=["unscoped", "scoped"])
    def test_recovery_at_edge_scalars(self, scoped):
        for d in CURVE_EDGE_SCALARS:
            self.recoveries_match(d, hash256(d.to_bytes(32, "big")), scoped)

    # z = 0 mod N for the zero digest and for N itself: the G term is zero
    @given(d=curve_scalars, digest=st.binary(min_size=32, max_size=32))
    @example(d=0xC0FFEE, digest=bytes(32))
    @example(d=0xC0FFEE, digest=_N.to_bytes(32, "big"))
    @example(d=0xC0FFEE, digest=b"\xff" * 32)
    @settings(max_examples=20, deadline=None)
    def test_recovery_matches_three_multiplication_formula(self, d, digest):
        for scoped in (False, True):
            self.recoveries_match(d, digest, scoped)

    @staticmethod
    def ecdh_matches(d, e, scoped):
        """_shared_x(d, e * G) is the x of the reference d * (e * G): a * G + b * P with a zero G term
        outside a scope, (d * e mod N) * G inside one, where e * G was drawn."""
        with in_scope(scoped) as memo:
            pub = keypair_from_scalar(e).pubkey
            assert (memo is not None and memo.scalars[pub] == e) == scoped
            assert crypto._shared_x(d, pub).to_bytes(32, "big") == to_bytes(reference_mul(d, point_of(pub)))[:32]

    @pytest.mark.parametrize("scoped", [False, True], ids=["unscoped", "scoped"])
    def test_ecdh_at_edge_scalars(self, scoped):
        for d in CURVE_EDGE_SCALARS:
            for e in (1, _N - 1, LAMBDA, d):
                self.ecdh_matches(d, e, scoped)

    @pytest.mark.parametrize("scoped", [False, True], ids=["unscoped", "scoped"])
    @given(d=curve_scalars, e=curve_scalars)
    @settings(max_examples=20, deadline=None)
    def test_ecdh(self, scoped, d, e):
        self.ecdh_matches(d, e, scoped)

    @given(
        v=st.integers(min_value=0, max_value=1),
        r=st.integers(min_value=1, max_value=_N - 1),
        s=st.integers(min_value=1, max_value=_N - 1),
    )
    @settings(max_examples=30, deadline=None)
    def test_failed_recovery_is_not_memoized(self, v, r, s):
        digest = hash256(r.to_bytes(32, "big"))
        sig = Signature(v, r, s)
        outcomes = []
        with crypto.scope() as memo:
            for _ in range(2):
                try:
                    outcomes.append(recover_signer(digest, sig))
                except VerificationError as exc:
                    outcomes.append(type(exc))
            assert outcomes[0] == outcomes[1]
            assert ((digest, sig) in memo.signers) == (outcomes[0] is not VerificationError)


@pytest.fixture
def memo():
    """The memo of a fresh crypto.scope() that lasts the whole test."""
    with crypto.scope() as memo:
        yield memo


@pytest.fixture
def kernel_calls(monkeypatch, memo):
    """The (G scalar, point scalar, point) of every a * G + b * P, inside a fresh scope."""
    calls = []
    real = crypto._mul_add

    def counted(a, b, point):
        calls.append((a, b, point))
        return real(a, b, point)

    monkeypatch.setattr(crypto, "_mul_add", counted)
    return calls


def recovery(digest, sig):
    """The a * G + b * P that recovers sig's signer over digest: (-z/r, s/r, R)."""
    x = sig.r
    y = pow((x * x * x + 7) % _P, (_P + 1) // 4, _P)
    if y & 1 != sig.v:
        y = _P - y
    r_inv = pow(sig.r, -1, _N)
    return -int.from_bytes(digest, "big") * r_inv % _N, sig.s * r_inv % _N, to_bytes((x, y, 1))


class TestSignerMemo:
    def test_signatures_from_a_finished_scope_still_recover(self, memo, kernel_calls):
        kp = keypair_gen(Random(41))
        digests = [hash256(i.to_bytes(4, "big")) for i in range(1030)]
        with crypto.scope():
            finished = [(d, sign(kp.privkey, d)) for d in digests[:3]]
        pairs = [(d, sign(kp.privkey, d)) for d in digests[3:]]
        # no bound: every signature of the scope stays recorded, in signing order
        assert list(memo.signers.items()) == [(p, kp.address) for p in pairs]
        assert all(recover_signer(*p) == kp.address for p in pairs)
        assert kernel_calls == []
        for digest, sig in finished:
            assert recover_signer(digest, sig) == kp.address
        assert kernel_calls == [recovery(*p) for p in finished]
        assert len(memo.signers) == len(digests)

    def test_altered_digest_or_twin_gets_the_kernel_answer(self, kernel_calls):
        rng = Random(42)
        for _ in range(10):
            kp, digest = keypair_gen(rng), rng.randbytes(32)
            sig = sign(kp.privkey, digest)
            tampered = bytearray(digest)
            tampered[rng.randrange(32)] ^= 1 + rng.randrange(255)
            tampered = bytes(tampered)
            # (v ^ 1, r, N - s) recovers the same key from -R: still a recovery
            twin = Signature(sig.v ^ 1, sig.r, _N - sig.s)
            for d, s in ((tampered, sig), (digest, twin)):
                before = len(kernel_calls)
                assert recover_signer(d, s) == reference_recover(d, s)
                assert kernel_calls[before:] == [recovery(d, s)]
            assert recover_signer(tampered, sig) != kp.address
            assert recover_signer(digest, twin) == kp.address


@pytest.fixture
def point_mults(monkeypatch, memo):
    """The point of every variable-base multiplication a * G + b * P, inside a fresh scope."""
    calls = []
    real = crypto._mul_add

    def counted(a, b, point):
        calls.append(point)
        return real(a, b, point)

    monkeypatch.setattr(crypto, "_mul_add", counted)
    return calls


def memo_ecdh_matches_kernel(memo, d, e):
    """_shared_x(d, e*G) through memo, the scope's, equals the variable-base and the double-and-add products."""
    pub = keypair_from_scalar(e).pubkey
    assert memo.scalars[pub] == e
    sx = _mul_add(0, d, pub)[:32]
    assert crypto._shared_x(d, pub).to_bytes(32, "big") == sx == to_bytes(reference_mul(d, point_of(pub)))[:32]


HALF_N = (_N - 1) // 2
# (d, e) at the ends of the scalar range and with d*e = +-1 mod N
MEMO_EDGE_PAIRS = [
    (1, 1),
    (1, _N - 1),
    (_N - 1, _N - 1),
    (HALF_N, HALF_N),
    (HALF_N, 2),
    (2, HALF_N + 1),
    (0xC0FFEE, pow(0xC0FFEE, -1, _N)),
    (0xC0FFEE, _N - pow(0xC0FFEE, -1, _N)),
]


class TestScalarMemo:
    @pytest.mark.parametrize("d, e", MEMO_EDGE_PAIRS)
    def test_edge_scalars_take_the_fixed_base_path(self, memo, point_mults, d, e):
        memo_ecdh_matches_kernel(memo, d, e)
        assert point_mults == []

    @given(d=scalars, e=scalars)
    @example(d=HALF_N, e=_N - 1)
    @settings(max_examples=30, deadline=None)
    def test_memo_matches_variable_base_mult(self, d, e):
        with crypto.scope() as memo:
            memo_ecdh_matches_kernel(memo, d, e)

    def test_every_key_is_recorded_in_draw_order(self, memo, point_mults):
        rng = Random(43)
        pairs = [keypair_gen(rng) for _ in range(300)]
        newest = keypair_gen(Random(44))
        pairs.append(newest)
        scalars = [int.from_bytes(kp.privkey, "big") for kp in pairs]
        assert list(memo.scalars.items()) == [(kp.pubkey, k) for kp, k in zip(pairs, scalars)]
        assert list(memo.points.items()) == [(k, kp.pubkey) for kp, k in zip(pairs, scalars)]
        # the memo holds each key pair's own pubkey bytes, not a copy
        assert all(pub is kp.pubkey is memo.points[k] for pub, kp, k in zip(memo.scalars, pairs, scalars))

    def test_pubkey_of_a_recorded_scalar_is_looked_up(self, base_mults):
        kp = keypair_gen(Random(46))
        assert base_mults == [int.from_bytes(kp.privkey, "big")]
        assert pubkey_of_privkey(kp.privkey) == kp.pubkey
        assert len(base_mults) == 1
        # a scalar no key pair of the scope holds is multiplied
        assert pubkey_of_privkey((0xFACADE).to_bytes(32, "big")) == to_bytes(reference_mul(0xFACADE, G))
        assert base_mults[1:] == [0xFACADE]

    def test_unrecorded_or_evicted_point_takes_the_kernel_once(self, memo, point_mults):
        # "evicted": recorded in a scope that has since ended
        rng = Random(45)
        with crypto.scope():
            evicted = keypair_gen(rng)
        foreign_priv = (0xFACADE).to_bytes(32, "big")
        foreign_pub = pubkey_of_privkey(foreign_priv)
        for priv, pub in ((evicted.privkey, evicted.pubkey), (foreign_priv, foreign_pub)):
            assert pub not in memo.scalars
            before = len(point_mults)
            blob = ecies_encrypt(pub, b"share", rng)
            assert point_mults[before:] == [pub]
            # the ephemeral point was drawn here, so opening the layer needs no variable-base multiplication
            assert ecies_decrypt(priv, blob) == b"share"
            assert point_mults[before:] == [pub]
        with crypto.scope():
            before = len(point_mults)
            assert ecies_decrypt(foreign_priv, blob) == b"share"
            assert point_mults[before:] == [blob[:64]]

    def test_ephemeral_point_swapped_for_a_recorded_one_fails(self, memo, point_mults):
        rng = Random(46)
        kp, other = keypair_gen(rng), keypair_gen(rng)
        blob = ecies_encrypt(kp.pubkey, b"share", rng)
        assert ecies_decrypt(kp.privkey, blob) == b"share"
        for swapped in (other.pubkey, kp.pubkey):
            assert swapped in memo.scalars
            with pytest.raises(AuthenticationError):
                ecies_decrypt(kp.privkey, swapped + blob[64:])
        assert point_mults == []

    def test_wrong_key_with_a_recorded_point_fails(self, memo, point_mults):
        rng = Random(47)
        kp, wrong = keypair_gen(rng), keypair_gen(rng)
        blob = ecies_encrypt(kp.pubkey, b"share", rng)
        assert wrong.pubkey in memo.scalars and blob[:64] in memo.scalars
        with pytest.raises(AuthenticationError):
            ecies_decrypt(wrong.privkey, blob)
        onion = onion_wrap(Share(1, 2, 0), [wrong.pubkey, kp.pubkey], rng)
        with pytest.raises(AuthenticationError):
            onion_peel(onion, wrong.privkey)
        assert onion_peel(onion_peel(onion, kp.privkey), wrong.privkey).share() == Share(1, 2, 0)
        assert point_mults == []


@pytest.fixture
def base_mults(memo):
    """Every fixed-base multiplication inside a fresh scope, as counted_base_mults lists them."""
    with counted_base_mults() as calls:
        yield calls


def layer_record(memo, blob):
    """The record ecies_encrypt kept in memo for a layer: its recipient's scalar and ECDH x."""
    return memo.layers[blob[:64] + blob[-16:]]


def entries(memo):
    """Each field of memo as the list of its items, in order, under the field's name."""
    return {f.name: list(getattr(memo, f.name).items()) for f in fields(memo)}


def negation(key):
    return (_N - int.from_bytes(key, "big")).to_bytes(32, "big")


def by_scalar(keys):
    """The mapping ecies_openers takes: each key under its scalar, in order."""
    return {int.from_bytes(key, "big"): key for key in keys}


class Unlisted(dict):
    """A mapping that answers lookups and refuses to list its keys."""

    def __iter__(self):
        raise AssertionError("the keys were listed")

    keys = values = items = __iter__


class TestProductMemo:
    """Each layer's record of its recipient and ECDH product."""

    @given(q=scalars, seed=st.integers(min_value=0, max_value=2**32))
    @example(q=1, seed=0)
    @example(q=_N - 1, seed=0)
    @settings(max_examples=25, deadline=None)
    def test_recorded_ecdh_matches_double_and_add(self, q, seed):
        with crypto.scope() as memo:
            key = keypair_from_scalar(q)
            blob = ecies_encrypt(key.pubkey, b"share", Random(seed))
            expected = int.from_bytes(to_bytes(reference_mul(q, point_of(blob)))[:32], "big")
            assert layer_record(memo, blob) == (q, expected)
            with pytest.MonkeyPatch.context() as mp:
                for kernel in ("_mul_add", "_base_mul"):
                    mp.setattr(crypto, kernel, None)  # a multiplication would raise
                assert ecies_decrypt(key.privkey, blob) == b"share"
                assert ecies_decrypt(negation(key.privkey), blob) == b"share"

    def test_every_layer_is_recorded_in_wrap_order(self, memo, base_mults):
        rng = Random(48)
        keys = [keypair_gen(rng) for _ in range(4)]
        blobs = [ecies_encrypt(keys[i % 4].pubkey, bytes([i % 256]), rng) for i in range(300)]
        assert list(memo.layers) == [blob[:64] + blob[-16:] for blob in blobs]
        recipients = [int.from_bytes(keys[i % 4].privkey, "big") for i in range(300)]
        assert [q for q, _ in memo.layers.values()] == recipients

    def test_wrong_key_outside_the_memo_fails(self, memo, base_mults):
        rng = Random(49)
        kp, wrong = keypair_gen(rng), keypair_gen(rng)
        blob = ecies_encrypt(kp.pubkey, b"share", rng)
        assert layer_record(memo, blob)[0] == int.from_bytes(kp.privkey, "big")
        recorded = entries(memo)
        before = len(base_mults)
        with pytest.raises(AuthenticationError):
            ecies_decrypt(wrong.privkey, blob)
        assert len(base_mults) == before + 1
        # a trial decryption records nothing
        assert entries(memo) == recorded
        before = len(base_mults)
        assert ecies_decrypt(kp.privkey, blob) == b"share"
        assert len(base_mults) == before

    def test_openers_are_the_wrapping_key_then_its_negation(self, base_mults):
        rng = Random(50)
        kp, other = keypair_gen(rng), keypair_gen(rng)
        blob = ecies_encrypt(kp.pubkey, b"share", rng)
        negated = negation(kp.privkey)
        too_big = [(_N + 5).to_bytes(32, "big"), (2**256 - 1).to_bytes(32, "big")]
        keys = [other.privkey, negated, *too_big, kp.privkey]
        assert ecies_openers(blob, by_scalar(keys)) == [kp.privkey, negated]
        # N - d opens the layer too, so it alone is still named
        assert ecies_openers(blob, by_scalar([other.privkey, negated])) == [negated]
        assert ecies_decrypt(negated, blob) == b"share"
        assert ecies_openers(blob, by_scalar([other.privkey])) == []
        assert ecies_openers(blob, {}) == []
        # a layer with no record, or a tampered one, is tried with every key
        foreign = pubkey_of_privkey((0xFACADE).to_bytes(32, "big"))
        tampered = blob[:-1] + bytes([blob[-1] ^ 1])
        for unrecorded in (other.pubkey + blob[64:], foreign + blob[64:], tampered, b""):
            assert ecies_openers(unrecorded, by_scalar(keys)) == keys
        with crypto.scope():
            assert ecies_openers(blob, by_scalar(keys)) == keys

    def test_recorded_layer_is_answered_without_listing_the_keys(self):
        # two lookups name a recorded layer's openers, so a peel costs the
        # same per layer however many keys are on hand
        with crypto.scope():
            rng = Random(51)
            kp, other = keypair_gen(rng), keypair_gen(rng)
            blob = ecies_encrypt(kp.pubkey, b"share", rng)
            negated = negation(kp.privkey)
            keys = Unlisted(by_scalar([other.privkey, negated, (_N + 5).to_bytes(32, "big"), kp.privkey]))
            assert ecies_openers(blob, keys) == [kp.privkey, negated]
            assert ecies_openers(blob, Unlisted(by_scalar([other.privkey]))) == []

    def test_layers_sharing_an_ephemeral_point_keep_their_own_records(self, monkeypatch, base_mults):
        # equal rng states draw the same ephemeral key for both recipients
        rng = Random(55)
        a, b = keypair_gen(rng), keypair_gen(rng)
        onions = [onion_wrap(Share(i, i), [kp.pubkey], Random(56)) for i, kp in ((1, a), (2, b))]
        assert onions[0].payload[:64] == onions[1].payload[:64]
        calls = []
        real = crypto.ecies_decrypt

        def counted(privkey, blob):
            calls.append((privkey, blob))
            return real(privkey, blob)

        monkeypatch.setattr(crypto, "ecies_decrypt", counted)
        shares = peel_with_keys(onions, [a.privkey, b.privkey])
        assert shares == {1: Share(1, 1), 2: Share(2, 2)}
        assert calls == [(a.privkey, onions[0].payload), (b.privkey, onions[1].payload)]


# the work a memo saves: both kinds of multiplication, and cached_parts' runs
COSTS = ("_base_mul", "_mul_add", "decode_parts")


def costed(work):
    """work()'s result and how many calls it made to each of COSTS, by name."""
    counts = collections.Counter()
    with pytest.MonkeyPatch.context() as mp:
        for name in COSTS:

            def counted(*args, name=name, real=getattr(crypto, name)):
                counts[name] += 1
                return real(*args)

            mp.setattr(crypto, name, counted)
        return work(), counts


# a scope_cache entry point that looks decode_parts up on each run, so costed() counts its runs
cached_parts = crypto.scope_cache(lambda data: crypto.decode_parts(data))


def primitives(seed):
    """Keys, a layer, a signature made twice, two onions and a cached
    decoding from one seed, with what opening, recovering and peeling them
    returns and the rng's final state: every entry point that records."""
    rng = Random(seed)
    a, b = keypair_gen(rng), keypair_gen(rng)
    blob = ecies_encrypt(b.pubkey, b"share", rng)
    digest = hash256(seed.to_bytes(4, "big"))
    sig = sign(a.privkey, digest)
    assert sign(a.privkey, digest) == sig
    onions = [onion_wrap(Share(i, i), keys, rng) for i, keys in ((1, [a.pubkey, b.pubkey]), (2, [b.pubkey, a.pubkey]))]
    peeled = peel_with_keys(onions, [b.privkey, a.privkey])
    opened = ecies_decrypt(b.privkey, blob)
    parts = cached_parts(encode_parts(blob, digest))
    return a, b, blob, opened, sig, recover_signer(digest, sig), onions, peeled, parts, rng.getstate()


def records_into(memo, seed):
    """Whether a key drawn now from seed is recorded in memo, that is, whether memo is in place."""
    kp = keypair_gen(Random(seed))
    return memo.scalars.get(kp.pubkey) == int.from_bytes(kp.privkey, "big")


def held_by(memo):
    """Every key and value of every field of memo, by id, with a dict value's
    entries in place of the dict; the functions that key scope_cache's
    results are module-level and outlive any scope, so they are left out."""
    held = {}
    todo = [getattr(memo, f.name) for f in fields(memo)]
    while todo:
        for key, value in todo.pop().items():
            for obj in (key, value):
                if isinstance(obj, dict):
                    todo.append(obj)
                elif not callable(obj):
                    held[id(obj)] = obj
    return held


def parts_of(obj):
    """The objects obj refers to itself: a tuple's or list's items, an instance's attributes."""
    if isinstance(obj, (tuple, list)):
        return obj
    return vars(obj).values() if hasattr(obj, "__dict__") else ()


def refcounts(objs):
    """sys.getrefcount of each value of the dict objs, under its key."""
    return {key: sys.getrefcount(objs[key]) for key in objs}


class TestScope:
    def test_outside_a_scope_nothing_is_recorded(self):
        with crypto.scope() as memo:
            scoped = primitives(57)
            assert all(entries(memo).values())
        # outside a scope every call pays in full: a repeat costs what the first one did
        unscoped = costed(lambda: primitives(57))
        assert unscoped[0] == scoped
        assert all(unscoped[1][name] for name in COSTS)
        assert costed(lambda: primitives(57)) == unscoped

    def test_scope_yields_the_memo_it_installs(self):
        with crypto.scope() as memo:
            assert records_into(memo, 62)
            primitives(62)
            held = weakref.ref(memo)
            del memo
        gc.collect()
        # the finished block's memo went with it
        assert held() is None

    def test_nested_scope_restores_the_outer_memos(self):
        with crypto.scope() as outer:
            primitives(58)
            for seed, raises in ((59, False), (60, True)):
                before = entries(outer)
                with pytest.raises(ZeroDivisionError) if raises else contextlib.nullcontext():
                    with crypto.scope() as inner:
                        # a nested block gets a fresh memo
                        assert inner is not outer and not any(entries(inner).values())
                        assert records_into(inner, seed)
                        primitives(seed)
                        held = weakref.ref(inner)
                        del inner
                        if raises:
                            1 / 0
                # whether the block returned or raised, the outer memo is back
                # in place as the block found it, and the block's memo is freed
                assert entries(outer) == before
                assert records_into(outer, seed + 100)
                gc.collect()
                assert held() is None

    @pytest.mark.parametrize("scoped", [False, True], ids=["unscoped", "scoped"])
    def test_runs_leave_the_memos_as_they_found_them(self, scoped):
        with crypto.scope() if scoped else contextlib.nullcontext() as memo:
            primitives(60)
            before = entries(memo) if scoped else None
            assert run_scenario(ScenarioConfig()).status == "delivered_light"
            assert run_bribery(ScenarioConfig(), 0).shares_obtained == 0
            if scoped:
                assert entries(memo) == before
                assert records_into(memo, 67)
            else:
                # still outside any scope: a repeat costs what the first one did
                first = costed(lambda: primitives(60))
                assert costed(lambda: primitives(60)) == first

    # outside any scope all five fields are one dict, so a write that any way
    # of storing kept would be read back through every field
    @pytest.mark.parametrize(
        "write",
        [
            lambda d: d.__setitem__(1, (2, 3)),
            lambda d: d.update({1: (2, 3)}),
            lambda d: d.update([(1, (2, 3))], x=(2, 3)),
            lambda d: d.setdefault(1, (2, 3)),
            lambda d: operator.ior(d, {1: (2, 3)}),
        ],
        ids=["setitem", "update", "update_pairs", "setdefault", "ior"],
    )
    def test_unscoped_memo_drops_every_write(self, write):
        unscoped = crypto._memo
        try:
            for f in fields(unscoped):
                write(getattr(unscoped, f.name))
                assert not any(entries(unscoped).values())
                assert not records_into(unscoped, 63)
        finally:
            for f in fields(unscoped):
                dict.clear(getattr(unscoped, f.name))

    def test_finished_scope_frees_its_entries(self):
        with crypto.scope() as memo:
            primitives(61)
            held = held_by(memo)
        del memo
        assert len(held) > 10
        gc.collect()
        # an entry nothing else holds has the reference count of a fresh
        # object, plus one for each entry that refers to it
        inner = collections.Counter(id(part) for obj in held.values() for part in parts_of(obj))
        (fresh,) = refcounts({0: bytes(range(40))}).values()
        assert {i: count - inner[i] for i, count in refcounts(held).items()} == dict.fromkeys(held, fresh)

    def test_scope_cache_runs_once_per_arguments_in_a_scope(self):
        calls = []

        @crypto.scope_cache
        def share(index, value):
            calls.append(index)
            if value < 0:
                raise ParameterError("negative")
            return Share(index, value)

        assert share(1, 5) == share(1, 5) == Share(1, 5)
        assert calls == [1, 1]
        calls.clear()
        with crypto.scope():
            first = share(1, 5)
            assert share(2, 5) == Share(2, 5)
            assert share(1, 5) is first
            for _ in range(2):
                with pytest.raises(ParameterError):
                    share(3, -1)
            with crypto.scope():
                assert share(1, 5) is not first
            assert share(1, 5) is first
            held = weakref.ref(first)
            del first
            gc.collect()
            assert held() is not None
        assert calls == [1, 2, 3, 3, 1]
        # the scope's results went with it
        gc.collect()
        assert held() is None
        share(1, 5)
        assert calls[-1] == 1


class TestOpenSslOracle:
    """tidsim's secp256k1 against a second binding of OpenSSL's, through
    `cryptography` (a test extra), which shares no code with crypto._ec or
    with reference_mul: k * G, signing, recovery, ECDH and an ECIES layer."""

    @pytest.fixture(scope="class", autouse=True)
    def needs_cryptography(self):
        pytest.importorskip("cryptography")

    @staticmethod
    def key(k):
        from cryptography.hazmat.primitives.asymmetric import ec

        return ec.derive_private_key(k, ec.SECP256K1())

    @staticmethod
    def pubkey(key):
        """The 64-byte x || y of an OpenSSL key, as KeyPair.pubkey holds it."""
        from cryptography.hazmat.primitives.serialization import Encoding, PublicFormat

        return key.public_key().public_bytes(Encoding.X962, PublicFormat.UncompressedPoint)[1:]

    @staticmethod
    def verifies(key, digest, sig):
        from cryptography.exceptions import InvalidSignature
        from cryptography.hazmat.primitives.asymmetric import ec, utils
        from cryptography.hazmat.primitives.hashes import SHA256

        der = utils.encode_dss_signature(sig.r, sig.s)
        try:
            key.public_key().verify(der, digest, ec.ECDSA(utils.Prehashed(SHA256())))
        except InvalidSignature:
            return False
        return True

    # k * G where one GLV half is zero (1, 2, 2^127, the multiples of
    # LAMBDA), where every signed window carries or both halves are at their
    # largest, and at both ends of the scalar range
    @pytest.mark.parametrize("scoped", [False, True], ids=["unscoped", "scoped"])
    def test_single_base_mult_at_the_split_edges(self, scoped):
        ks = SPLIT_EDGE_SCALARS + WINDOW_EDGE_SCALARS + [2, _N - 2, 2**128 - 1, _N // 2]
        expected = [self.pubkey(self.key(k)) for k in ks]
        with crypto.scope() if scoped else contextlib.nullcontext():
            assert [keypair_from_scalar(k).pubkey for k in ks] == expected
            assert [pubkey_of_privkey(k.to_bytes(32, "big")) for k in ks] == expected

    # Hypothesis draws small integers often, so half of the scalars are
    # built from two GLV halves of either sign
    @given(k=st.one_of(scalars, st.builds(from_halves, *[st.integers(-(2**127), 2**127)] * 2).filter(bool)))
    @settings(max_examples=30, deadline=None)
    def test_single_base_mult(self, k):
        assert keypair_from_scalar(k).pubkey == self.pubkey(self.key(k))

    # two full columns and one point
    def test_keypairs_gen(self):
        kps = keypairs_gen(Random(35), 65)
        assert [kp.pubkey for kp in kps] == [self.pubkey(self.key(int.from_bytes(kp.privkey, "big"))) for kp in kps]

    def test_sign_verifies(self):
        rng = Random(31)
        keys = [self.key(rng.randrange(1, _N)) for _ in range(8)]
        pairs = [(key, rng.randbytes(32)) for key in keys for _ in range(5)]
        wire = [(key.private_numbers().private_value.to_bytes(32, "big"), digest) for key, digest in pairs]
        signed = [sign(privkey, digest) for privkey, digest in wire]
        for (key, digest), sig in zip(pairs, signed):
            assert self.verifies(key, digest, sig)
        # a changed digest fails, so the check above is not vacuous
        assert not self.verifies(pairs[0][0], bytes(32), signed[0])

    def test_recover_signer_names_the_openssl_key(self):
        from cryptography.hazmat.primitives.asymmetric import ec, utils
        from cryptography.hazmat.primitives.hashes import SHA256

        rng = Random(32)
        for _ in range(10):
            key = self.key(rng.randrange(1, _N))
            privkey = key.private_numbers().private_value.to_bytes(32, "big")
            address = address_of_pubkey(self.pubkey(key))
            digest = rng.randbytes(32)
            # outside a scope the signer is recovered by the curve arithmetic
            assert recover_signer(digest, sign(privkey, digest)) == address
            # OpenSSL's own signature, whose recovery id it does not give:
            # one parity recovers the key, the other a different one
            r, s = utils.decode_dss_signature(key.sign(digest, ec.ECDSA(utils.Prehashed(SHA256()))))
            recovered = [recover_signer(digest, Signature(v, r, s)) for v in (0, 1)]
            assert recovered.count(address) == 1

    def test_shared_x_equals_ecdh(self):
        from cryptography.hazmat.primitives.asymmetric import ec

        rng = Random(33)
        for _ in range(12):
            d, e = rng.randrange(1, _N), rng.randrange(1, _N)
            peer = self.key(e)
            point = self.pubkey(peer)
            expected = int.from_bytes(self.key(d).exchange(ec.ECDH(), peer.public_key()), "big")
            # a foreign point: the variable-base multiplication
            assert crypto._shared_x(d, point) == expected
            # a point whose scalar this scope drew: one fixed-base k * G
            with crypto.scope() as memo:
                keypair_from_scalar(e)
                assert memo.scalars[point] == e
                assert crypto._shared_x(d, point) == expected

    # the layer is ephemeral point (64) || nonce (12) || ciphertext and tag,
    # under the AES key SHA3-256(x of the ECDH point)
    @pytest.mark.parametrize("scoped", [False, True], ids=["unscoped", "scoped"])
    def test_ecies_layer_opens_with_openssl_ecdh(self, scoped):
        from cryptography.hazmat.primitives.asymmetric import ec
        from cryptography.hazmat.primitives.ciphers.aead import AESGCM

        rng = Random(34)
        for size in (0, 1, 77, 300):
            q = rng.randrange(1, _N)
            key = self.key(q)
            plaintext = rng.randbytes(size)
            with crypto.scope() if scoped else contextlib.nullcontext():
                if scoped:
                    keypair_from_scalar(q)  # the recipient's scalar is known: e * Q is (e * q) * G
                blob = ecies_encrypt(self.pubkey(key), plaintext, rng)
            ephemeral = ec.EllipticCurvePublicKey.from_encoded_point(ec.SECP256K1(), b"\x04" + blob[:64])
            aes_key = hashlib.sha3_256(key.exchange(ec.ECDH(), ephemeral)).digest()
            assert AESGCM(aes_key).decrypt(blob[64:76], blob[76:], None) == plaintext
