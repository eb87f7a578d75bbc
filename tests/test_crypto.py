"""Crypto kernel tests.

The Shamir checks are validated against an independent brute-force Lagrange
oracle written here in the test module, not against the library's own
interpolation path.
"""

import collections
import contextlib
import ctypes
import functools
import gc
import hashlib
import itertools
import operator
import re
import sys
import tracemalloc
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
    _GX,
    _GY,
    _HALF,
    _MASK,
    _N,
    _P,
    _WINDOW,
    _affine_sums,
    _base_mul_batch,
    _base_mul_tree,
    _base_table,
    _jadd,
    _jadd_affine,
    _jdouble,
    _jmul,
    _jmul_base,
    _recover_address,
    _to_affine,
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
    onions_wrap,
    presign,
    pubkey_of_privkey,
    recover_signer,
    sign,
    signed_by,
    ss_restore,
    ss_split,
    sym_decrypt,
    sym_encrypt,
)
from tidsim.scenario import ScenarioConfig, run_scenario

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
    """Every fixed-base multiplication while the block runs: a single k*G as k, a batch as its list of keys."""
    calls = []
    real_base, real_batch = crypto._jmul_base, crypto._base_mul_batch

    def base(k):
        calls.append(k)
        return real_base(k)

    def batch(ks):
        calls.append(list(ks))
        return real_batch(ks)

    crypto._jmul_base, crypto._base_mul_batch = base, batch
    try:
        yield calls
    finally:
        crypto._jmul_base, crypto._base_mul_batch = real_base, real_batch


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

    @given(
        seeds=st.lists(st.integers(0, 2**32), min_size=1, max_size=3),
        digests=st.lists(st.binary(min_size=32, max_size=32), max_size=5),
    )
    @settings(max_examples=30, deadline=None)
    def test_presign_then_sign_equals_sign(self, seeds, digests):
        keys = [keypair_gen(Random(seed)) for seed in seeds]
        # every key with every digest, each pair twice: duplicates are fine
        pairs = [(kp.privkey, d) for kp in keys for d in digests] * 2
        signers = [kp.address for kp in keys for _ in digests] * 2
        expected = [sign(*pair) for pair in pairs]
        with counted_base_mults() as mults:
            # outside a scope it multiplies nothing and records nothing, so
            # sign still makes each signature from its own k * G
            presign(pairs)
            assert mults == []
            if pairs:
                sign(*pairs[0])
                assert crypto._nonce(*pairs[0], 0) in mults
            with crypto.scope() as memo:
                # keys drawn in the scope: sign names its signer by lookup
                assert [keypair_gen(Random(seed)) for seed in seeds] == keys
                mults.clear()
                presign(pairs)
                assert mults == [[crypto._nonce(*pair, 0) for pair in dict.fromkeys(pairs)]]
                sigs = [sign(*pair) for pair in pairs]
                assert len(mults) == 1
                assert [memo.signers[d, sig] for (_, d), sig in zip(pairs, sigs)] == signers
        assert sigs == expected
        assert [_recover_address(d, sig) for (_, d), sig in zip(pairs, sigs)] == signers

    def test_presign_leaves_a_redrawn_nonce_to_sign(self, monkeypatch):
        # a first nonce of 0 is redrawn by sign, as one whose R has x >= N is
        real = crypto._nonce

        def nonce(privkey, digest, counter):
            return 0 if counter == 0 and digest[0] % 2 == 0 else real(privkey, digest, counter)

        monkeypatch.setattr(crypto, "_nonce", nonce)
        kp = keypair_gen(Random(9))
        digests = [bytes([i]) + hash256(bytes([i]))[1:] for i in range(6)]
        pairs = [(kp.privkey, d) for d in digests]
        expected = [sign(*pair) for pair in pairs]
        with crypto.scope() as memo:
            presign(pairs)
            assert list(memo.signatures) == pairs[1::2]
            sigs = [sign(*pair) for pair in pairs]
        assert sigs == expected
        assert all(_recover_address(d, sig) == kp.address for d, sig in zip(digests, sigs))
        # the redrawn ones are not the signatures of a first nonce
        monkeypatch.setattr(crypto, "_nonce", real)
        first = [sign(*pair) for pair in pairs]
        assert [sig == first_sig for sig, first_sig in zip(sigs, first)] == [False, True] * 3
        # nor does presign keep a first nonce whose R has x >= N
        monkeypatch.setattr(crypto, "_base_mul_batch", lambda ks: [(_N, 0)] * len(ks))
        with crypto.scope() as memo:
            presign(pairs)
            assert memo.signatures == {}
            assert [sign(*pair) for pair in pairs] == first

    def test_presign_skips_what_sign_rejects(self):
        kp = keypair_gen(Random(10))
        digest = hash256(b"a")
        rejected = [(kp.privkey, digest[:31]), (bytes(32), digest), (_N.to_bytes(32, "big"), digest)]
        errors = []
        for privkey, d in rejected:
            with pytest.raises(ParameterError) as exc:
                sign(privkey, d)
            errors.append(str(exc.value))
        with crypto.scope() as memo:
            presign([])
            presign(rejected + [(kp.privkey, digest)])
            assert list(memo.signatures) == [(kp.privkey, digest)]
            for (privkey, d), error in zip(rejected, errors):
                with pytest.raises(ParameterError, match=f"^{re.escape(error)}$"):
                    sign(privkey, d)
            assert list(memo.signatures) == [(kp.privkey, digest)]


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
    """A cleared _gcm cache before and after the test, so the next seal or
    open binds OpenSSL again."""
    crypto._gcm.cache_clear()
    yield
    crypto._gcm.cache_clear()


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
                lambda: ecies_decrypt(bytes(31) + b"\x01", bytes(64 + 27)),
                AuthenticationError, "ciphertext too short", id="ecies_short",
            ),
            pytest.param(
                lambda: ecies_decrypt(bytes(31) + b"\x01", bytes(64 + 28)),
                AuthenticationError, "ephemeral point off curve", id="ecies_point",
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


G = (_GX, _GY, 1)


def reference_mul(k, point):
    """Plain right-to-left double-and-add, an oracle independent of _jmul's
    left-to-right loop and of every table."""
    acc = (0, 0, 0)
    while k:
        if k & 1:
            acc = _jadd(acc, point)
        point = _jdouble(point)
        k >>= 1
    return acc


# The largest size of a half of _split, and the rows of _base_table that cover it
HALF_BOUND = max(abs(crypto._A1) + abs(crypto._A2), abs(crypto._B1) + abs(crypto._B2)) // 2
ROWS = -(-HALF_BOUND.bit_length() // _WINDOW)


def signed_digits(h):
    """The signed _WINDOW-bit digits of a half's size h, lowest window first, as the kernels recode it: one per table row."""
    digits = []
    for _ in range(ROWS):
        d = h & _MASK
        h >>= _WINDOW
        if d > _HALF:
            d -= 1 << _WINDOW
            h += 1
        digits.append(d)
    assert not h
    return digits


# The recoding is monotone in h, so the largest half has the largest top digit
TOP = signed_digits(HALF_BOUND)[-1]


def reference_base_table_bytes():
    """The bytes of crypto's base table file, built from G.

    One doubling chain from G passes through each row's powers of two
    2^i * B, B = 2^(_WINDOW * w) * G, and _to_affine makes each of them
    affine. Every other slot d = 2^m + e, 0 < e < 2^m, is e * B + 2^m * B,
    with one _affine_sums per bit length m across all rows, so both summands
    are built before the sum. The summands' x differ: equal x needs
    (2^m -+ e) * 2^(_WINDOW * w) = 0 mod N, and N is a prime that divides
    neither factor. Rows hold d = 1.._HALF, except the top one, which holds
    d = 1..TOP, the top digit of the largest half of _split. With 13-bit
    windows that is 9 rows of 4,096 points and a top row of 1,301, 38,165
    points in all. Each point is written as x || y, 32-byte big-endian, row
    by row, so a 64-byte slot read as one integer is the x * 2^256 + y that
    _base_table keeps.

    If _WINDOW or _split's basis ever changes, rewrite the file from the
    repository root with
        PYTHONPATH=src:tests python -c 'import hashlib, test_crypto as t;
        data = t.reference_base_table_bytes();
        open("src/tidsim/secp256k1_base_table.bin", "wb").write(data);
        print(hashlib.sha256(data).hexdigest())'
    and set crypto._BASE_TABLE_SHA256 to the hash it prints.
    """
    table = [[None] * _HALF for _ in range(ROWS - 1)] + [[None] * TOP]
    chain = [G]
    for _ in range(_WINDOW * ROWS - 1):
        chain.append(_jdouble(chain[-1]))
    powers = [_to_affine(p) for p in chain]
    for w, row in enumerate(table):
        for i in range(len(row).bit_length()):
            row[(1 << i) - 1] = powers[_WINDOW * w + i]
    for m in range(1, _WINDOW - 1):
        low = 1 << m
        wanted = [(w, d) for w, row in enumerate(table) for d in range(low + 1, min(2 * low, len(row) + 1))]
        summands = [(table[w][d - low - 1], table[w][low - 1]) for w, d in wanted]
        for (w, d), point in zip(wanted, sums_of(summands)):
            table[w][d - 1] = point
    return b"".join(x.to_bytes(32, "big") + y.to_bytes(32, "big") for row in table for x, y in row)


def sums_of(pairs):
    """P + Q for each pair (P, Q) of affine points, through _affine_sums' coordinate lists."""
    xs, ys = _affine_sums(
        [p[0] for p, _ in pairs], [p[1] for p, _ in pairs], [q[0] for _, q in pairs], [q[1] for _, q in pairs]
    )
    return list(zip(xs, ys))


def reference_recover(digest, sig):
    """Recovery as three multiplications: Q = r^-1 * (s*R - z*G)."""
    x = sig.r
    y = pow((x * x * x + 7) % _P, (_P + 1) // 4, _P)
    if y & 1 != sig.v:
        y = _P - y
    z = int.from_bytes(digest, "big")
    q = _jadd(reference_mul(sig.s, (x, y, 1)), reference_mul((-z) % _N, G))
    qx, qy = _to_affine(reference_mul(pow(sig.r, -1, _N), q))
    return address_of_pubkey(qx.to_bytes(32, "big") + qy.to_bytes(32, "big"))


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
# A cube root of unity mod N: _split writes each k as k1 + LAMBDA * k2. Its
# multiples were also the special cases of an earlier variable-base kernel.
LAMBDA = 0x5363AD4CC05C30E0A5261C028812645A122E22EA20816678DF02967C1B23BD72


def from_halves(k1, k2):
    """The scalar k1 + LAMBDA * k2 mod N, whose _split is (k1, k2) when the pair lies in _split's domain."""
    return (k1 + LAMBDA * k2) % _N


def from_digits(digits, top=0):
    """The half whose signed _WINDOW-bit digits, lowest window first, are `digits`, under a top digit `top`."""
    return sum(d << _WINDOW * w for w, d in enumerate(digits)) + (top << _WINDOW * (ROWS - 1))


def every_window(d, width):
    """The scalar below 2^253 whose width-bit windows, all but the top one, equal d."""
    return sum(d << width * w for w in range(253 // width))


def corner(s1, s2):
    """The scalar whose halves are (1/2 - 2^-20) * (s1 * (a1, b1) + s2 * (a2, b2)), rounded down: next to a corner of _split's domain."""
    k1 = (s1 * crypto._A1 + s2 * crypto._A2) * (2**19 - 1) >> 20
    k2 = (s1 * crypto._B1 + s2 * crypto._B2) * (2**19 - 1) >> 20
    return from_halves(k1, k2)


# Halves below 2^126 in size always come back from _split: the square they
# fill lies inside its domain. So a scalar built from two such halves
# reaches the kernels with the digits it was built from.
SMALL_TOP = 511
# k1 * 2^13 and k2 * 2^13, or both * 2^26: the lowest one or two windows of
# each half are zero
low_windows_zero = (
    st.sampled_from([_WINDOW, 2 * _WINDOW])
    .flatmap(
        lambda shift: st.builds(
            lambda k1, k2: from_halves(k1 << shift, k2 << shift),
            *[st.integers(1 - 2 ** (126 - shift), 2 ** (126 - shift) - 1)] * 2,
        )
    )
    .filter(bool)
)
# Halves by their signed digits, each in -4095..4096 as the kernels recode
# them: any window below the top may be zero, so a half has any number of
# table points to sum, odd or even, or none, and the top digit is
# 0..SMALL_TOP.
small_halves = st.builds(
    lambda digits, top, sign: sign * from_digits(digits, top),
    st.lists(st.one_of(st.just(0), st.integers(1 - _HALF, _HALF)), min_size=ROWS - 1, max_size=ROWS - 1),
    st.integers(0, SMALL_TOP),
    st.sampled_from([1, -1]),
)
digit_scalars = st.builds(from_halves, small_halves, small_halves).filter(bool)
# Digits _HALF + 1.._MASK become negative and carry into the next window;
# _HALF does not. Each scalar repeats one digit in every window of its
# halves below the top one; the corners of _split's domain hold its largest
# halves, and the first of them the top row's largest digit, TOP.
WINDOW_EDGE_SCALARS = [
    *(
        from_halves(s * from_digits([d] * (ROWS - 1)), from_digits([d] * (ROWS - 1), 1))
        for d in (_HALF - 1, _HALF, _HALF + 1)
        for s in (1, -1)
    ),
    *(corner(s1, s2) for s1, s2 in ((1, 1), (-1, 1), (-1, -1), (1, -1))),
]
# The scalars whose halves are exactly (1, 0), (2^127, 0), (-1, 0), (0, 1),
# (0, -1) and (0, 2): one zero half, some negative
SPLIT_EDGE_SCALARS = [1, 2**127, _N - 1, LAMBDA, _N - LAMBDA, 2 * LAMBDA % _N]
DIGIT_EDGE_SCALARS = [
    from_halves(from_digits([1] * (ROWS - 2) + [0], 3), 0),  # a zero in window 8 alone; a zero half
    from_halves(from_digits([0] * (ROWS - 2) + [1]), -1),  # window 8's point alone; a negative half
    from_halves(0, -from_digits([0] * (ROWS - 1), 5)),  # the top digit alone, negative
    from_halves(from_digits([-1] * (ROWS - 1), SMALL_TOP), from_digits([_HALF] * (ROWS - 1), SMALL_TOP)),
    from_halves(from_digits([_HALF, 0] * 4 + [_HALF]), from_digits([0, 1 - _HALF] * 4 + [7], 2)),  # 5 points each
]
# The edges of the 11-bit windows over the whole scalar, the recoding before
# the halves: a top window of 7 with a carry, every window 1023, 1024 or
# 1025, and where its last window met the group order.
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
            # each power of two up to one window past _MASK, with its neighbours
            *(k for i in range(4, _WINDOW + 1) for k in (2**i - 1, 2**i, 2**i + 1)),
            2**255,
            _N - 16,
            # the edges of 9-bit and 11-bit windows, the widths before 13-bit halves
            *(every_window(d, 9) for d in (1, 64, 65, 127, 255, 256, 257, 511)),
            *ELEVEN_BIT_EDGE_SCALARS,
            *WINDOW_EDGE_SCALARS,
            *SPLIT_EDGE_SCALARS,
        ]
    )
)

def unpack(slot):
    """The affine point (x, y) that a base-table slot x * 2^256 + y holds."""
    return divmod(slot, 2**256)


class TestScalarKernel:
    # The two tests below keep the names they had when _jmul walked the wNAF
    # of k; they check its plain double-and-add against the reference now.
    @pytest.mark.parametrize("k", EDGE_SCALARS)
    def test_wnaf_matches_double_and_add_on_edge_scalars(self, k):
        point = _jmul_base(0xC0FFEE)
        assert _to_affine(_jmul(k, point)) == _to_affine(reference_mul(k, point))

    @given(k=scalars, base=scalars)
    @settings(max_examples=40, deadline=None)
    def test_wnaf_matches_double_and_add(self, k, base):
        point = (*_to_affine(_jmul_base(base)), 1)
        assert _to_affine(_jmul(k, point)) == _to_affine(reference_mul(k, point))

    # The two tests below keep the names they had when _jmul split k through
    # the GLV endomorphism; they check plain double-and-add against the
    # reference now.
    @pytest.mark.parametrize(
        "k", [LAMBDA, _N - LAMBDA, 2 * LAMBDA, 3 * LAMBDA % _N, LAMBDA * LAMBDA % _N, LAMBDA + 1]
    )
    def test_glv_mult_on_multiples_of_lambda(self, k):
        x, y = _to_affine(_jmul_base(0xC0FFEE))
        z = 0xBEEF
        for point in [(x, y, 1), (x * z * z % _P, y * z * z * z % _P, z)]:
            assert _to_affine(_jmul(k, point)) == _to_affine(reference_mul(k, point))

    @given(k=scalars, base=scalars, z=st.integers(min_value=2, max_value=_P - 1))
    @settings(max_examples=30, deadline=None)
    def test_glv_mult_on_jacobian_points(self, k, base, z):
        x, y = _to_affine(_jmul_base(base))
        point = (x * z * z % _P, y * z * z * z % _P, z)
        assert _to_affine(_jmul(k, point)) == _to_affine(reference_mul(k, (x, y, 1)))

    def test_infinity_and_zero_scalars_give_infinity(self):
        x, y = _to_affine(_jmul_base(0xC0FFEE))
        z = 0xBEEF
        point = (x * z * z % _P, y * z * z * z % _P, z)
        for k in (0, _N, 2 * _N, -_N):
            assert _jmul(k, point) == (0, 0, 0)
        for k in (1, 0xD15EA5E, _N - 1):
            assert _jmul(k, (0, 0, 0)) == (0, 0, 0)
            assert _jmul(k, (1, 1, 0)) == (0, 0, 0)

    @pytest.mark.parametrize("k", BASE_EDGE_SCALARS)
    def test_signed_window_base_mult_on_edge_scalars(self, k):
        assert _to_affine(_jmul_base(k)) == _to_affine(reference_mul(k, G))

    @given(k=scalars)
    @settings(max_examples=40, deadline=None)
    def test_signed_window_base_mult(self, k):
        assert _to_affine(_jmul_base(k)) == _to_affine(reference_mul(k, G))

    def test_mixed_addition_doubles_and_cancels(self):
        x, y = _to_affine(_jmul_base(0xC0FFEE))
        z = 0xBEEF
        for p in [(x, y, 1), (x * z * z % _P, y * z * z * z % _P, z)]:
            assert _to_affine(_jadd_affine(p, x, y)) == _to_affine(_jdouble((x, y, 1)))
            assert _jadd_affine(p, x, _P - y) == (0, 0, 0)

    @pytest.mark.parametrize(
        "w, d",
        [(0, 1), (0, 64), (0, 255), (0, 1024), (0, _HALF), (5, 33), (ROWS - 2, _HALF - 1), (ROWS - 1, 1), (ROWS - 1, TOP)],
    )
    def test_base_table_holds_affine_window_multiples(self, w, d):
        table = _base_table()
        assert [len(row) for row in table] == [_HALF] * (ROWS - 1) + [TOP]
        assert unpack(table[w][d - 1]) == _to_affine(reference_mul(d << _WINDOW * w, G))

    def test_first_and_last_base_table_rows_match_reference(self):
        table = _base_table()
        for w in (0, ROWS - 1):
            for d, slot in enumerate(table[w], 1):
                assert unpack(slot) == _to_affine(reference_mul(d << _WINDOW * w, G))

    def test_lambda_acts_as_beta_on_x(self):
        for k in (1, 0xC0FFEE, _N - 1):
            x, y = _to_affine(reference_mul(k, G))
            assert _to_affine(reference_mul(LAMBDA, (x, y, 1))) == (crypto._BETA * x % _P, y)

    @given(k=scalars)
    @example(k=1)
    @example(k=_N - 1)
    @example(k=LAMBDA)
    @settings(max_examples=200, deadline=None)
    def test_split_halves_sum_to_k_within_their_bounds(self, k):
        k1, k2 = crypto._split(k)
        assert (k1 + LAMBDA * k2 - k) % _N == 0
        assert 2 * abs(k1) <= abs(crypto._A1) + abs(crypto._A2)
        assert 2 * abs(k2) <= abs(crypto._B1) + abs(crypto._B2)
        assert max(abs(k1), abs(k2)) <= HALF_BOUND < 2**127.35

    def test_split_edge_scalars(self):
        assert [crypto._split(k) for k in SPLIT_EDGE_SCALARS] == [(1, 0), (2**127, 0), (-1, 0), (0, 1), (0, -1), (0, 2)]
        # the corner next to (a1 + a2, b1 + b2) / 2 holds the top row's largest digit
        assert signed_digits(crypto._split(WINDOW_EDGE_SCALARS[6])[0])[-1] == TOP == 1301

    @given(k1=small_halves, k2=small_halves)
    @settings(max_examples=100, deadline=None)
    def test_small_halves_come_back_from_split(self, k1, k2):
        assert crypto._split(from_halves(k1, k2)) == (k1, k2)

    # The join of k1 * G and phi(k2 * G) meets equal x only if
    # k1 = lambda * k2 mod N for k != 0, which makes (k1, -k2) a nonzero
    # vector of _split's lattice. The basis is reduced, so (a1, b1) is its
    # shortest vector, and it is longer than any pair within _split's bounds.
    def test_no_lattice_vector_fits_within_the_split_bounds(self):
        a1, b1, a2, b2 = crypto._A1, crypto._B1, crypto._A2, crypto._B2
        assert a1 * b2 - a2 * b1 == _N
        assert (a1 + LAMBDA * b1) % _N == (a2 + LAMBDA * b2) % _N == 0
        v1, v2 = a1 * a1 + b1 * b1, a2 * a2 + b2 * b2
        assert v1 <= v2 and 2 * abs(a1 * a2 + b1 * b2) <= v1
        bound1 = (abs(a1) + abs(a2)) // 2
        bound2 = (abs(b1) + abs(b2)) // 2
        assert bound1 * bound1 + bound2 * bound2 < v1

    @given(
        pairs=st.lists(
            st.tuples(scalars, scalars).filter(lambda ab: (ab[0] - ab[1]) % _N and (ab[0] + ab[1]) % _N),
            max_size=8,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_affine_sums_match_jacobian_addition(self, pairs):
        ps = [_to_affine(_jmul_base(a)) for a, _ in pairs]
        qs = [_to_affine(_jmul_base(b)) for _, b in pairs]
        xs, ys = _affine_sums([x for x, _ in ps], [y for _, y in ps], [x for x, _ in qs], [y for _, y in qs])
        assert list(zip(xs, ys)) == [_to_affine(_jadd((*p, 1), (*q, 1))) for p, q in zip(ps, qs)]

    def test_affine_sums_raise_on_equal_x(self):
        x, y = _to_affine(_jmul_base(0xC0FFEE))
        u, v = _to_affine(_jmul_base(0xBEEF))
        with pytest.raises(ValueError):
            _affine_sums([u, x], [v, y], [x, x], [y, _P - y])

    # z = 0 mod N for the zero digest and for N itself: u1 * G is infinity and
    # _jadd returns the variable-base product alone.
    @given(d=scalars, digest=st.binary(min_size=32, max_size=32))
    @example(d=0xC0FFEE, digest=bytes(32))
    @example(d=0xC0FFEE, digest=_N.to_bytes(32, "big"))
    @example(d=0xC0FFEE, digest=b"\xff" * 32)
    @settings(max_examples=30, deadline=None)
    def test_recovery_matches_three_multiplication_formula(self, d, digest):
        kp = keypair_from_scalar(d)
        sig = sign(kp.privkey, digest)
        assert recover_signer(digest, sig) == reference_recover(digest, sig) == kp.address
        assert _recover_address(digest, sig) == reference_recover(digest, sig)

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
    """Every (digest, sig) that reached the recovery arithmetic, inside a fresh scope."""
    calls = []
    real = crypto._recover_address

    def counted(digest, sig):
        calls.append((digest, sig))
        return real(digest, sig)

    monkeypatch.setattr(crypto, "_recover_address", counted)
    return calls


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
        assert kernel_calls == finished
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
                assert kernel_calls[before:] == [(d, s)]
            assert recover_signer(tampered, sig) != kp.address
            assert recover_signer(digest, twin) == kp.address


@pytest.fixture
def point_mults(monkeypatch, memo):
    """Every affine point that reached the variable-base multiplication, inside a fresh scope."""
    calls = []
    real = crypto._jmul

    def counted(k, p):
        calls.append(_to_affine(p))
        return real(k, p)

    monkeypatch.setattr(crypto, "_jmul", counted)
    return calls


def point_of(pubkey):
    return int.from_bytes(pubkey[:32], "big"), int.from_bytes(pubkey[32:64], "big")


def memo_ecdh_matches_kernel(memo, d, e):
    """_shared_x(d, e*G) through memo, the scope's, equals the _jmul and the double-and-add products."""
    pub = keypair_from_scalar(e).pubkey
    x, y = point_of(pub)
    assert memo.scalars[pub] == e
    sx = _to_affine(_jmul(d, (x, y, 1)))[0]
    assert crypto._shared_x(d, pub) == sx == _to_affine(reference_mul(d, (x, y, 1)))[0]


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
        pairs = keypairs_gen(Random(43), 300)
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
        x, y = _to_affine(reference_mul(0xFACADE, G))
        assert pubkey_of_privkey((0xFACADE).to_bytes(32, "big")) == x.to_bytes(32, "big") + y.to_bytes(32, "big")
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
            assert point_mults[before:] == [point_of(pub)]
            # the ephemeral point was drawn here, so opening the layer needs no _jmul
            assert ecies_decrypt(priv, blob) == b"share"
            assert point_mults[before:] == [point_of(pub)]
        with crypto.scope():
            before = len(point_mults)
            assert ecies_decrypt(foreign_priv, blob) == b"share"
            assert point_mults[before:] == [point_of(blob)]

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
def base_mults(monkeypatch, memo):
    """Every scalar that reached the fixed-base multiplication, inside a fresh scope."""
    calls = []
    real = crypto._jmul_base

    def counted(k):
        calls.append(k)
        return real(k)

    monkeypatch.setattr(crypto, "_jmul_base", counted)
    return calls


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
            expected = _to_affine(reference_mul(q, (*point_of(blob), 1)))[0]
            assert layer_record(memo, blob) == (q, expected)
            with pytest.MonkeyPatch.context() as mp:
                for kernel in ("_jmul", "_jmul_base"):
                    mp.setattr(crypto, kernel, None)  # a multiplication would raise
                assert ecies_decrypt(key.privkey, blob) == b"share"
                assert ecies_decrypt(negation(key.privkey), blob) == b"share"

    def test_every_layer_is_recorded_in_wrap_order(self, memo, base_mults):
        rng = Random(48)
        keys = keypairs_gen(rng, 4)
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
        a, b = keypairs_gen(Random(55), 2)
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


RECIPIENT_KINDS = ("recorded", "never recorded")


@functools.cache
def wrap_recipients():
    """The scalars of a memo and four recipient public keys of each kind.

    The "recorded" keys are in the scalars, and the "never recorded" ones
    were never in them.
    """
    rng = Random(51)
    new = keypairs_gen(rng, 4)
    scalars = {kp.pubkey: int.from_bytes(kp.privkey, "big") for kp in new}
    foreign = [pubkey_of_privkey((0xFACADE + i).to_bytes(32, "big")) for i in range(4)]
    pubkeys = {"recorded": [kp.pubkey for kp in new], "never recorded": foreign}
    return scalars, pubkeys


def wrap_from(scalars, wrap, seed):
    """wrap(rng) in a fresh scope whose memo's scalars hold `scalars`: its
    result or error, rng's state, the entries of every memo field but points
    in order, then points."""
    rng = Random(seed)
    with crypto.scope() as memo:
        memo.scalars.update(scalars)
        try:
            out = wrap(rng)
        except ParameterError as exc:
            out = str(exc)
        recorded = entries(memo)
        points = dict(recorded.pop("points"))
    return out, rng.getstate(), recorded, points


def onion_wrap_loop(shares, layer_pubkeys):
    return lambda rng: [onion_wrap(s, pks, rng) for s, pks in zip(shares, layer_pubkeys)]


def batched(shares, layer_pubkeys):
    return lambda rng: onions_wrap(shares, layer_pubkeys, rng)


layouts = st.integers(min_value=1, max_value=4).flatmap(
    lambda l: st.lists(
        st.lists(st.tuples(st.sampled_from(RECIPIENT_KINDS), st.integers(0, 3)), min_size=l, max_size=l),
        min_size=1,
        max_size=8,
    )
)


def assert_wraps_alike(scalars, shares, layer_pubkeys, seed):
    """onions_wrap returns, draws and records what the onion_wrap loop does,
    and each points entry only its batch adds is k * G for its k; the
    loop's outcome is returned."""
    *expected, loop_points = wrap_from(scalars, onion_wrap_loop(shares, layer_pubkeys), seed)
    *got, points = wrap_from(scalars, batched(shares, layer_pubkeys), seed)
    assert got == expected
    assert points.items() >= loop_points.items()
    assert all(point_of(points[k]) == _to_affine(_jmul_base(k)) for k in points.keys() - loop_points.keys())
    return expected[0]


class TestOnionsWrap:
    @given(layout=layouts, seed=st.integers(min_value=0, max_value=2**32))
    @example(layout=[[("recorded", i) for i in range(4)]] * 8, seed=0)
    @settings(max_examples=20, deadline=None)
    def test_equals_the_onion_wrap_loop(self, layout, seed):
        # same onions, same draws, and every memo field filled in the same order,
        # whether a recipient is recorded or never recorded
        scalars, pubkeys = wrap_recipients()
        shares = [Share(i + 1, 1000 + i) for i in range(len(layout))]
        layer_pubkeys = [[pubkeys[kind][i] for kind, i in layers] for layers in layout]
        onions = assert_wraps_alike(scalars, shares, layer_pubkeys, seed)
        assert all(isinstance(onion, Onion) for onion in onions)

    @pytest.mark.parametrize(
        "bad",
        [b"\x01" * 63, (1).to_bytes(32, "big") * 2, None],
        ids=["63_bytes", "off_curve", "no_keys"],
    )
    def test_raises_what_the_loop_raises_after_the_same_draws(self, bad):
        scalars, pubkeys = wrap_recipients()
        good = pubkeys["recorded"][:3]
        third = [] if bad is None else [good[0], bad, good[1]]
        shares = [Share(i, i) for i in (1, 2, 3, 4)]
        layer_pubkeys = [good, good, third, good]
        assert isinstance(assert_wraps_alike(scalars, shares, layer_pubkeys, 53), str)

    def test_outside_a_scope_it_is_the_loop_and_records_nothing(self, monkeypatch):
        _, pubkeys = wrap_recipients()
        shares = [Share(i, i) for i in (1, 2, 3)]
        layer_pubkeys = [pubkeys["recorded"][:3], pubkeys["never recorded"][:2], pubkeys["recorded"][1:]]
        rng = Random(55)
        expected = onion_wrap_loop(shares, layer_pubkeys)(rng)
        state = rng.getstate()
        monkeypatch.setattr(crypto, "_base_mul_batch", None)  # a batch would raise
        rng = Random(55)
        onions, costs = costed(lambda: onions_wrap(shares, layer_pubkeys, rng))
        assert onions == expected
        assert rng.getstate() == state
        # nothing was recorded, so a repeat makes every multiplication again
        assert costs["_jmul"] == 8
        assert costed(lambda: onions_wrap(shares, layer_pubkeys, Random(55))) == (expected, costs)

    def test_one_key_list_per_share(self):
        rng = Random(54)
        state = rng.getstate()
        with pytest.raises(ParameterError, match="one wrapping-key list per share"):
            onions_wrap([Share(1, 1)], [], rng)
        assert rng.getstate() == state


# the work a memo saves: multiplications, recoveries and cached_parts' runs
COSTS = ("_jmul_base", "_base_mul_batch", "_jmul", "_recover_address", "decode_parts")


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
    """Keys, a layer, a presigned signature, two onions and a cached
    decoding from one seed, with what opening, recovering and peeling them
    returns and the rng's final state: every entry point that records."""
    rng = Random(seed)
    a = keypair_gen(rng)
    (b,) = keypairs_gen(rng, 1)
    blob = ecies_encrypt(b.pubkey, b"share", rng)
    digest = hash256(seed.to_bytes(4, "big"))
    presign([(a.privkey, digest)])
    sig = sign(a.privkey, digest)
    onions = onions_wrap([Share(1, 1), Share(2, 2)], [[a.pubkey, b.pubkey], [b.pubkey, a.pubkey]], rng)
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

    # outside any scope all six fields are one dict, so a write that any way
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


def near(center, count, seed):
    """`count` scalars in [1, N) within 2^132 of center, drawn from a fixed seed."""
    rng = Random(seed)
    ks = (center + rng.randrange(-(2**132), 2**132) for _ in range(count))
    return [k for k in ks if 1 <= k < _N]


class TestBatchedBaseMult:
    # 1,205 keys: a pool of 400 couriers' marketplace key generation
    @pytest.mark.parametrize("count", [0, 1, 2, 17, 205, 600, 1205])
    def test_equals_repeated_single_draws(self, count):
        batch_rng, single_rng = Random(count), Random(count)
        assert keypairs_gen(batch_rng, count) == [keypair_gen(single_rng) for _ in range(count)]
        assert batch_rng.getstate() == single_rng.getstate()

    def test_edge_scalars(self):
        ks = [k for k in BASE_EDGE_SCALARS + DIGIT_EDGE_SCALARS if k < _N]
        expected = [_to_affine(_jmul_base(k)) for k in ks]
        assert _base_mul_batch(ks) == expected

    @given(ks=st.lists(scalars, max_size=12))
    @settings(max_examples=40, deadline=None)
    def test_matches_single_key_mult(self, ks):
        expected = [_to_affine(_jmul_base(k)) for k in ks]
        assert _base_mul_batch(ks) == expected

    # A batch mixes keys whose halves have any zero digits, and so any number
    # of table points, or are zero, and repeats keys: the tree moves a half
    # with fewer points behind the others and writes each root back to its
    # own key.
    @given(
        ks=st.lists(
            st.one_of(scalars, low_windows_zero, digit_scalars, st.sampled_from(WINDOW_EDGE_SCALARS)),
            min_size=1,
            max_size=40,
        )
    )
    @example(ks=WINDOW_EDGE_SCALARS[:6])
    @example(ks=WINDOW_EDGE_SCALARS[6:])
    @example(ks=DIGIT_EDGE_SCALARS)
    @example(ks=SPLIT_EDGE_SCALARS)
    @example(ks=[0xC0FFEE << 2 * _WINDOW, 5, 0xC0FFEE << 2 * _WINDOW])
    @settings(max_examples=40, deadline=None)
    def test_window_edges_match_the_reference(self, ks):
        expected = [_to_affine(reference_mul(k, G)) for k in ks]
        assert _base_mul_batch(ks) == expected
        assert [_to_affine(_jmul_base(k)) for k in ks] == expected

    # one batch of each size, every half with at least one zero digit, some
    # with a top digit of 0 or SMALL_TOP, some keys with a zero half
    @pytest.mark.parametrize("count", [1, 2, 3, 40, 127, 300, 600])
    def test_batch_sizes_match_the_reference(self, count):
        rng = Random(count)

        def half():
            digits = [rng.randrange(1 - _HALF, _HALF + 1) for _ in range(ROWS - 1)]
            for w in rng.sample(range(ROWS - 1), 1 + rng.randrange(3)):
                digits[w] = 0
            return rng.choice([1, -1]) * from_digits(digits, rng.choice([0, SMALL_TOP, rng.randrange(SMALL_TOP + 1)]))

        ks = [from_halves(half(), half() if rng.randrange(8) else 0) for _ in range(count)]
        ks[len(ks) // 2] = _N - 1
        # reference_mul costs milliseconds a key, so the largest batch is
        # checked against single k * G, which the tests above check against it
        if count < 600:
            expected = [_to_affine(reference_mul(k, G)) for k in ks]
        else:
            expected = [_to_affine(_jmul_base(k)) for k in ks]
        assert _base_mul_batch(ks) == expected

    # The counts that make the split pay: 4 tree levels and one join per
    # call, at most 9 additions per half and one join per key, against 6
    # calls and about 23 additions for the full-length recoding.
    def test_batch_makes_five_affine_sums_calls_and_at_most_19_additions_a_key(self, monkeypatch):
        rng = Random(256)
        ks = [rng.randrange(1, _N) for _ in range(256)]
        expected = [_to_affine(_jmul_base(k)) for k in ks]
        sizes = []
        real = crypto._affine_sums

        def counted(x1s, y1s, x2s, y2s):
            sizes.append(len(x1s))
            return real(x1s, y1s, x2s, y2s)

        monkeypatch.setattr(crypto, "_affine_sums", counted)
        assert _base_mul_batch(ks) == expected
        assert len(sizes) == 5
        assert sum(sizes) <= 19 * len(ks)

    def test_single_mult_makes_at_most_18_mixed_additions_and_one_jadd(self, monkeypatch):
        real_mixed, real_jadd = crypto._jadd_affine, crypto._jadd
        for k in [Random(i).randrange(1, _N) for i in range(20)] + SPLIT_EDGE_SCALARS + WINDOW_EDGE_SCALARS:
            mixed = []
            jadds = []

            def counted_mixed(p, x, y):
                # an addition to the point at infinity only returns the table point
                if p[2]:
                    mixed.append(k)
                return real_mixed(p, x, y)

            def counted_jadd(p, q):
                jadds.append(k)
                return real_jadd(p, q)

            monkeypatch.setattr(crypto, "_jadd_affine", counted_mixed)
            monkeypatch.setattr(crypto, "_jadd", counted_jadd)
            point = _jmul_base(k)
            monkeypatch.undo()
            assert _to_affine(point) == _to_affine(reference_mul(k, G))
            assert len(mixed) <= 18
            assert len(jadds) == 1

    # No scalar puts k1 * G and phi(k2 * G) on one x (see
    # test_no_lattice_vector_fits_within_the_split_bounds), so the join is
    # made to raise as _affine_sums does on equal x: the call's keys then
    # take the single path.
    def test_join_on_equal_x_takes_the_single_path(self, monkeypatch):
        ks = [0xC0FFEE, *SPLIT_EDGE_SCALARS, *WINDOW_EDGE_SCALARS]
        expected = [_to_affine(reference_mul(k, G)) for k in ks]
        calls = []
        real = crypto._affine_sums

        def join_raises(x1s, y1s, x2s, y2s):
            calls.append(len(x1s))
            if len(calls) == 5:
                raise ValueError("base is not invertible for the given modulus")
            return real(x1s, y1s, x2s, y2s)

        singles = []
        real_base = crypto._jmul_base

        def counted_base(k):
            singles.append(k)
            return real_base(k)

        monkeypatch.setattr(crypto, "_affine_sums", join_raises)
        monkeypatch.setattr(crypto, "_jmul_base", counted_base)
        assert _base_mul_batch(ks) == expected
        assert len(calls) == 5
        assert singles == ks

    # the chunks give one call's points, and hold a fraction of its 6.7 MiB
    def test_chunks_equal_one_call_and_bound_peak_memory(self):
        rng = Random(1205)
        ks = [rng.randrange(1, _N) for _ in range(1205)]
        _base_table()  # read before tracing, so only the batch's own memory counts
        tracemalloc.start()
        try:
            points = _base_mul_batch(ks)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert points == _base_mul_tree(ks)
        assert peak < 3 * 2**20

    # where the top window of the full-length recoding, after its carry, met the group order
    @pytest.mark.parametrize("center", [2**255, _N - 2**255, 2**256 - _N, _N - 1])
    def test_scalars_where_the_last_window_can_wrap(self, center):
        ks = near(center, 40, center)
        expected = [_to_affine(_jmul_base(k)) for k in ks]
        assert _base_mul_batch(ks) == expected


@pytest.fixture
def table_copy(tmp_path):
    """A copy of the base table file that _base_table reads in place of the shipped one."""
    copy = tmp_path / "secp256k1_base_table.bin"
    with open(crypto._BASE_TABLE_FILE, "rb") as f:
        copy.write_bytes(f.read())
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(crypto, "_BASE_TABLE_FILE", str(copy))
        _base_table.cache_clear()
        yield copy
    _base_table.cache_clear()


class TestBaseTableFile:
    def test_file_equals_a_fresh_build_from_g(self):
        with open(crypto._BASE_TABLE_FILE, "rb") as f:
            data = f.read()
        assert data == reference_base_table_bytes()
        assert hashlib.sha256(data).hexdigest() == crypto._BASE_TABLE_SHA256

    # 13-bit windows over the halves of _split keep 38,165 points, 3.79 MiB
    # measured, against 23,560 points and 2.34 MiB for 11-bit windows over
    # the whole scalar: 1.45 MiB more for at most 19 additions per key in
    # place of about 23
    def test_table_keeps_under_4_5_mib(self):
        # what the table keeps is the current size after loading; the load
        # streams the file a row at a time, so its peak stays within 1 MiB of
        # that (0.37 MiB measured, against 2.63 with the whole file read first)
        _base_table.cache_clear()
        tracemalloc.start()
        try:
            table = _base_table()
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert sum(map(len, table)) == 38_165
        assert kept < 4.5 * 2**20
        assert peak < kept + 2**20

    def test_intact_copy_loads(self, table_copy):
        assert _to_affine(_jmul_base(0xC0FFEE)) == _to_affine(reference_mul(0xC0FFEE, G))

    # a file that is not a whole number of 64-byte slots must fail the
    # digest check too, not stop in struct
    @pytest.mark.parametrize(
        "damage",
        [
            lambda data: data[:1000] + bytes([data[1000] ^ 1]) + data[1001:],
            lambda data: data[:-64],
            lambda data: data[:-1],
            lambda data: data + b"\0",
            lambda data: data + data[:64],
        ],
        ids=["flipped_byte", "truncated", "one_byte_short", "one_byte_long", "extra_slot"],
    )
    def test_damaged_copy_raises(self, table_copy, damage):
        intact = table_copy.read_bytes()
        table_copy.write_bytes(damage(intact))
        with pytest.raises(CryptoError, match=re.escape(str(table_copy))):
            keypair_gen(Random(0))
        # nothing was cached on failure: the next call reads the file again
        table_copy.write_bytes(intact)
        assert _to_affine(_jmul_base(0xC0FFEE)) == _to_affine(reference_mul(0xC0FFEE, G))


class TestOpenSslOracle:
    """The secp256k1 kernel against OpenSSL's, through `cryptography` (a test
    extra), which shares no code with the kernel or with reference_mul: k * G
    single and batched, signing, recovery, ECDH and an ECIES layer."""

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

    # both halves' edges: k2 = 0 (1, 2, 2^127), k1 = 0 (the multiples of
    # LAMBDA), N - 1, and the corners of _split's domain, where an
    # off-by-one in its rounding overflows the table's top row
    @pytest.mark.parametrize("scoped", [False, True], ids=["unscoped", "scoped"])
    def test_single_base_mult_at_the_split_edges(self, scoped):
        ks = SPLIT_EDGE_SCALARS + WINDOW_EDGE_SCALARS + [2, _N - 2, 2**128 - 1, _N // 2]
        expected = [self.pubkey(self.key(k)) for k in ks]
        with crypto.scope() if scoped else contextlib.nullcontext():
            assert [keypair_from_scalar(k).pubkey for k in ks] == expected
            assert [pubkey_of_privkey(k.to_bytes(32, "big")) for k in ks] == expected

    # Hypothesis draws small integers often, and their k2 is 0, so half of
    # the scalars are built from two halves of either sign
    @given(k=st.one_of(scalars, st.builds(from_halves, *[st.integers(-(2**127), 2**127)] * 2).filter(bool)))
    @settings(max_examples=30, deadline=None)
    def test_single_base_mult(self, k):
        assert keypair_from_scalar(k).pubkey == self.pubkey(self.key(k))

    # batch sizes on both sides of _BATCH_CHUNK (256) and two chunks and one
    # key; each smaller batch draws a prefix of the 513 scalars
    def test_batched_base_mult_across_chunk_edges(self):
        assert crypto._BATCH_CHUNK == 256
        scalars_513 = [int.from_bytes(kp.privkey, "big") for kp in keypairs_gen(Random(30), 513)]
        expected = [self.pubkey(self.key(k)) for k in scalars_513]
        for size in (255, 256, 257, 513):
            for scoped in (False, True):
                with crypto.scope() if scoped else contextlib.nullcontext():
                    pairs = keypairs_gen(Random(30), size)
                    assert [kp.pubkey for kp in pairs] == expected[:size], (size, scoped)
                    # in a scope every single k * G of those keys reads the batch's points
                    assert [pubkey_of_privkey(kp.privkey) for kp in pairs] == expected[:size]

    def test_sign_and_presign_verify(self):
        rng = Random(31)
        keys = [self.key(rng.randrange(1, _N)) for _ in range(8)]
        pairs = [(key, rng.randbytes(32)) for key in keys for _ in range(5)]
        wire = [(key.private_numbers().private_value.to_bytes(32, "big"), digest) for key, digest in pairs]
        with crypto.scope() as memo:
            presign(wire[:30])
            presigned = [memo.signatures[pair] for pair in wire[:30]]
        assert len(presigned) == 30
        signed = [sign(privkey, digest) for privkey, digest in wire]
        for (key, digest), sig in zip(pairs[:30] + pairs, presigned + signed):
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
