"""Tests for proofs of neighborhood."""

import copy
import pickle
import random
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto import proofs as proofs_module
from repro.crypto import resolve_scheme
from repro.crypto.keys import build_keystore
from repro.crypto.proofs import (
    NeighborhoodProof,
    make_proof,
    proof_bytes,
    proof_message,
    verify_proof,
)
from repro.crypto.signer import HmacScheme, NullScheme
from repro.errors import SignatureError


@pytest.fixture
def proof(scheme, keystore):
    return make_proof(scheme, keystore.key_pair_of(2), keystore.key_pair_of(5))


class TestMakeProof:
    def test_edge_is_canonical(self, scheme, keystore):
        forward = make_proof(scheme, keystore.key_pair_of(5), keystore.key_pair_of(2))
        assert forward.edge == (2, 5)

    def test_endpoints(self, proof):
        assert proof.endpoints() == frozenset({2, 5})
        assert proof.lo == 2
        assert proof.hi == 5

    def test_rejects_self_edge(self, scheme, keystore):
        with pytest.raises(ValueError):
            make_proof(scheme, keystore.key_pair_of(2), keystore.key_pair_of(2))


class TestVerifyProof:
    def test_valid_proof_verifies(self, scheme, keystore, proof):
        assert verify_proof(scheme, keystore.directory, proof)

    def test_tampered_lo_signature_fails(self, scheme, keystore, proof):
        bad = NeighborhoodProof(
            edge=proof.edge,
            signature_lo=bytes(scheme.signature_size),
            signature_hi=proof.signature_hi,
        )
        assert not verify_proof(scheme, keystore.directory, bad)

    def test_tampered_hi_signature_fails(self, scheme, keystore, proof):
        bad = NeighborhoodProof(
            edge=proof.edge,
            signature_lo=proof.signature_lo,
            signature_hi=bytes(scheme.signature_size),
        )
        assert not verify_proof(scheme, keystore.directory, bad)

    def test_relabelled_edge_fails(self, scheme, keystore, proof):
        """Signatures do not transfer to a different edge."""
        bad = NeighborhoodProof(
            edge=(2, 6),
            signature_lo=proof.signature_lo,
            signature_hi=proof.signature_hi,
        )
        assert not verify_proof(scheme, keystore.directory, bad)

    def test_unknown_endpoint_fails(self, scheme, keystore, proof):
        bad = NeighborhoodProof(
            edge=(2, 5000),
            signature_lo=proof.signature_lo,
            signature_hi=proof.signature_hi,
        )
        assert not verify_proof(scheme, keystore.directory, bad)

    def test_degenerate_edge_fails(self, scheme, keystore, proof):
        bad = NeighborhoodProof(
            edge=(2, 2),
            signature_lo=proof.signature_lo,
            signature_hi=proof.signature_hi,
        )
        assert not verify_proof(scheme, keystore.directory, bad)

    def test_single_byzantine_cannot_forge_with_correct_node(self, scheme, keystore):
        """The model's forgeability boundary: one key is not enough.

        Byzantine node 2 signs both slots with its own key, claiming an
        edge with correct node 5.
        """
        byzantine = keystore.key_pair_of(2)
        message = proof_message(2, 5)
        forged = NeighborhoodProof(
            edge=(2, 5),
            signature_lo=scheme.sign(byzantine, message),
            signature_hi=scheme.sign(byzantine, message),
        )
        assert not verify_proof(scheme, keystore.directory, forged)

    def test_byzantine_pair_can_mint_fictitious_edge(self, scheme, keystore):
        """Two colluding nodes CAN mint a proof — allowed by the model."""
        fake = make_proof(scheme, keystore.key_pair_of(1), keystore.key_pair_of(8))
        assert verify_proof(scheme, keystore.directory, fake)


class TestProofBytes:
    def test_deterministic(self, proof):
        assert proof_bytes(proof) == proof_bytes(proof)

    def test_length(self, scheme, proof):
        assert len(proof_bytes(proof)) == 4 + 2 * scheme.signature_size

    def test_distinct_edges_distinct_bytes(self, scheme, keystore, proof):
        other = make_proof(scheme, keystore.key_pair_of(2), keystore.key_pair_of(6))
        assert proof_bytes(proof) != proof_bytes(other)


class TestProofMessage:
    def test_symmetric(self):
        assert proof_message(4, 9) == proof_message(9, 4)

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            proof_message(4, 4)


# ----------------------------------------------------------------------
# make_proof signs on first read
# ----------------------------------------------------------------------
class _Counting(HmacScheme):
    """HMAC that records every ``(signer, message)`` it signs."""

    def __init__(self):
        super().__init__()
        self.calls = []

    def sign(self, key_pair, data):
        self.calls.append((key_pair.node_id, data))
        return super().sign(key_pair, data)


#: One six-node deployment per scheme kind (RSA keygen is the slow part).
_DEPLOYMENTS = {
    name: (scheme, build_keystore(scheme, 6, seed=17))
    for name, scheme in (
        ("hmac", HmacScheme()),
        ("rsa-256", resolve_scheme("rsa-256")),
        ("null", NullScheme()),
    )
}


def _eager(scheme, keystore, u, v):
    """The proof of edge (u, v) with both signatures computed up front."""
    lo, hi = sorted((u, v))
    message = proof_message(lo, hi)
    return NeighborhoodProof(
        edge=(lo, hi),
        signature_lo=scheme.sign(keystore.key_pair_of(lo), message),
        signature_hi=scheme.sign(keystore.key_pair_of(hi), message),
    )


#: Ways to touch a proof first; each gives equal results on equal proofs.
_FIRST_READS = {
    "signature_lo": lambda proof: proof.signature_lo,
    "signature_hi": lambda proof: proof.signature_hi,
    "hash": hash,
    "repr": repr,
    "pickle": pickle.dumps,
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
    "proof_bytes": proof_bytes,
    "edge": lambda proof: (proof.edge, proof.lo, proof.hi, proof.endpoints()),
}


class TestLazySigning:
    @settings(max_examples=80, deadline=None)
    @given(
        st.sampled_from(sorted(_DEPLOYMENTS)),
        st.lists(
            st.integers(min_value=0, max_value=5), min_size=2, max_size=2, unique=True
        ),
        st.sampled_from(sorted(_FIRST_READS) + ["eq"]),
    )
    def test_a_lazy_proof_is_the_eager_value(self, name, pair, first):
        """Whatever touches it first, make_proof's proof equals, hashes,
        prints, copies and pickles exactly like the eagerly signed one."""
        scheme, keystore = _DEPLOYMENTS[name]
        u, v = pair
        lazy = make_proof(scheme, keystore.key_pair_of(u), keystore.key_pair_of(v))
        eager = _eager(scheme, keystore, u, v)
        if first == "eq":
            assert lazy == eager
        else:
            assert _FIRST_READS[first](lazy) == _FIRST_READS[first](eager)
        assert lazy == eager and eager == lazy
        assert hash(lazy) == hash(eager)
        assert repr(lazy) == repr(eager)
        assert pickle.dumps(lazy) == pickle.dumps(eager)
        assert pickle.loads(pickle.dumps(lazy)) == eager
        assert copy.copy(lazy) == eager and copy.deepcopy(lazy) == eager
        assert proof_bytes(lazy) == proof_bytes(eager)
        assert verify_proof(scheme, keystore.directory, lazy)

    @pytest.mark.parametrize("name", ["hmac", "rsa-256"])
    def test_an_unsigned_proof_pickles_without_key_material(self, name):
        # NullScheme is left out: its signature is its public id, which
        # is also its private key.
        scheme, keystore = _DEPLOYMENTS[name]
        key_u, key_v = keystore.key_pair_of(4), keystore.key_pair_of(1)
        payload = pickle.dumps(make_proof(scheme, key_u, key_v))
        assert key_u.private_key not in payload
        assert key_v.private_key not in payload
        assert type(scheme).__name__.encode() not in payload
        assert pickle.loads(payload) == _eager(scheme, keystore, 4, 1)

    def test_a_proof_signs_once(self):
        scheme = _Counting()
        keystore = build_keystore(scheme, 4, seed=3)
        proof = make_proof(scheme, keystore.key_pair_of(3), keystore.key_pair_of(0))
        assert (proof.edge, proof.endpoints()) == ((0, 3), frozenset({0, 3}))
        assert scheme.calls == []
        for _ in range(2):
            assert proof.signature_lo and proof.signature_hi
        message = proof_message(0, 3)
        assert sorted(scheme.calls) == [(0, message), (3, message)]

    def test_a_direct_proof_keeps_its_signatures_and_stays_frozen(self):
        proof = NeighborhoodProof(edge=(1, 2), signature_lo=b"lo", signature_hi=b"hi")
        assert (proof.signature_lo, proof.signature_hi) == (b"lo", b"hi")
        assert repr(proof) == (
            "NeighborhoodProof(edge=(1, 2), signature_lo=b'lo', signature_hi=b'hi')"
        )
        with pytest.raises(AttributeError):
            proof.signature_lo = b"forged"
        with pytest.raises(AttributeError):
            proof.edge = (1, 3)

    @pytest.mark.parametrize("error", [SignatureError, AttributeError])
    def test_a_signing_error_surfaces_at_every_read(self, error):
        """The scheme's own exception reaches the reader, never a
        missing-attribute fallback, and the proof stays unsigned."""

        class Failing(HmacScheme):
            def sign(self, key_pair, data):
                raise error("keys unavailable")

        scheme = Failing()
        keystore = build_keystore(scheme, 3, seed=1)
        proof = make_proof(scheme, keystore.key_pair_of(0), keystore.key_pair_of(2))
        for read in _FIRST_READS["signature_lo"], _FIRST_READS["signature_hi"], repr:
            with pytest.raises(error, match="keys unavailable"):
                read(proof)

    def test_two_threads_racing_on_one_proof_sign_it_once(self, monkeypatch):
        """Two readers enter the signing path of one unsigned proof at
        once: both get the eager bytes, neither raises, and the proof
        signs once between them."""
        entered = threading.Semaphore(0)
        lock = threading.Lock()

        class Gate:
            """The signing lock, announcing each thread that reaches it."""

            def __enter__(self):
                entered.release()
                lock.acquire()

            def __exit__(self, *exc_info):
                lock.release()

        class Stalling(_Counting):
            def sign(self, key_pair, data):
                if not self.calls:  # hold the lock until both are in
                    assert entered.acquire(timeout=10)
                    assert entered.acquire(timeout=10)
                return super().sign(key_pair, data)

        scheme = Stalling()
        keystore = build_keystore(scheme, 4, seed=9)
        proof = make_proof(scheme, keystore.key_pair_of(1), keystore.key_pair_of(2))
        monkeypatch.setattr(proofs_module, "_SIGNING", Gate())
        results, errors = [], []

        def read():
            try:
                results.append((proof.signature_lo, proof.signature_hi))
            except BaseException as exc:  # collected for the assertion below
                errors.append(exc)

        threads = [threading.Thread(target=read) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=20)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        message = proof_message(1, 2)
        expected = tuple(
            HmacScheme.sign(scheme, keystore.key_pair_of(node), message)
            for node in (1, 2)
        )
        assert results == [expected, expected]
        assert len(scheme.calls) == 2

    def test_many_threads_over_unsigned_proofs_sign_each_once(self):
        """Eight threads read 150 unsigned proofs in their own orders
        with a tiny switch interval: every read is the eager bytes, and
        a second signing of any proof would show in the count."""
        scheme = _Counting()
        keystore = build_keystore(scheme, 20, seed=5)
        edges = [(u, v) for u in range(20) for v in range(u + 1, 20)][:150]
        proofs = [
            make_proof(scheme, keystore.key_pair_of(u), keystore.key_pair_of(v))
            for u, v in edges
        ]
        expected = {
            (u, v): (
                HmacScheme.sign(scheme, keystore.key_pair_of(u), proof_message(u, v)),
                HmacScheme.sign(scheme, keystore.key_pair_of(v), proof_message(u, v)),
            )
            for u, v in edges
        }
        seen = [[] for _ in range(8)]

        def read(slot):
            order = list(proofs)
            random.Random(slot).shuffle(order)
            for proof in order:
                signatures = proof.signature_lo, proof.signature_hi
                seen[slot].append((proof.edge, signatures))

        threads = [threading.Thread(target=read, args=(slot,)) for slot in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for reads in seen:
            assert dict(reads) == expected and len(reads) == len(proofs)
        assert len(scheme.calls) == 2 * len(proofs)
