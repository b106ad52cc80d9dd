"""GF(2) backend registry behavior and cross-backend bit-exactness.

The packed backend is only useful if it is *indistinguishable* from
the pure-Python reference on every kernel and through every engine that
threads a ``backend=`` argument, so most tests here are parametrized over
backend names and compare against either the reference backend or the
bit-serial engines.
"""

import numpy as np
import pytest

from repro.crc import BitwiseCRC, DerbyCRC, LookaheadCRC, get as get_crc
from repro.engine import BatchCRC, BatchMultiplicativeScrambler
from repro.errors import ValidationError
from repro.gf2.backend import (
    BACKEND_ENV,
    GF2Backend,
    available_backends,
    default_backend_name,
    get_backend,
    register_backend,
    resolve_backend,
)
from repro.gf2.polynomial import GF2Polynomial
from repro.scrambler.multiplicative import MultiplicativeScrambler

BACKENDS = ["reference", "packed"]
PACKED = ["packed"]


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
class TestRegistry:
    def test_builtins_available(self):
        names = available_backends()
        for expected in BACKENDS:
            assert expected in names

    def test_get_backend_memoizes(self):
        assert get_backend("packed") is get_backend("packed")

    def test_unknown_name_rejected(self):
        with pytest.raises(ValidationError):
            get_backend("no-such-backend")

    def test_env_var_selects_default(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV, "reference")
        assert default_backend_name() == "reference"
        assert get_backend().name == "reference"
        monkeypatch.delenv(BACKEND_ENV)
        assert default_backend_name() == "packed"

    def test_env_var_unknown_name_fails_loudly(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV, "typo")
        with pytest.raises(ValidationError):
            get_backend()

    def test_register_refuses_silent_shadowing(self):
        with pytest.raises(ValidationError):
            register_backend("packed", lambda: get_backend("reference"))

    def test_resolve_accepts_instance_name_and_none(self):
        instance = get_backend("reference")
        assert resolve_backend(instance) is instance
        assert resolve_backend("reference") is instance
        assert isinstance(resolve_backend(None), GF2Backend)


# ----------------------------------------------------------------------
# Kernel parity against the reference backend
# ----------------------------------------------------------------------
@pytest.fixture(params=PACKED)
def packed_backend(request):
    return get_backend(request.param)


class TestKernelParity:
    @pytest.fixture(scope="class")
    def rng(self):
        return np.random.default_rng(0xC0FFEE)

    def _random(self, rng, *shape):
        return rng.integers(0, 2, size=shape).astype(np.uint8)

    @pytest.mark.parametrize("n", [1, 7, 32, 43])
    def test_matvec(self, packed_backend, rng, n):
        ref = get_backend("reference")
        a = self._random(rng, n, n)
        x = self._random(rng, n)
        assert packed_backend.matvec(a, x).tolist() == ref.matvec(a, x).tolist()

    @pytest.mark.parametrize("shape", [(4, 9, 5), (32, 32, 32), (1, 1, 1)])
    def test_matmul(self, packed_backend, rng, shape):
        r, inner, c = shape
        ref = get_backend("reference")
        a = self._random(rng, r, inner)
        b = self._random(rng, inner, c)
        assert packed_backend.matmul(a, b).tolist() == ref.matmul(a, b).tolist()

    @pytest.mark.parametrize("e", [0, 1, 2, 13])
    def test_matpow(self, packed_backend, rng, e):
        ref = get_backend("reference")
        a = self._random(rng, 16, 16)
        assert packed_backend.matpow(a, e).tolist() == ref.matpow(a, e).tolist()

    def test_matpow_rejects_negative_and_rectangular(self, packed_backend):
        with pytest.raises(ValidationError):
            packed_backend.matpow(np.zeros((3, 3), dtype=np.uint8), -1)
        with pytest.raises(ValidationError):
            packed_backend.matpow(np.zeros((2, 3), dtype=np.uint8), 2)

    @pytest.mark.parametrize("batch", [1, 63, 64, 65, 1000])
    def test_pack_unpack_round_trip(self, packed_backend, rng, batch):
        bits = self._random(rng, 24, batch)
        packed = packed_backend.pack(bits)
        assert packed_backend.unpack(packed, batch).tolist() == bits.tolist()

    @pytest.mark.parametrize("batch", [1, 64, 200])
    def test_matvec_batch(self, packed_backend, rng, batch):
        ref = get_backend("reference")
        a = self._random(rng, 32, 48)
        block = self._random(rng, 48, batch)
        got = packed_backend.unpack(
            packed_backend.matvec_batch(a, packed_backend.pack(block)), batch
        )
        expected = ref.unpack(ref.matvec_batch(a, ref.pack(block)), batch)
        assert got.tolist() == expected.tolist()

    def test_concat_and_from_rows(self, packed_backend, rng):
        top = self._random(rng, 5, 70)
        bottom = self._random(rng, 3, 70)
        joined = packed_backend.concat(
            [packed_backend.pack(top), packed_backend.pack(bottom)]
        )
        assert packed_backend.unpack(joined, 70).tolist() == np.vstack(
            [top, bottom]
        ).tolist()
        rebuilt = packed_backend.from_rows([row for row in joined])
        assert packed_backend.unpack(rebuilt, 70).tolist() == np.vstack(
            [top, bottom]
        ).tolist()


# ----------------------------------------------------------------------
# Engines under explicit backend selection
# ----------------------------------------------------------------------
MESSAGES = [b"", b"\x00", b"123456789", bytes(range(64)), b"\xff" * 17]


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("standard", ["CRC-32", "CRC-16/CCITT-FALSE", "CRC-8"])
class TestCRCEnginesAcrossBackends:
    def test_derby_crc_matches_bitwise(self, backend, standard):
        spec = get_crc(standard)
        serial = BitwiseCRC(spec)
        engine = DerbyCRC(spec, 8, backend=backend)
        assert engine.backend.name == backend
        for msg in MESSAGES:
            assert engine.compute(msg) == serial.compute(msg)

    def test_lookahead_crc_matches_bitwise(self, backend, standard):
        spec = get_crc(standard)
        serial = BitwiseCRC(spec)
        engine = LookaheadCRC(spec, 16, backend=backend)
        for msg in MESSAGES:
            assert engine.compute(msg) == serial.compute(msg)

    def test_batch_crc_matches_bitwise(self, backend, standard):
        """The batch CRC gathers bytes on no GF(2) backend: it must match
        the serial reference and the look-ahead engine run on each one."""
        spec = get_crc(standard)
        serial = BitwiseCRC(spec)
        lookahead = LookaheadCRC(spec, 32, backend=backend)
        got = BatchCRC(spec, 32).compute_batch(list(MESSAGES))
        assert got == [serial.compute(m) for m in MESSAGES]
        assert got == [lookahead.compute(m) for m in MESSAGES]


@pytest.mark.parametrize("backend", BACKENDS)
class TestScramblersAcrossBackends:
    def test_multiplicative_descramble_and_state(self, backend):
        poly = GF2Polynomial((1 << 7) | (1 << 4) | 1)
        data = [(3 * i + 1) % 2 for i in range(90)]
        scrambled = MultiplicativeScrambler(poly, 0x55).scramble_bits(data)
        serial = MultiplicativeScrambler(poly, 0x55, backend="reference")
        engine = MultiplicativeScrambler(poly, 0x55, backend=backend)
        assert engine.descramble_bits(scrambled) == serial.descramble_bits(scrambled)
        assert engine.state == serial.state

    def test_batch_multiplicative_matches_serial(self, backend):
        poly = GF2Polynomial((1 << 5) | (1 << 2) | 1)
        engine = BatchMultiplicativeScrambler(poly, backend=backend)
        streams = [[1, 1, 0, 1] * 8, [0, 1] * 3]
        states = [0b10101, 0]
        expected = [
            MultiplicativeScrambler(poly, state=st).scramble_bits(s)
            for s, st in zip(streams, states)
        ]
        assert engine.scramble_batch(streams, states=states) == expected


# ----------------------------------------------------------------------
# Env-var plumbing end to end
# ----------------------------------------------------------------------
class TestEnvSelection:
    def test_engines_follow_env_default(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV, "reference")
        assert LookaheadCRC(get_crc("CRC-16/ARC"), 8).backend.name == "reference"
        monkeypatch.setenv(BACKEND_ENV, "packed")
        assert DerbyCRC(get_crc("CRC-16/ARC"), 8).backend.name == "packed"

    def test_fuzz_smoke_under_packed_env(self, monkeypatch):
        from repro.verify import run_fuzz

        monkeypatch.setenv(BACKEND_ENV, "packed")
        report = run_fuzz(seed=3, max_cases=20)
        assert report.ok
        assert report.cases == 20

    def test_cli_backend_flag(self, monkeypatch, capsys):
        from repro.cli import main

        monkeypatch.delenv(BACKEND_ENV, raising=False)
        # main() sets the process default; put it back after the test.
        monkeypatch.setattr(
            "repro.gf2.backend._DEFAULT_NAME", default_backend_name()
        )
        for backend in ("reference", "packed"):
            assert (
                main(
                    [
                        "crc",
                        "--standard",
                        "CRC-32",
                        "--text",
                        "123456789",
                        "--backend",
                        backend,
                    ]
                )
                == 0
            )
            assert "0xCBF43926" in capsys.readouterr().out
