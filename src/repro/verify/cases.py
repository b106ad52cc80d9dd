"""Differential fuzz cases: generation, serialization and shrinking.

A :class:`FuzzCase` is one randomly drawn scenario — a spec, a block
factor, an engine method, per-stream seeds, byte payloads and a chunk /
abort schedule — compact enough to serialize into a failure report and
replay bit-for-bit.  :class:`CaseGenerator` draws cases deterministically
from a ``random.Random`` seed, and :func:`shrink` greedily reduces a
failing case to a locally minimal one while a caller-supplied predicate
keeps failing.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Tuple

from repro.errors import ValidationError
from repro.lfsr.slicing import SLICE_DEPTH

#: Case kinds, matching the oracle families in :mod:`repro.verify.oracles`.
KIND_CRC = "crc"
KIND_SCRAMBLER = "scrambler"
KIND_MULTIPLICATIVE = "multiplicative"
KINDS = (KIND_CRC, KIND_SCRAMBLER, KIND_MULTIPLICATIVE)

#: Default spec pools.  All CRC entries support the Derby transform at
#: every factor in ``DERBY_FACTORS`` (non-cyclic generators excluded).
#: CRC-12/UMTS mixes input and output reflection, and CRC-7/MMC is
#: narrower than a byte and not reflected.
CRC_POOL = (
    "CRC-8",
    "CRC-16/CCITT-FALSE",
    "CRC-16/ARC",
    "CRC-32",
    "CRC-32/MPEG-2",
    "CRC-32C",
    "CRC-12/UMTS",
    "CRC-7/MMC",
)
SCRAMBLER_POOL = ("IEEE-802.16e", "DVB", "IEEE-802.11", "SONET", "PRBS9", "PRBS23")
#: Multiplicative scrambler generators, as exponent tuples.
MULT_POLY_POOL = ((7, 6, 0), (15, 14, 0), (23, 18, 0), (43, 0))

LOOKAHEAD_FACTORS = (2, 3, 4, 5, 8, 16, 32)
DERBY_FACTORS = (4, 8, 16, 32)
MAX_STREAMS = 6
MAX_BYTES = 40
#: Additive-scrambler payloads run up to this many bytes: past the
#: keystream engine's :data:`~repro.lfsr.slicing.SLICE_DEPTH`-byte
#: block, so its ``A^{8D}`` state fold and the pipeline's carried
#: keystream are exercised.
MAX_SCRAMBLER_BYTES = 3 * SLICE_DEPTH


@dataclass(frozen=True)
class FuzzCase:
    """One differential scenario, fully reproducible from its fields.

    ``seeds`` are per-stream register presets (CRC initial register,
    scrambler seed, or multiplicative delay-line state); an empty tuple
    means "use the spec default everywhere".  ``chunks`` gives the chunk
    sizes each stream's payload is split into for the streaming oracles;
    ``aborts`` lists ghost-stream payload bit-lengths that are opened,
    fed, and aborted mid-run to stress interleaving.
    """

    kind: str
    spec: str                            # catalog name, or "exp:7,6,0" for multiplicative
    M: int
    method: str                          # "lookahead" | "derby" for CRC, "" otherwise
    seeds: Tuple[int, ...]
    messages: Tuple[str, ...]            # hex-encoded byte payloads
    chunks: Tuple[Tuple[int, ...], ...]  # per-stream chunk byte counts
    aborts: Tuple[int, ...]

    # ------------------------------------------------------------------
    @property
    def batch(self) -> int:
        return len(self.messages)

    def payloads(self) -> List[bytes]:
        return [bytes.fromhex(m) for m in self.messages]

    def chunk_plan(self, index: int) -> Tuple[int, ...]:
        """Chunk byte counts for stream ``index`` (whole payload if unset)."""
        if index < len(self.chunks) and self.chunks[index]:
            return self.chunks[index]
        nbytes = len(self.messages[index]) // 2
        return (nbytes,) if nbytes else ()

    def mult_exponents(self) -> Tuple[int, ...]:
        if not self.spec.startswith("exp:"):
            raise ValidationError(f"case spec {self.spec!r} is not an exponent list")
        return tuple(int(e) for e in self.spec[4:].split(","))

    # ------------------------------------------------------------------
    def to_dict(self) -> Dict:
        return {
            "kind": self.kind,
            "spec": self.spec,
            "M": self.M,
            "method": self.method,
            "seeds": list(self.seeds),
            "messages": list(self.messages),
            "chunks": [list(c) for c in self.chunks],
            "aborts": list(self.aborts),
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "FuzzCase":
        try:
            return cls(
                kind=str(data["kind"]),
                spec=str(data["spec"]),
                M=int(data["M"]),
                method=str(data.get("method", "")),
                seeds=tuple(int(s) for s in data.get("seeds", ())),
                messages=tuple(str(m) for m in data["messages"]),
                chunks=tuple(tuple(int(n) for n in c) for c in data.get("chunks", ())),
                aborts=tuple(int(a) for a in data.get("aborts", ())),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ValidationError(f"malformed fuzz case record: {exc}") from None

    def describe(self) -> str:
        sizes = ",".join(str(len(m) // 2) for m in self.messages)
        return (
            f"{self.kind} spec={self.spec} M={self.M}"
            + (f" method={self.method}" if self.method else "")
            + f" streams={self.batch} bytes=[{sizes}]"
        )


def _case_sort_key(case: FuzzCase) -> Tuple[int, int, int, int]:
    """Smaller is simpler: total bytes, streams, schedule complexity, M."""
    total = sum(len(m) for m in case.messages) // 2
    schedule = sum(len(c) for c in case.chunks) + len(case.aborts) + len(case.seeds)
    return (total, case.batch, schedule, case.M)


class CaseGenerator:
    """Deterministic random case factory.

    Two generators built from equal seeds draw identical case sequences —
    the property the CLI relies on for ``repro fuzz --seed S`` replay.
    """

    def __init__(
        self,
        seed: int = 0,
        kinds: Tuple[str, ...] = KINDS,
        crc_pool: Tuple[str, ...] = CRC_POOL,
        scrambler_pool: Tuple[str, ...] = SCRAMBLER_POOL,
    ):
        self._rng = random.Random(seed)
        self._kinds = tuple(kinds)
        self._crc_pool = tuple(crc_pool)
        self._scrambler_pool = tuple(scrambler_pool)

    # ------------------------------------------------------------------
    def _draw_payloads(
        self, rng: random.Random, batch: int, max_bytes: int = MAX_BYTES
    ) -> Tuple[str, ...]:
        """``batch`` hex payloads; with ``max_bytes`` above
        :data:`MAX_BYTES`, a quarter of them run past one keystream
        block."""
        payloads = []
        for _ in range(batch):
            shape = rng.random()
            if shape < 0.15:
                n = 0  # empty message
            elif shape < 0.45:
                n = rng.randint(1, 4)  # shorter than one M-bit block
            elif shape < 0.75 or max_bytes <= MAX_BYTES:
                n = rng.randint(5, MAX_BYTES)  # spans several blocks
            else:
                n = rng.randint(SLICE_DEPTH + 1, max_bytes)
            payloads.append(bytes(rng.randrange(256) for _ in range(n)).hex())
        return tuple(payloads)

    def _draw_chunks(self, rng: random.Random, messages: Tuple[str, ...]) -> Tuple[Tuple[int, ...], ...]:
        """Per-payload chunk byte counts of 1-9; no cut falls on a
        multiple of :data:`SLICE_DEPTH`, so a chunk straddles every
        keystream block edge inside a payload."""
        plans = []
        for m in messages:
            nbytes = len(m) // 2
            cuts: List[int] = []
            remaining = nbytes
            while remaining > 0:
                step = min(remaining, rng.randint(1, 9))
                if step < remaining and (nbytes - remaining + step) % SLICE_DEPTH == 0:
                    step += 1
                cuts.append(step)
                remaining -= step
            plans.append(tuple(cuts))
        return tuple(plans)

    def draw(self) -> FuzzCase:
        rng = self._rng
        kind = rng.choice(self._kinds)
        if kind == KIND_CRC:
            from repro.crc import get as get_crc

            spec_name = rng.choice(self._crc_pool)
            method = rng.choice(("lookahead", "derby"))
            factors = DERBY_FACTORS if method == "derby" else LOOKAHEAD_FACTORS
            M = rng.choice(factors)
            batch = rng.randint(1, MAX_STREAMS)
            messages = self._draw_payloads(rng, batch)
            spec = get_crc(spec_name)
            seeds: Tuple[int, ...] = ()
            if rng.random() < 0.4:
                seeds = tuple(rng.randrange(1 << spec.width) for _ in range(batch))
            return FuzzCase(
                kind=kind,
                spec=spec_name,
                M=M,
                method=method,
                seeds=seeds,
                messages=messages,
                chunks=self._draw_chunks(rng, messages),
                aborts=tuple(
                    rng.randint(0, 64) for _ in range(rng.randint(0, 2))
                ),
            )
        if kind == KIND_SCRAMBLER:
            from repro.scrambler.specs import get as get_scrambler

            spec_name = rng.choice(self._scrambler_pool)
            spec = get_scrambler(spec_name)
            M = rng.choice((2, 4, 8, 16, 32))
            batch = rng.randint(1, MAX_STREAMS)
            messages = self._draw_payloads(rng, batch, MAX_SCRAMBLER_BYTES)
            seeds = ()
            if rng.random() < 0.6:
                seeds = tuple(
                    rng.randrange(1, 1 << spec.degree) for _ in range(batch)
                )
            return FuzzCase(
                kind=kind,
                spec=spec_name,
                M=M,
                method="",
                seeds=seeds,
                messages=messages,
                chunks=self._draw_chunks(rng, messages),
                aborts=(),
            )
        # Multiplicative: bit-serial self-synchronizing scrambler.
        exps = rng.choice(MULT_POLY_POOL)
        degree = max(exps)
        batch = rng.randint(1, MAX_STREAMS)
        messages = self._draw_payloads(rng, batch)
        seeds = ()
        if rng.random() < 0.6:
            seeds = tuple(
                rng.randrange(1 << min(degree, 30)) for _ in range(batch)
            )
        return FuzzCase(
            kind=KIND_MULTIPLICATIVE,
            spec="exp:" + ",".join(str(e) for e in exps),
            M=1,
            method="",
            seeds=seeds,
            messages=messages,
            chunks=(),
            aborts=(),
        )


# ----------------------------------------------------------------------
# Shrinking
# ----------------------------------------------------------------------
def _clip_plan(plan: Tuple[int, ...], cut: int) -> Tuple[int, ...]:
    """The chunk sizes of ``plan`` that cover its first ``cut`` bytes: the
    chunk that crosses ``cut`` is shortened, the ones after it dropped."""
    clipped: List[int] = []
    for size in plan:
        if cut <= 0:
            break
        clipped.append(min(size, cut))
        cut -= clipped[-1]
    return tuple(clipped)


def _shrink_candidates(case: FuzzCase) -> List[FuzzCase]:
    """Simpler variants of ``case``, most aggressive first."""
    out: List[FuzzCase] = []
    n = case.batch

    def slice_streams(keep: List[int]) -> FuzzCase:
        return replace(
            case,
            messages=tuple(case.messages[i] for i in keep),
            seeds=tuple(case.seeds[i] for i in keep) if case.seeds else (),
            chunks=tuple(case.chunks[i] for i in keep) if case.chunks else (),
        )

    if n > 1:
        for i in range(n):
            out.append(slice_streams([j for j in range(n) if j != i]))
    for i, m in enumerate(case.messages):
        nbytes = len(m) // 2
        if nbytes == 0:
            continue
        # Keep half the payload, or cut ever shorter tails off it: a
        # quarter, an eighth, ... down to one byte.
        cuts = {nbytes // 2, nbytes - 1}
        cuts.update(nbytes - (nbytes >> k) for k in range(2, nbytes.bit_length()))
        for cut in sorted(cuts):
            shorter = list(case.messages)
            shorter[i] = m[: 2 * cut]
            chunks = list(case.chunks)
            if i < len(chunks):
                chunks[i] = _clip_plan(chunks[i], cut)
            out.append(replace(case, messages=tuple(shorter), chunks=tuple(chunks)))
    if case.seeds:
        out.append(replace(case, seeds=()))
    if case.aborts:
        out.append(replace(case, aborts=()))
    if any(len(c) > 1 for c in case.chunks):
        out.append(
            replace(
                case,
                chunks=tuple((len(m) // 2,) if m else () for m in case.messages),
            )
        )
    return out


def _merge_chunks(case: FuzzCase, i: int, j: int) -> FuzzCase:
    """``case`` with chunks ``j`` and ``j + 1`` of stream ``i`` merged."""
    chunks = list(case.chunks)
    plan = chunks[i]
    chunks[i] = plan[:j] + (plan[j] + plan[j + 1],) + plan[j + 2:]
    return replace(case, chunks=tuple(chunks))


def shrink(
    case: FuzzCase,
    still_fails: Callable[[FuzzCase], bool],
    max_probes: int = 400,
) -> Tuple[FuzzCase, int]:
    """Greedily minimize ``case`` while ``still_fails`` keeps returning True.

    Returns ``(minimal_case, probes_used)``.  The predicate is never
    trusted to be cheap, so the probe budget bounds total work; the result
    is locally minimal with respect to the candidate moves (drop a stream;
    halve a payload or cut a quarter, an eighth, ... or one byte off its
    tail, with its chunk plan clipped to match; drop seeds/aborts; merge
    all of the chunks or two adjacent ones).
    """
    probes = 0

    def fails(cand: FuzzCase) -> bool:
        nonlocal probes
        probes += 1
        try:
            return bool(still_fails(cand))
        except Exception:
            # A candidate that crashes an engine is a different bug;
            # don't let it hijack the shrink.
            return False

    best = case
    improved = True
    while improved and probes < max_probes:
        improved = False
        for cand in sorted(_shrink_candidates(best), key=_case_sort_key):
            if probes >= max_probes:
                break
            if fails(cand):
                best = cand
                improved = True
                break
        else:
            # An adjacent merge sorts after every other move, so it is
            # tried only once they all pass.  One pass walks each
            # stream's chunks, merging in place while the case keeps
            # failing: one probe a merge, where a restart would re-probe
            # every other move before the next merge.
            for i in range(len(best.chunks)):
                j = 0
                while j < len(best.chunks[i]) - 1 and probes < max_probes:
                    cand = _merge_chunks(best, i, j)
                    if fails(cand):
                        best = cand
                        improved = True
                    else:
                        j += 1
    return best, probes
