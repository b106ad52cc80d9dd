"""CRC library: spec catalog plus nine interchangeable engines.

Engines (all consume :class:`CRCSpec` and agree bit-for-bit):

================  ===========================================================
:class:`BitwiseCRC`    serial reference (one companion-matrix step per bit)
:class:`TableCRC`      Sarwate byte table — the paper's "fast software" [8]
:class:`SlicingCRC`    slicing-by-N software CRC (strongest RISC baseline)
:class:`ByteSlicedCRC`  byte-sliced look-ahead: one numpy gather per 256 bytes
:class:`WordwiseCRC`   word-at-a-time carry-less-multiply folding
:class:`GFMACCRC`      chunked Galois-field MAC CRC (Roy / Ji–Killian [9,10])
:class:`LookaheadCRC`  direct M-bit matrix parallel CRC (Pei–Zukowski [6])
:class:`DerbyCRC`      state-space-transformed parallel CRC (Derby [7] — the
                       algorithm the paper maps onto PiCoGA)
:class:`InterleavedCRC`  Kong–Parhi message interleaving [13] over DerbyCRC
================  ===========================================================
"""

from repro.crc.bitwise import BitwiseCRC
from repro.crc.catalog import BY_NAME, CATALOG, ETHERNET_CRC32, MPEG2_CRC32, get
from repro.crc.codeword import CodewordCodec
from repro.crc.gfmac import GFMACCRC, chunk_message_bits
from repro.crc.interleaved import InterleavedCRC
from repro.crc.parallel import DerbyCRC, LookaheadCRC
from repro.crc.properties import GeneratorReport, generator_report
from repro.crc.slicing import ByteSlicedCRC, SlicingCRC, build_slicing_tables
from repro.crc.spec import CRCSpec
from repro.crc.table import TableCRC, build_table
from repro.crc.wordwise import WordwiseCRC

__all__ = [
    "BY_NAME",
    "BitwiseCRC",
    "ByteSlicedCRC",
    "CATALOG",
    "CRCSpec",
    "CodewordCodec",
    "DerbyCRC",
    "ETHERNET_CRC32",
    "GFMACCRC",
    "GeneratorReport",
    "generator_report",
    "InterleavedCRC",
    "LookaheadCRC",
    "MPEG2_CRC32",
    "SlicingCRC",
    "TableCRC",
    "WordwiseCRC",
    "build_slicing_tables",
    "build_table",
    "chunk_message_bits",
    "get",
]
