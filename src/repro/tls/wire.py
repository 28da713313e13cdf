"""Byte-level TLS handshake encoding (simplified TLS 1.2 framing).

The paper's browser methodology is packet capture: "we capture all
traffic generated from the client to ascertain whether it solicits an
OCSP response by sending the Certificate Status Request extension in
the TLS handshake".  This module gives the simulation real bytes to
capture: ClientHello (with the server_name, status_request, and
status_request_v2 extensions), Certificate, and CertificateStatus
messages in RFC 5246 handshake framing.

Only the fields the measurements read are populated; everything else
uses fixed, protocol-shaped filler.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from ..x509 import Certificate, parse_certificate
from .messages import ClientHello, ServerHandshake

# Handshake message types (RFC 5246 / 6066).
HANDSHAKE_CLIENT_HELLO = 0x01
HANDSHAKE_CERTIFICATE = 0x0B
HANDSHAKE_CERTIFICATE_STATUS = 0x16

# Extension numbers.
EXT_SERVER_NAME = 0x0000
EXT_STATUS_REQUEST = 0x0005          # RFC 6066
EXT_STATUS_REQUEST_V2 = 0x0011       # RFC 6961

#: TLS 1.2 protocol version bytes.
TLS_1_2 = b"\x03\x03"

#: A plausible cipher-suite offer (values only matter structurally).
_CIPHER_SUITES = bytes.fromhex("c02bc02fc00ac014009c003c002f0035")

CERTIFICATE_STATUS_TYPE_OCSP = 1


class WireError(ValueError):
    """Raised when handshake bytes do not parse."""


def _u16(value: int) -> bytes:
    return struct.pack(">H", value)


def _u24(value: int) -> bytes:
    return struct.pack(">I", value)[1:]


def _handshake(msg_type: int, body: bytes) -> bytes:
    return bytes([msg_type]) + _u24(len(body)) + body


def _split_handshake(data: bytes) -> Tuple[int, bytes, bytes]:
    if len(data) < 4:
        raise WireError("truncated handshake header")
    msg_type = data[0]
    length = int.from_bytes(data[1:4], "big")
    if len(data) < 4 + length:
        raise WireError("truncated handshake body")
    return msg_type, data[4:4 + length], data[4 + length:]


# -- ClientHello ---------------------------------------------------------------


def encode_client_hello(hello: ClientHello) -> bytes:
    """Encode a ClientHello carrying the extensions the paper watches."""
    random = hashlib.sha256(b"client-random|" + hello.server_name.encode()).digest()
    extensions = bytearray()

    # server_name (RFC 6066 section 3).
    name = hello.server_name.encode("ascii")
    sni_entry = b"\x00" + _u16(len(name)) + name
    sni_list = _u16(len(sni_entry)) + sni_entry
    extensions += _u16(EXT_SERVER_NAME) + _u16(len(sni_list)) + sni_list

    if hello.status_request:
        # CertificateStatusRequest: status_type=ocsp(1), empty
        # responder-id list, empty request extensions.
        body = b"\x01" + _u16(0) + _u16(0)
        extensions += _u16(EXT_STATUS_REQUEST) + _u16(len(body)) + body
    if hello.status_request_v2:
        # certificate_status_req_item: ocsp_multi(2) + empty request.
        item = b"\x02" + _u16(4) + _u16(0) + _u16(0)
        body = _u16(len(item)) + item
        extensions += _u16(EXT_STATUS_REQUEST_V2) + _u16(len(body)) + body

    hello_body = (
        TLS_1_2
        + random
        + b"\x00"                               # session id length
        + _u16(len(_CIPHER_SUITES)) + _CIPHER_SUITES
        + b"\x01\x00"                            # compression: null
        + _u16(len(extensions)) + bytes(extensions)
    )
    return _handshake(HANDSHAKE_CLIENT_HELLO, hello_body)


def decode_client_hello(data: bytes) -> ClientHello:
    """Parse ClientHello bytes back into the model object."""
    msg_type, body, _rest = _split_handshake(data)
    if msg_type != HANDSHAKE_CLIENT_HELLO:
        raise WireError(f"not a ClientHello (type 0x{msg_type:02x})")
    if body[:2] != TLS_1_2:
        raise WireError("unsupported protocol version")
    cursor = 2 + 32
    session_len = body[cursor]
    cursor += 1 + session_len
    suite_len = int.from_bytes(body[cursor:cursor + 2], "big")
    cursor += 2 + suite_len
    compression_len = body[cursor]
    cursor += 1 + compression_len
    extensions_len = int.from_bytes(body[cursor:cursor + 2], "big")
    cursor += 2
    end = cursor + extensions_len
    if end > len(body):
        raise WireError("extensions overrun ClientHello body")

    server_name = ""
    status_request = False
    status_request_v2 = False
    while cursor < end:
        ext_type = int.from_bytes(body[cursor:cursor + 2], "big")
        ext_len = int.from_bytes(body[cursor + 2:cursor + 4], "big")
        ext_body = body[cursor + 4:cursor + 4 + ext_len]
        cursor += 4 + ext_len
        if ext_type == EXT_SERVER_NAME and len(ext_body) >= 5:
            name_len = int.from_bytes(ext_body[3:5], "big")
            server_name = ext_body[5:5 + name_len].decode("ascii", "replace")
        elif ext_type == EXT_STATUS_REQUEST:
            status_request = True
        elif ext_type == EXT_STATUS_REQUEST_V2:
            status_request_v2 = True
    return ClientHello(server_name=server_name, status_request=status_request,
                       status_request_v2=status_request_v2)


def solicits_ocsp(client_hello_bytes: bytes) -> bool:
    """The paper's capture check: does this ClientHello request a staple?"""
    return decode_client_hello(client_hello_bytes).status_request


# -- Certificate / CertificateStatus ----------------------------------------------


def encode_certificate_message(chain: List[Certificate]) -> bytes:
    """Encode the Certificate handshake message (RFC 5246 7.4.2)."""
    entries = b"".join(_u24(len(c.der)) + c.der for c in chain)
    return _handshake(HANDSHAKE_CERTIFICATE, _u24(len(entries)) + entries)


def decode_certificate_message(data: bytes) -> List[Certificate]:
    """Parse a Certificate message into the chain."""
    msg_type, body, _ = _split_handshake(data)
    if msg_type != HANDSHAKE_CERTIFICATE:
        raise WireError(f"not a Certificate message (type 0x{msg_type:02x})")
    total = int.from_bytes(body[:3], "big")
    cursor = 3
    end = 3 + total
    chain = []
    while cursor < end:
        length = int.from_bytes(body[cursor:cursor + 3], "big")
        cursor += 3
        chain.append(parse_certificate(body[cursor:cursor + length]))
        cursor += length
    return chain


def encode_certificate_status(ocsp_der: bytes) -> bytes:
    """Encode CertificateStatus carrying a stapled OCSP response."""
    body = bytes([CERTIFICATE_STATUS_TYPE_OCSP]) + _u24(len(ocsp_der)) + ocsp_der
    return _handshake(HANDSHAKE_CERTIFICATE_STATUS, body)


def decode_certificate_status(data: bytes) -> bytes:
    """Parse CertificateStatus back to the raw OCSP response bytes."""
    msg_type, body, _ = _split_handshake(data)
    if msg_type != HANDSHAKE_CERTIFICATE_STATUS:
        raise WireError(f"not a CertificateStatus (type 0x{msg_type:02x})")
    if body[0] != CERTIFICATE_STATUS_TYPE_OCSP:
        raise WireError(f"unsupported status type {body[0]}")
    length = int.from_bytes(body[1:4], "big")
    return body[4:4 + length]


# -- capture --------------------------------------------------------------------


@dataclass
class HandshakeCapture:
    """A packet-capture-like record of one handshake's messages."""

    client_messages: List[bytes] = field(default_factory=list)
    server_messages: List[bytes] = field(default_factory=list)

    @classmethod
    def record(cls, hello: ClientHello, handshake: ServerHandshake
               ) -> "HandshakeCapture":
        """Capture one simulated handshake as wire bytes."""
        capture = cls()
        capture.client_messages.append(encode_client_hello(hello))
        capture.server_messages.append(
            encode_certificate_message(handshake.certificate_chain))
        if handshake.stapled_ocsp is not None:
            capture.server_messages.append(
                encode_certificate_status(handshake.stapled_ocsp))
        return capture

    def client_solicited_ocsp(self) -> bool:
        """Did the captured ClientHello carry status_request?"""
        for message in self.client_messages:
            if message and message[0] == HANDSHAKE_CLIENT_HELLO:
                return solicits_ocsp(message)
        return False

    def stapled_response(self) -> Optional[bytes]:
        """The captured stapled OCSP response, if one was sent."""
        for message in self.server_messages:
            if message and message[0] == HANDSHAKE_CERTIFICATE_STATUS:
                return decode_certificate_status(message)
        return None

    def certificate_chain(self) -> List[Certificate]:
        """The captured certificate chain."""
        for message in self.server_messages:
            if message and message[0] == HANDSHAKE_CERTIFICATE:
                return decode_certificate_message(message)
        return []

    @property
    def total_bytes(self) -> int:
        """Wire volume of the captured handshake."""
        return sum(len(m) for m in self.client_messages + self.server_messages)
