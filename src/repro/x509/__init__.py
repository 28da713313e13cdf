"""From-scratch X.509: names, extensions, certificates, CRLs, chains.

Every certificate in the simulation — roots, intermediates, leaves,
delegated OCSP signers — is a real DER object built and parsed by this
package, with real RSA signatures from :mod:`repro.crypto`.
"""

from .name import Name
from .extensions import (
    Extension,
    Extensions,
    BasicConstraints,
    REASON_NAMES,
    REASON_KEY_COMPROMISE,
    REASON_SUPERSEDED,
    REASON_UNSPECIFIED,
    REASON_CESSATION_OF_OPERATION,
    TLS_FEATURE_STATUS_REQUEST,
    make_aia_extension,
    make_basic_constraints_extension,
    make_crl_dp_extension,
    make_eku_extension,
    make_ocsp_nocheck_extension,
    make_san_extension,
    make_tls_feature_extension,
)
from .certificate import (Certificate, Validity, parse_certificate,
                          parse_certificate_chain)
from .builder import CertificateBuilder, self_signed
from .crl import CRLBuilder, CertificateList, RevokedCertificate
from .rootstores import RootStorePopulation, STORE_NAMES, StoreMembership
from .pem import (
    certificate_to_pem,
    certificates_from_pem,
    chain_to_pem,
    crl_from_pem,
    crl_to_pem,
    decode_pem,
    encode_pem,
)
from .verify import (
    ChainError,
    ChainValidationResult,
    TrustStore,
    build_chain,
    validate,
    validate_chain,
)

__all__ = [
    "BasicConstraints",
    "CRLBuilder",
    "Certificate",
    "CertificateBuilder",
    "CertificateList",
    "RootStorePopulation",
    "STORE_NAMES",
    "StoreMembership",
    "certificate_to_pem",
    "certificates_from_pem",
    "chain_to_pem",
    "crl_from_pem",
    "crl_to_pem",
    "decode_pem",
    "encode_pem",
    "ChainError",
    "ChainValidationResult",
    "Extension",
    "Extensions",
    "Name",
    "REASON_NAMES",
    "REASON_KEY_COMPROMISE",
    "REASON_SUPERSEDED",
    "REASON_UNSPECIFIED",
    "REASON_CESSATION_OF_OPERATION",
    "RevokedCertificate",
    "TLS_FEATURE_STATUS_REQUEST",
    "TrustStore",
    "Validity",
    "build_chain",
    "make_aia_extension",
    "make_basic_constraints_extension",
    "make_crl_dp_extension",
    "make_eku_extension",
    "make_ocsp_nocheck_extension",
    "make_san_extension",
    "make_tls_feature_extension",
    "parse_certificate",
    "parse_certificate_chain",
    "self_signed",
    "validate",
    "validate_chain",
]
