"""The request key and attribution host as the client and the model read
them before ``model.parse_http_uri`` became the one parse of an http(s)
URI, kept verbatim as the reference ``test_canonical.TestOneParse`` holds
the parse to: ``client._split`` and ``model._host_of``."""

from urllib.parse import urlsplit

from mementoset.errors import MalformedUri

# The port RFC 9110 §4.2.3 makes equivalent to no port, per scheme.
_DEFAULT_PORTS = {"http": 80, "https": 443}


def _split(uri: str) -> tuple[str, str]:
    """``uri``'s host, which picks its lane, and ``equivalent_uri(uri)``,
    from one ``urlsplit``. MalformedUri when ``uri`` or its port does not
    parse."""
    try:
        parts = urlsplit(uri)
        port = parts.port
    except ValueError as exc:
        raise MalformedUri(uri, str(exc)) from None
    host = parts.hostname
    scheme = parts.scheme
    sent = uri.partition("#")[0]
    if not host or scheme not in _DEFAULT_PORTS:
        return (host or uri).lower(), sent
    authority = f"[{host}]" if ":" in host else host
    if port is not None and port != _DEFAULT_PORTS[scheme]:
        authority = f"{authority}:{port}"
    userinfo, at, _ = parts.netloc.rpartition("@")
    query = f"?{parts.query}" if "?" in sent else ""
    return host, f"{scheme}://{userinfo}{at}{authority}{parts.path or '/'}{query}"


def _host_of(uri: str) -> str:
    try:
        parts = urlsplit(uri)
    except ValueError as exc:
        raise MalformedUri(uri, str(exc)) from None
    if not parts.netloc or parts.scheme not in ("http", "https"):
        raise MalformedUri(uri)
    host = parts.hostname
    if not host:
        raise MalformedUri(uri, "empty host")
    return host.lower()
