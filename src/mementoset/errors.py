"""Exception hierarchy shared by all mementoset modules."""


class MementosetError(Exception):
    """Base class for all errors raised by this package."""


class MalformedUri(MementosetError):
    """Input could not be parsed as an absolute http(s) URI."""

    def __init__(self, uri: str, reason: str = "not an absolute http(s) URI"):
        super().__init__(f"{reason}: {uri!r}")
        self.uri = uri


class UnknownArchive(MementosetError):
    """No archive in the registry has ``name`` as its id (``kind`` "id"),
    or matches it as a ``kind`` of "host" or "URI-M"."""

    def __init__(self, name: str, kind: str):
        what = "has the id" if kind == "id" else f"matches {kind}"
        super().__init__(f"no registered archive {what} {name!r}")
        self.name = name


class ParseError(MementosetError):
    """Malformed TimeMap or compact-format input.

    ``offset`` is a byte offset for link-format input and a 1-based line
    number for line-oriented input.
    """

    def __init__(self, message: str, offset: int | None = None):
        if offset is not None:
            message = f"{message} (at offset {offset})"
        super().__init__(message)
        self.offset = offset


class MissingOriginal(MementosetError):
    """TimeMap carries no rel="original" link and no URI-R hint was given."""


class NetworkError(MementosetError):
    """Transport-level failure (DNS, connect, timeout, exhausted retries).

    Transient unless it is a :class:`PermanentNetworkError`: the client
    backs off and retries it.
    """


class PermanentNetworkError(NetworkError):
    """A failure no retry can mend: no such host, a refused connection,
    an invalid URL, or a request with no recorded fixture."""


class RedirectLoop(MementosetError):
    """A URI repeated within a redirect chain."""

    def __init__(self, uri: str, chain: list[str]):
        super().__init__(f"redirect loop at {uri!r} after {len(chain)} hops")
        self.uri = uri
        self.chain = chain


class HopLimitExceeded(MementosetError):
    """Redirect chain exceeded the configured hop limit."""

    def __init__(self, limit: int, chain: list[str]):
        super().__init__(f"more than {limit} redirects")
        self.limit = limit
        self.chain = chain


class EmptyTimeMap(MementosetError):
    """A TimeMap request yielded zero mementos.

    Not necessarily a failure: the initial-selection scan uses this as its
    "never archived" signal.
    """

    def __init__(self, urir: str):
        super().__init__(f"no mementos found for {urir!r}")
        self.urir = urir


class NoTimeMapEndpoint(MementosetError):
    """Archive has no native Memento support or no TimeMap URI template."""

    def __init__(self, archive_id: str):
        super().__init__(f"archive {archive_id!r} exposes no TimeMap endpoint")
        self.archive_id = archive_id


class RawAccessUnsupported(MementosetError):
    """No raw URI-M for a memento: no registered archive, no raw scheme or no 14-digit stamp."""

    def __init__(self, urim: str):
        super().__init__(f"no raw-access variant for {urim!r}")
        self.urim = urim


class EmptyProbe(MementosetError):
    """Budget estimation was given an empty probe sample."""
