"""Exceptions raised by more than one module."""


class IoError(Exception):
    """A filter or share-store file cannot be read or written, or its
    contents are damaged."""


class BadParams(Exception):
    """Parameters outside what a scheme or a filter supports."""
