"""Strategic term rewriting and attribute grammars over a generic tree zipper."""

from .zipper import (
    ChildIndexError,
    ConstructorTag,
    Language,
    NavigationError,
    RebuildError,
    RegistrationError,
    TypePreservationError,
    Zipper,
    export_ast,
    export_json,
    from_zipper,
    import_ast,
    import_json,
    to_zipper,
)

__version__ = "0.1.0"

__all__ = [
    "ChildIndexError",
    "ConstructorTag",
    "Language",
    "NavigationError",
    "RebuildError",
    "RegistrationError",
    "TypePreservationError",
    "Zipper",
    "export_ast",
    "export_json",
    "from_zipper",
    "import_ast",
    "import_json",
    "to_zipper",
]
