"""The package's public surface."""

import cascadekd
from cascadekd import errors


def test_every_public_name_resolves_once():
    names = cascadekd.__all__
    assert len(set(names)) == len(names)
    missing = [name for name in names if not hasattr(cascadekd, name)]
    assert missing == []


def test_the_error_classes_are_the_five_the_exit_codes_rely_on():
    # The CLI exits 1 on ValidationError and 2 on every other CascadeKDError.
    defined = {name: cls for name, cls in vars(errors).items()
               if isinstance(cls, type) and issubclass(cls, Exception)
               and cls.__module__ == errors.__name__}
    bases = {name: tuple(base.__name__ for base in cls.__bases__)
             for name, cls in defined.items()}
    assert bases == {
        "CascadeKDError": ("Exception",),
        "ValidationError": ("CascadeKDError",),
        "NumericError": ("CascadeKDError",),
        "NonFiniteLossError": ("NumericError",),
        "DataExhaustedError": ("CascadeKDError",),
    }
