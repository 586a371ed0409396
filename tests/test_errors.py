"""The ``source`` scope that names an input error's file and record."""

import pytest

from mhctc.errors import ConfigError, InvalidInput, InvalidLabel, TooShort, source


def test_nested_scopes_name_the_file_then_the_record():
    with pytest.raises(ConfigError) as caught:
        with source("a"), source("b"):
            raise ConfigError("message")
    assert str(caught.value) == "a: b: message"


@pytest.mark.parametrize("cls", [InvalidInput, InvalidLabel])
def test_a_kind_of_config_error_keeps_its_class_object_and_cause(cls):
    cause = ValueError("underneath")
    error = cls("message")
    with pytest.raises(cls) as caught:
        with source("file.json"):
            raise error from cause
    assert caught.value is error and type(error) is cls
    assert error.__cause__ is cause and str(error) == "file.json: message"


@pytest.mark.parametrize("error", [TooShort("too short"), OSError(2, "No such file")])
def test_other_errors_pass_through_without_a_prefix(error):
    text = str(error)
    with pytest.raises(type(error)) as caught:
        with source("file.json"):
            raise error
    assert caught.value is error and str(error) == text
