"""Reference schema checker: one recursive walk that dispatches on every
keyword of every subschema at every node.

``serialize.compile_schema`` builds its checker from the same keywords;
``tests/test_schema.py`` requires both to give the same (path, message)
lists.  Self-contained, so a change to the compiled checker cannot change
the reference.
"""

_TYPES = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    # JSON Schema counts 1.0 as an integer and true as not a number
    "integer": lambda v: (isinstance(v, int) and not isinstance(v, bool))
    or (isinstance(v, float) and v.is_integer()),
}
_ANNOTATIONS = ("$schema", "$id", "title")


def _key(value):
    """Hashable form of a JSON value under JSON equality: 1 == 1.0, 1 != true."""
    if isinstance(value, list):
        return ("array", tuple(map(_key, value)))
    if isinstance(value, dict):
        return ("object", frozenset((k, _key(v)) for k, v in value.items()))
    return (isinstance(value, bool), value)


def _walk(value, schema, path, errors):
    """Append (path, message) for each violation of a Draft 2020-12 schema
    built from the keywords below; descend only into subschemas."""
    is_object = isinstance(value, dict)
    for keyword, arg in schema.items():
        if keyword == "type":
            if arg not in _TYPES:
                raise ValueError(f"unsupported schema type {arg!r}")
            if not _TYPES[arg](value):
                errors.append((path, f"{value!r} is not of type {arg!r}"))
        elif keyword == "required":
            if is_object:
                errors.extend((path, f"{name!r} is a required property") for name in arg if name not in value)
        elif keyword == "properties":
            if is_object:
                for name, sub in arg.items():
                    if name in value:
                        _walk(value[name], sub, path + (name,), errors)
        elif keyword == "additionalProperties":
            if is_object:
                extra = [name for name in value if name not in schema.get("properties", ())]
                if arg is False:
                    if extra:
                        names = ", ".join(map(repr, sorted(extra)))
                        verb = "was" if len(extra) == 1 else "were"
                        errors.append((path, f"Additional properties are not allowed ({names} {verb} unexpected)"))
                else:
                    for name in extra:
                        _walk(value[name], arg, path + (name,), errors)
        elif keyword == "items":
            if isinstance(value, list):
                for i, item in enumerate(value):
                    _walk(item, arg, path + (i,), errors)
        elif keyword == "uniqueItems":
            if arg and isinstance(value, list) and len(set(map(_key, value))) < len(value):
                errors.append((path, f"{value!r} has non-unique elements"))
        elif keyword == "const":
            if _key(value) != _key(arg):
                errors.append((path, f"{arg!r} was expected"))
        elif keyword == "minimum":
            if isinstance(value, (int, float)) and not isinstance(value, bool) and value < arg:
                errors.append((path, f"{value!r} is less than the minimum of {arg!r}"))
        elif keyword not in _ANNOTATIONS:
            raise ValueError(f"unsupported schema keyword {keyword!r}")
