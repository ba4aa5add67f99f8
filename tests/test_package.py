import pencillab


def test_every_exported_name_resolves():
    missing = [name for name in pencillab.__all__ if not hasattr(pencillab, name)]
    assert missing == []
