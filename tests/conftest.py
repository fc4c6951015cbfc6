import pytest

from ewcones import family


@pytest.fixture
def witness_assemblies(monkeypatch) -> list:
    """Grows by one per witness assembly: family calls _ii_operator only to build a member's witness."""
    calls = []
    assemble = family._ii_operator

    def counting(diagonal, block):
        calls.append(1)
        return assemble(diagonal, block)

    monkeypatch.setattr(family, "_ii_operator", counting)
    return calls
