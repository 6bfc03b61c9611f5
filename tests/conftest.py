import pytest

from oddnil import oddops


@pytest.fixture(autouse=True)
def cold_caches_around_monkeypatch(request):
    """Empty the library's caches before and after every test that uses
    monkeypatch.  A test that patches a helper must not read a value built
    before the patch (a named diagram, a d_i table row, a word's memo), and
    the tests after it must not read a value built under the patch.  The
    clear after the test runs once monkeypatch has undone its patches."""
    if "monkeypatch" not in request.fixturenames:
        yield
        return
    oddops.clear_caches()
    yield
    oddops.clear_caches()
