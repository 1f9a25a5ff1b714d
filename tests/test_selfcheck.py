from textrec import selfcheck


def test_every_selfcheck_passes():
    results = selfcheck.run_all()
    assert results
    assert "grad/basic_block" in {r.name for r in results}
    failed = [r.line() for r in results if not r.passed]
    assert not failed, "\n".join(failed)
