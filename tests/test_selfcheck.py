from textrec import selfcheck


def test_every_selfcheck_passes():
    results = selfcheck.run_all()
    assert results
    failed = [r.line() for r in results if not r.passed]
    assert not failed, "\n".join(failed)
