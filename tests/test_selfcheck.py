from textrec import selfcheck


def test_every_selfcheck_passes():
    results = selfcheck.run_all()
    assert results
    assert "grad/basic_block" in {r.name for r in results}
    failed = [r.line() for r in results if not r.passed]
    assert not failed, "\n".join(failed)
    # every check draws from its own generator, so one run alone reads as it does in the suite
    alone = selfcheck._ctc_conservation_check()
    assert alone.max_error == {r.name: r.max_error for r in results}[alone.name]
