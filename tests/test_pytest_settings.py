"""The repository's pytest settings, run on a throwaway test."""

from pathlib import Path

pytest_plugins = ["pytester"]

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_a_failing_hypothesis_test_reports_its_example(pytester):
    # with every warning an error, a warning raised while Hypothesis
    # reports the failure would end the run in INTERNALERROR instead
    pytester.makefile(".toml", pyproject=PYPROJECT.read_text())
    pytester.makepyfile(test_fails="""
        from hypothesis import given, strategies as st

        @given(st.integers())
        def test_fails(n):
            assert n < 3
        """)
    result = pytester.runpytest_subprocess("test_fails.py")
    out = result.stdout.str() + result.stderr.str()
    assert "INTERNALERROR" not in out
    assert "Falsifying example" in out
    result.assert_outcomes(failed=1)
