"""The JSON report: rejected verdict lists."""

import pytest

from polyschro.errors import ConfigError
from polyschro.report import emit_report


@pytest.mark.parametrize("verdicts, message", [
    ([], "cannot report an empty suite list"),
    ([{"suite": "validate"}, {"suite": "validate"}],
     "duplicate suite verdicts: ['validate', 'validate']"),
])
def test_report_rejections_name_the_fault(tmp_path, verdicts, message):
    with pytest.raises(ConfigError) as caught:
        emit_report(verdicts, str(tmp_path))
    assert str(caught.value) == message
    assert not (tmp_path / "report.json").exists()
