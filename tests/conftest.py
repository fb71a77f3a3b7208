"""The acceptance suite's [PASS]/[FAIL] and [bench] lines, shown in the
terminal summary, which output capture does not swallow."""

GATE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if GATE_LINES:
        terminalreporter.section("acceptance gates")
        for line in GATE_LINES:
            terminalreporter.write_line(line)
