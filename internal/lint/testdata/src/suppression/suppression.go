// Package suppression is a lint fixture for the escape-hatch police
// (the pseudo-check "suppression"). It is exercised with ONLY the
// determinism analyzer active: the live allow must suppress silently,
// while stale, reasonless, dash-separated, and unknown-check allows
// must each be reported on their own line.
package suppression

import "time"

// sanctioned carries a live, well-formed allow: it suppresses a real
// determinism finding, so the hygiene pass must stay silent.
func sanctioned() time.Time {
	return time.Now() //lint:allow determinism: fixture demonstrates a live suppression
}

// stale allows a check that fires nowhere on this line: the comment
// suppresses nothing and determinism IS in the active set, so the
// hygiene pass must call it out.
func stale() int {
	return 1 //lint:allow determinism: nothing here draws time or randomness // want "stale suppression"
}

// missingReason omits the mandatory justification. Its check
// (floatcompare) is not in the active set, so no stale report — only
// the grammar violation.
func missingReason() int {
	return 2 //lint:allow floatcompare // want "without a justification"
}

// dashSeparator uses an em-dash where the colon belongs. The dash and
// the word after it parse as check names and the comment has no
// reason, so it still fails the run even though it suppresses the
// determinism finding.
func dashSeparator() time.Time {
	return time.Now() //lint:allow determinism — migrate // want "without a justification" // want "unknown check" // want "unknown check"
}

// unknownCheck names a check that does not exist.
func unknownCheck() int {
	return 3 //lint:allow nosuchcheck: typo in the check name // want "unknown check"
}
