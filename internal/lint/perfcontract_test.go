package lint

import (
	"strings"
	"testing"
)

// TestIfaceDispatchFixture runs the static-dispatch analyzer over its
// golden fixture and pins the devirtualization-candidate listing the
// call graph provides.
func TestIfaceDispatchFixture(t *testing.T) {
	t.Parallel()
	prog := loadProgram(t, false, "ifacedispatch")
	pkg := progPkg(t, prog, "ifacedispatch")
	diags := Run(pkg, []*Analyzer{IfaceDispatch})
	matchWants(t, wantsIn(t, pkg), diags)

	withCands := 0
	for _, d := range diags {
		if strings.Contains(d.Message, "concrete implementers in this module") {
			withCands++
			if !strings.Contains(d.Message, "ifacedispatch.circle, ifacedispatch.square") {
				t.Errorf("candidate list is not the sorted concrete-type roster: %s", d.Message)
			}
		}
		if strings.Contains(d.Message, "reaches a dynamic dispatch transitively") &&
			!strings.Contains(d.Message, "indirect") {
			t.Errorf("transitive finding does not name the hiding callee: %s", d.Message)
		}
	}
	if withCands < 2 {
		t.Errorf("want devirtualization candidates on the param and dynamic-call findings, got %d listing(s)", withCands)
	}
}

// TestPerfContractDeterminism loads each program-level perf-contract
// fixture twice, independently, and requires byte-identical diagnostic
// streams — the same contract the solver output obeys.
func TestPerfContractDeterminism(t *testing.T) {
	t.Parallel()
	render := func(diags []Diagnostic) string {
		var sb strings.Builder
		for _, d := range diags {
			sb.WriteString(d.String())
			sb.WriteByte('\n')
		}
		return sb.String()
	}
	programLevel := map[string]*Analyzer{"ifacedispatch": IfaceDispatch}
	for name, a := range programLevel {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			load := func() string {
				prog := loadProgram(t, false, name)
				return render(Run(progPkg(t, prog, name), []*Analyzer{a}))
			}
			one, two := load(), load()
			if one != two {
				t.Errorf("diagnostics differ across independent loads:\n--- first\n%s--- second\n%s", one, two)
			}
			if one == "" {
				t.Error("no diagnostics produced; determinism check is vacuous")
			}
		})
	}
}
