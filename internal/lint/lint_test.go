package lint

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// wantRe matches `// want "substr"` golden-diagnostic annotations in
// fixture sources.
var wantRe = regexp.MustCompile(`// want "([^"]*)"`)

// loadFixture loads one fixture package under testdata/src.
func loadFixture(t *testing.T, name string) *Package {
	t.Helper()
	loader, err := NewLoader(".")
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	pkgs, err := loader.Load(filepath.Join("internal", "lint", "testdata", "src", name))
	if err != nil {
		t.Fatalf("Load(%s): %v", name, err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("Load(%s): got %d packages, want 1", name, len(pkgs))
	}
	return pkgs[0]
}

// wantsIn extracts line → expected-substring annotations from every
// file of the fixture.
func wantsIn(t *testing.T, pkg *Package) map[string][]string {
	t.Helper()
	out := make(map[string][]string)
	for _, f := range pkg.Files {
		filename := pkg.Fset.Position(f.Pos()).Filename
		data, err := os.ReadFile(filename)
		if err != nil {
			t.Fatalf("read fixture %s: %v", filename, err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			for _, m := range wantRe.FindAllStringSubmatch(line, -1) {
				key := fmt.Sprintf("%s:%d", filename, i+1)
				out[key] = append(out[key], m[1])
			}
		}
	}
	return out
}

// TestAnalyzerFixtures runs every analyzer against its golden fixture
// packages, one subtest per fixture directory: each `// want "substr"` line must produce exactly one
// matching diagnostic, and no unannotated line may fire.
func TestAnalyzerFixtures(t *testing.T) {
	fixtures := map[string]*Analyzer{
		"determinism":   Determinism,
		"floatcompare":  FloatCompare,
		"goroutineleak": GoroutineLeak,
		"printer":       Printer,
		"ctxplumb":      CtxPlumb,
		"ctxfirst":      CtxPlumb, // ctxplumb's parameter-placement rule
		"chanctx":       CtxPlumb, // ctxplumb's select-cancellation rule
		"allocfree":     AllocFree,
		"errflow":       ErrFlow,
		"guardedby":     GuardedBy,
		"structlayout":  StructLayout,
		"falseshare":    FalseShare,
		"valuecopy":     ValueCopy,
		"presize":       Presize,
	}
	// layering and apisurface need a whole Program (contract file, API
	// snapshot) rather than a bare fixture package; lockorder and
	// lockheld need the call graph; ifacedispatch needs call-graph
	// nodes and effect summaries. Their fixture coverage lives in
	// interproc_test.go, concurrency_test.go, and perfcontract_test.go.
	// Everything else must have a golden fixture here.
	programOnly := map[string]bool{
		"layering": true, "apisurface": true,
		"lockorder": true, "lockheld": true,
		"ifacedispatch": true,
	}
	covered := make(map[string]bool)
	for _, a := range fixtures {
		covered[a.Name] = true
	}
	if len(covered)+len(programOnly) != len(All) {
		t.Fatalf("fixture table covers %d analyzers (+%d program-level), suite has %d",
			len(covered), len(programOnly), len(All))
	}
	for _, a := range All {
		if !covered[a.Name] && !programOnly[a.Name] {
			t.Fatalf("analyzer %s has neither a fixture nor program-level coverage", a.Name)
		}
	}
	for name, analyzer := range fixtures {
		t.Run(name, func(t *testing.T) {
			t.Parallel() // fixtures load into independent packages
			pkg := loadFixture(t, name)
			wants := wantsIn(t, pkg)
			diags := Run(pkg, []*Analyzer{analyzer})

			matched := make(map[string]int)
			for _, d := range diags {
				key := fmt.Sprintf("%s:%d", d.Pos.Filename, d.Pos.Line)
				subs, ok := wants[key]
				if !ok {
					t.Errorf("unexpected diagnostic: %s", d)
					continue
				}
				found := false
				for _, sub := range subs {
					if strings.Contains(d.Message, sub) {
						found = true
						break
					}
				}
				if !found {
					t.Errorf("diagnostic at %s does not match any want %q: %s", key, subs, d.Message)
				}
				matched[key]++
			}
			for key, subs := range wants {
				if matched[key] != len(subs) {
					t.Errorf("%s: want %d diagnostic(s) matching %q, got %d", key, len(subs), subs, matched[key])
				}
			}
		})
	}
}

// TestAllowSuppression spot-checks that the fixture's //lint:allow line
// is genuinely a violation that only the escape hatch silences.
func TestAllowSuppression(t *testing.T) {
	pkg := loadFixture(t, "determinism")
	var suppressed *Reporter
	// Re-run with a reporter whose allow index is empty: the sanctioned
	// time.Now must now surface, proving suppression (not blindness).
	bare := &Reporter{pkg: pkg, allow: map[string]map[int][]*allowComment{}}
	Determinism.Run(pkg, bare)
	full := NewReporter(pkg)
	Determinism.Run(pkg, full)
	if len(bare.Diagnostics()) != len(full.Diagnostics())+1 {
		t.Fatalf("allow comment should suppress exactly one diagnostic: bare=%d full=%d",
			len(bare.Diagnostics()), len(full.Diagnostics()))
	}
	_ = suppressed
}

func TestParseAllow(t *testing.T) {
	cases := []struct {
		in     string
		checks []string
		reason string
		ok     bool
	}{
		{"//lint:allow determinism: the one sanctioned clock read", []string{"determinism"}, "the one sanctioned clock read", true},
		{"//lint:allow determinism floatcompare: two checks", []string{"determinism", "floatcompare"}, "two checks", true},
		{"//lint:allow determinism", []string{"determinism"}, "", true},
		// Dashes are not separators: their words read as check names and
		// the comment has no reason, so the hygiene pass rejects it.
		{"// lint:allow determinism — legacy separator", []string{"determinism", "—", "legacy", "separator"}, "", true},
		{"//lint:allow determinism -- legacy separator", []string{"determinism", "--", "legacy", "separator"}, "", true},
		{"//lint:allowother", nil, "", false},
		{"//lint:allow", nil, "", false},
		{"//lint:allow : reason but no check", nil, "", false},
		{"// plain comment", nil, "", false},
	}
	for _, c := range cases {
		checks, reason, ok := parseAllow(c.in)
		if ok != c.ok {
			t.Errorf("parseAllow(%q) ok=%v, want %v", c.in, ok, c.ok)
			continue
		}
		if !c.ok {
			continue
		}
		if fmt.Sprint(checks) != fmt.Sprint(c.checks) {
			t.Errorf("parseAllow(%q) checks = %v, want %v", c.in, checks, c.checks)
		}
		if reason != c.reason {
			t.Errorf("parseAllow(%q) reason = %q, want %q", c.in, reason, c.reason)
		}
	}
}

// TestSuppressionHygiene exercises the escape-hatch police: stale
// allows, missing reasons, and unknown checks are reported; a live,
// well-formed allow is not.
func TestSuppressionHygiene(t *testing.T) {
	pkg := loadFixture(t, "suppression")
	diags := Run(pkg, []*Analyzer{Determinism})
	wants := wantsIn(t, pkg)
	matched := make(map[string]int)
	for _, d := range diags {
		if d.Check != suppressionCheck {
			t.Errorf("diagnostic under %q, want the %q pseudo-check: %s", d.Check, suppressionCheck, d)
		}
		key := fmt.Sprintf("%s:%d", d.Pos.Filename, d.Pos.Line)
		subs, ok := wants[key]
		if !ok {
			t.Errorf("unexpected diagnostic: %s", d)
			continue
		}
		found := false
		for _, sub := range subs {
			if strings.Contains(d.Message, sub) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("diagnostic at %s does not match any want %q: %s", key, subs, d.Message)
		}
		matched[key]++
	}
	for key, subs := range wants {
		if matched[key] != len(subs) {
			t.Errorf("%s: want %d diagnostic(s) matching %q, got %d", key, len(subs), subs, matched[key])
		}
	}
}

// TestAnalyzersFor checks the driver's per-package gating.
func TestAnalyzersFor(t *testing.T) {
	names := func(as []*Analyzer) string {
		var out []string
		for _, a := range as {
			out = append(out, a.Name)
		}
		return strings.Join(out, ",")
	}
	cases := []struct {
		path string
		want string
	}{
		{"imc", "determinism,floatcompare,goroutineleak,printer,ctxplumb,allocfree,errflow,layering,apisurface,guardedby,lockheld,lockorder,ifacedispatch,structlayout,falseshare,valuecopy,presize"},
		{"imc/internal/graph", "determinism,floatcompare,goroutineleak,printer,ctxplumb,allocfree,errflow,layering,apisurface,guardedby,lockheld,lockorder,ifacedispatch,structlayout,falseshare,valuecopy,presize"},
		{"imc/internal/ric", "determinism,floatcompare,goroutineleak,printer,ctxplumb,allocfree,errflow,layering,apisurface,guardedby,lockheld,lockorder,ifacedispatch,structlayout,falseshare,valuecopy,presize"},
		{"imc/internal/maxr", "determinism,floatcompare,goroutineleak,printer,ctxplumb,allocfree,errflow,layering,apisurface,guardedby,lockheld,lockorder,ifacedispatch,structlayout,falseshare,valuecopy,presize"},
		{"imc/internal/clock", "floatcompare,goroutineleak,printer,ctxplumb,allocfree,errflow,layering,apisurface,guardedby,lockheld,lockorder,ifacedispatch,structlayout,falseshare,valuecopy,presize"},
		{"imc/internal/expt", "determinism,floatcompare,goroutineleak,printer,ctxplumb,allocfree,errflow,layering,apisurface,guardedby,lockheld,lockorder,ifacedispatch,structlayout,falseshare,valuecopy,presize"},
		{"imc/internal/serve", "determinism,floatcompare,goroutineleak,printer,ctxplumb,allocfree,errflow,layering,apisurface,guardedby,lockheld,lockorder,ifacedispatch,structlayout,falseshare,valuecopy,presize"},
		{"imc/cmd/imcrun", "goroutineleak,ctxplumb,errflow,layering,lockorder"},
		{"imc/examples/quickstart", "goroutineleak,ctxplumb,errflow,layering,lockorder"},
	}
	for _, c := range cases {
		if got := names(AnalyzersFor("imc", c.path, All)); got != c.want {
			t.Errorf("AnalyzersFor(%s) = %s, want %s", c.path, got, c.want)
		}
	}
}

func TestByName(t *testing.T) {
	as, ok := ByName("determinism, printer")
	if !ok || len(as) != 2 || as[0].Name != "determinism" || as[1].Name != "printer" {
		t.Fatalf("ByName = %v, %v", as, ok)
	}
	if _, ok := ByName("nosuch"); ok {
		t.Fatal("ByName accepted unknown analyzer")
	}
}

// TestDirectiveHygiene pins the directive pseudo-check: a misspelled or
// retired //imc: name and a directive detached from where it is read
// are findings, every well-placed directive is silent, and the findings
// come from Run whatever analyzers are active.
func TestDirectiveHygiene(t *testing.T) {
	pkg := loadFixture(t, "directive")
	diags := Run(pkg, nil)
	for _, d := range diags {
		if d.Check != directiveCheck {
			t.Errorf("diagnostic under %q, want the %q pseudo-check: %s", d.Check, directiveCheck, d)
		}
	}
	matchWants(t, wantsIn(t, pkg), diags)
}
