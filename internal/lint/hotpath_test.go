package lint

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// hotPathSections parses a report back into its sections: function
// name → "+offset message" lines, in file order.
func hotPathSections(report []byte) map[string][]string {
	out := make(map[string][]string)
	cur := ""
	for _, line := range strings.Split(string(report), "\n") {
		switch {
		case strings.HasPrefix(line, "== "):
			cur = strings.TrimPrefix(line, "== ")
			out[cur] = []string{}
		case strings.HasPrefix(line, "+") && cur != "":
			out[cur] = append(out[cur], line)
		}
	}
	return out
}

// diffHotPath lists what changed from want to got, one line per
// diagnostic that vanished or was added, named by its hot function and
// its line offset ("maxr.coverageGain+4: added \"Found IsInBounds\"").
func diffHotPath(want, got []byte) []string {
	w, g := hotPathSections(want), hotPathSections(got)
	names := make([]string, 0, len(w)+len(g))
	for name := range w {
		names = append(names, name)
	}
	for name := range g {
		if _, ok := w[name]; !ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	var diffs []string
	for _, name := range names {
		_, inW := w[name]
		_, inG := g[name]
		switch {
		case !inG:
			diffs = append(diffs, fmt.Sprintf("section %s vanished", name))
		case !inW:
			diffs = append(diffs, fmt.Sprintf("section %s added", name))
		}
		count := make(map[string]int)
		for _, line := range w[name] {
			count[line]--
		}
		for _, line := range g[name] {
			count[line]++
		}
		for _, line := range append(w[name], g[name]...) {
			n := count[line]
			count[line] = 0
			verb := "added"
			if n < 0 {
				verb, n = "vanished", -n
			}
			off, msg, _ := strings.Cut(line, " ")
			for ; n > 0; n-- {
				diffs = append(diffs, fmt.Sprintf("%s%s: %s %q", name, off, verb, msg))
			}
		}
	}
	return diffs
}

// TestHotPathReportDiff feeds canned compiler output through the parse
// and compare path, no build: a vanished inline, an added bounds check
// and an added heap move each surface as a diff naming the hot
// function and its relative line; lines outside every hot span and
// dropped diagnostic classes never do.
func TestHotPathReportDiff(t *testing.T) {
	t.Parallel()
	funcs := []hotFunc{
		{name: "maxr.coverageGain", file: "/m/internal/maxr/greedy.go", start: 10, end: 25},
		{name: "ric.(*State).Covered", file: "/m/internal/ric/pool.go", start: 100, end: 104},
	}
	base := []string{
		"# imc/internal/maxr",
		"internal/maxr/greedy.go:12:9: Found IsInBounds",
		"internal/maxr/greedy.go:19:20: inlining call to ric.(*State).Covered",
		"internal/maxr/greedy.go:30:5: Found IsInBounds",
	}
	report := func(lines []string) []byte {
		out := []byte(strings.Join(lines, "\n") + "\n")
		return renderHotPath("go1.24", funcs, parseHotPath("/m", out, funcs))
	}
	without := func(drop string) []string {
		var out []string
		for _, l := range base {
			if l != drop {
				out = append(out, l)
			}
		}
		return out
	}
	cases := []struct {
		name  string
		lines []string
		want  []string
	}{
		{"vanished inline", without("internal/maxr/greedy.go:19:20: inlining call to ric.(*State).Covered"),
			[]string{`maxr.coverageGain+9: vanished "inlining call to ric.(*State).Covered"`}},
		{"added bounds check", append(base, "internal/maxr/greedy.go:14:7: Found IsInBounds"),
			[]string{`maxr.coverageGain+4: added "Found IsInBounds"`}},
		{"added heap move", append(base, "/m/internal/ric/pool.go:101:2: moved to heap: x"),
			[]string{`ric.(*State).Covered+1: added "moved to heap: x"`}},
		{"outside every hot span", append(base,
			"internal/maxr/greedy.go:26:3: Found IsInBounds",
			"internal/ric/pool.go:99:1: moved to heap: y",
			"internal/ric/other.go:101:1: Found IsInBounds"), nil},
		{"dropped classes", append(base,
			"internal/maxr/greedy.go:11:14: leaking param: p",
			"internal/maxr/greedy.go:11:20: seeds does not escape",
			"internal/ric/pool.go:102:3: ignoring self-assignment in s.buf = s.buf[:0]"), nil},
	}
	golden := report(base)
	if secs := hotPathSections(golden); len(secs) != 2 || len(secs["maxr.coverageGain"]) != 2 {
		t.Fatalf("base report has the wrong shape:\n%s", golden)
	}
	for _, tc := range cases {
		if got := diffHotPath(golden, report(tc.lines)); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: diff = %q, want %q", tc.name, got, tc.want)
		}
	}
}

// goldenToolchainOnly returns the committed hotpath.golden, or skips
// the test, naming both versions, when the go command is not the Go
// minor version the golden was generated with: gc's report is only
// comparable on that version.
func goldenToolchainOnly(t *testing.T) []byte {
	t.Helper()
	golden, err := os.ReadFile(filepath.Join("testdata", "hotpath.golden"))
	if err != nil {
		t.Fatal(err)
	}
	m := regexp.MustCompile(`(?m)^# toolchain (\S+)`).FindSubmatch(golden)
	if m == nil {
		t.Fatal("hotpath.golden has no toolchain header")
	}
	have, err := goMinorVersion(".")
	if err != nil {
		t.Fatal(err)
	}
	if have != string(m[1]) {
		t.Skipf("hotpath.golden was generated with %s but the go command is %s; the compiler report is only compared on the same minor version", m[1], have)
	}
	return golden
}

// fixtureHotPath builds the hotpath fixture package through
// HotPathReport and returns its sections, keeping only the lines whose
// message matches keep.
func fixtureHotPath(t *testing.T, keep *regexp.Regexp) map[string][]string {
	t.Helper()
	goldenToolchainOnly(t)
	report, err := HotPathReport(loadProgram(t, false, "hotpath"))
	if err != nil {
		t.Fatal(err)
	}
	secs := hotPathSections(report)
	for name, lines := range secs {
		kept := []string{}
		for _, line := range lines {
			if _, msg, _ := strings.Cut(line, " "); keep.MatchString(msg) {
				kept = append(kept, line)
			}
		}
		secs[name] = kept
	}
	return secs
}

// TestBCEIdiomTable pins gc's bounds-check verdict on each entry of the
// fixture's idiom table: every idiom* function indexes slices in a hot
// loop with no check left inside the loop (a hint or reslice keeps its
// one check before it), and each check* control keeps its check, so
// the table cannot pass with bounds-check reporting switched off.
func TestBCEIdiomTable(t *testing.T) {
	t.Parallel()
	secs := fixtureHotPath(t, regexp.MustCompile(`^Found Is(Slice)?InBounds$`))
	want := map[string][]string{
		"hotpath.idiomRangeSelf":   {},
		"hotpath.idiomCountedSelf": {},
		"hotpath.idiomLocalLen":    {},
		"hotpath.idiomResliced":    {"+1 Found IsSliceInBounds"},
		"hotpath.idiomHinted":      {"+4 Found IsInBounds"},
		"hotpath.idiomSizedMake":   {},
		"hotpath.idiomMaskedArray": {},
		"hotpath.checkGather":      {"+3 Found IsInBounds"},
		"hotpath.checkWordPack":    {"+3 Found IsInBounds"},
	}
	for name := range secs {
		if _, ok := want[name]; !ok && (strings.HasPrefix(name, "hotpath.idiom") || strings.HasPrefix(name, "hotpath.check")) {
			t.Errorf("fixture function %s has no row in the idiom table", name)
		}
	}
	for name, w := range want {
		got, ok := secs[name]
		if !ok {
			t.Errorf("report has no section for %s", name)
			continue
		}
		if !reflect.DeepEqual(got, w) {
			t.Errorf("%s: bounds checks %q, want %q", name, got, w)
		}
	}
}

// TestHeapEscapeWitnessChain pins gc's witness for an address that
// leaves the frame through a chain of copies: the report names the
// moved variable at its declaration's offset, whatever the chain; a
// pointer that stays in the frame moves nothing, and a returned make is
// reported as the escaping expression.
func TestHeapEscapeWitnessChain(t *testing.T) {
	t.Parallel()
	secs := fixtureHotPath(t, regexp.MustCompile(`^moved to heap: |escapes to heap$`))
	for name, w := range map[string][]string{
		"hotpath.chainThroughCopies": {"+1 moved to heap: x"},
		"hotpath.cleanLocalPointer":  {},
		"hotpath.idiomSizedMake":     {"+1 make([]int, len(a)) escapes to heap"},
	} {
		if got, ok := secs[name]; !ok || !reflect.DeepEqual(got, w) {
			t.Errorf("%s: escape lines %q, want %q", name, secs[name], w)
		}
	}
}

// TestHotPathCompilerReport diffs gc's live escape, inlining and
// bounds-check report for every //imc:hotpath function against the
// committed golden. The report is only comparable on the Go minor
// version the golden was generated with; on any other the test skips
// and names both.
func TestHotPathCompilerReport(t *testing.T) {
	golden := goldenToolchainOnly(t)
	loader, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := loader.Load("./...")
	if err != nil {
		t.Fatal(err)
	}
	got, err := HotPathReport(&Program{ModuleDir: loader.ModuleDir, Packages: pkgs})
	if err != nil {
		t.Fatal(err)
	}

	hot := 0
	for _, pkg := range pkgs {
		hot += len(hotFuncDecls(pkg))
	}
	secs := hotPathSections(got)
	if hot == 0 || len(secs) != hot {
		t.Fatalf("report has %d sections, the loader finds %d //imc:hotpath functions", len(secs), hot)
	}
	bce := 0
	for _, line := range secs["maxr.coverageGain"] {
		if strings.HasSuffix(line, " Found IsInBounds") {
			bce++
		}
	}
	if bce != 5 {
		t.Errorf("maxr.coverageGain lists %d bounds checks, want 5:\n%s", bce, strings.Join(secs["maxr.coverageGain"], "\n"))
	}
	if diffs := diffHotPath(golden, got); len(diffs) > 0 {
		t.Errorf("gc's report on the hot functions differs from testdata/hotpath.golden (if intended, regenerate with make api):\n%s",
			strings.Join(diffs, "\n"))
	}
}
