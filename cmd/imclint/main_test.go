package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"imc/internal/lint"
)

// fixtureDir is a package (module-relative) with known determinism
// violations — the lint suite's own golden fixture.
const fixtureDir = "internal/lint/testdata/src/determinism"

func runCmd(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

func TestExitCleanTree(t *testing.T) {
	code, out, errb := runCmd(t, "internal/clock")
	if code != 0 {
		t.Fatalf("exit = %d, want 0; stdout=%q stderr=%q", code, out, errb)
	}
	if out != "" {
		t.Errorf("clean tree must print nothing, got %q", out)
	}
}

func TestExitFindings(t *testing.T) {
	code, out, _ := runCmd(t, "-check", "determinism", fixtureDir)
	if code != 1 {
		t.Fatalf("exit = %d, want 1; stdout=%q", code, out)
	}
	if !strings.Contains(out, "[determinism]") {
		t.Errorf("findings output missing check tag: %q", out)
	}
	// Paths are module-relative so findings survive checkout moves.
	first := strings.SplitN(out, ":", 2)[0]
	if filepath.IsAbs(first) {
		t.Errorf("finding path %q should be module-relative", first)
	}
}

func TestExitUsage(t *testing.T) {
	code, _, errb := runCmd(t, "-check", "nosuchanalyzer")
	if code != 2 {
		t.Fatalf("unknown -check: exit = %d, want 2", code)
	}
	if !strings.Contains(errb, "unknown analyzer") {
		t.Errorf("stderr = %q, want unknown-analyzer message", errb)
	}
	if code, _, _ := runCmd(t, "-definitely-not-a-flag"); code != 2 {
		t.Errorf("bad flag: exit = %d, want 2", code)
	}
}

func TestListIncludesFlowAnalyzers(t *testing.T) {
	code, out, _ := runCmd(t, "-list")
	if code != 0 {
		t.Fatalf("-list exit = %d, want 0", code)
	}
	for _, name := range []string{"determinism", "allocfree", "errflow", "purity", "sharemut",
		"layering", "apisurface", "exhaustive"} {
		if !strings.Contains(out, name) {
			t.Errorf("-list output missing %q", name)
		}
	}
}

// TestListGolden locks -list output exactly: analyzer order, names,
// kinds, and doc one-liners are part of the tool's interface.
func TestListGolden(t *testing.T) {
	code, out, _ := runCmd(t, "-list")
	if code != 0 {
		t.Fatalf("-list exit = %d, want 0", code)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "list.txt"))
	if err != nil {
		t.Fatalf("read golden: %v", err)
	}
	if out != string(want) {
		t.Errorf("-list output differs from golden testdata/list.txt:\ngot:\n%s\nwant:\n%s", out, want)
	}
	for _, kind := range []string{"syntactic", "flow-sensitive", "interprocedural"} {
		if !strings.Contains(out, kind) {
			t.Errorf("-list output missing kind %q", kind)
		}
	}
}

// TestGraphDump smoke-tests the -graph debug dump: stats header plus
// one entry per function of the fixture package.
func TestGraphDump(t *testing.T) {
	code, out, errb := runCmd(t, "-graph", fixtureDir)
	if code != 0 {
		t.Fatalf("-graph exit = %d, want 0; stderr=%q", code, errb)
	}
	if !strings.HasPrefix(out, "callgraph: nodes=") {
		t.Errorf("-graph output missing stats header: %q", out)
	}
	if !strings.Contains(out, "sccs=") || !strings.Contains(out, "largest-scc=") {
		t.Errorf("-graph output missing SCC stats: %q", out)
	}
	// Running it twice must produce byte-identical output.
	_, again, _ := runCmd(t, "-graph", fixtureDir)
	if out != again {
		t.Error("-graph output is not deterministic across runs")
	}
}

// TestUpdateAPIRequiresFullLoad: regenerating the snapshot from a
// partial package list would silently drop every unloaded package's
// section, so the flag refuses anything but a full-module load.
func TestUpdateAPIRequiresFullLoad(t *testing.T) {
	code, _, errb := runCmd(t, "-update-api", "internal/clock")
	if code != 2 {
		t.Fatalf("-update-api with package args: exit = %d, want 2", code)
	}
	if !strings.Contains(errb, "full-module") {
		t.Errorf("stderr = %q, want full-module refusal", errb)
	}
}

// TestJSONGolden locks the machine-readable schema: field names, module-
// relative paths, and ordering must match the checked-in golden file.
func TestJSONGolden(t *testing.T) {
	code, out, errb := runCmd(t, "-json", "-check", "determinism", fixtureDir)
	if code != 1 {
		t.Fatalf("exit = %d, want 1; stderr=%q", code, errb)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "determinism.json"))
	if err != nil {
		t.Fatalf("read golden: %v", err)
	}
	if out != string(want) {
		t.Errorf("-json output differs from golden testdata/determinism.json:\ngot:\n%s\nwant:\n%s", out, want)
	}
	// And it must round-trip through the report schema, call-graph
	// stats included.
	var rep report
	if err := json.Unmarshal([]byte(out), &rep); err != nil {
		t.Fatalf("output is not valid report JSON: %v", err)
	}
	if len(rep.Findings) == 0 {
		t.Fatal("expected at least one finding in JSON output")
	}
	if rep.CallGraph.Nodes == 0 {
		t.Error("callgraph stats missing from JSON output")
	}
	for _, f := range rep.Findings {
		if f.Check == "" || f.File == "" || f.Line == 0 || f.Message == "" {
			t.Errorf("finding with empty field: %+v", f)
		}
	}
}

// layoutChecks is the memory-layout & data-sharing contract suite
// introduced in v6; -bench must carry a row for each.
const layoutChecks = "structlayout,falseshare,valuecopy,presize"

// TestBenchShape locks the -bench JSON schema: version tag, toolchain
// identity, top-level key order (declaration order — the file must
// diff cleanly run-over-run), and one row per analyzer in roster
// order, the v6 memory-layout rows included.
func TestBenchShape(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bench.json")
	code, _, errb := runCmd(t, "-bench", path, "internal/clock")
	if code != 0 {
		t.Fatalf("-bench exit = %d; stderr=%q", code, errb)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	var rep benchReport
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("bench output is not a benchReport: %v", err)
	}
	if rep.Schema != "imclint-bench/v2" {
		t.Errorf("schema = %q, want imclint-bench/v2", rep.Schema)
	}
	if rep.GoVersion == "" || !strings.Contains(rep.Platform, "/") {
		t.Errorf("toolchain identity incomplete: goversion=%q platform=%q", rep.GoVersion, rep.Platform)
	}
	if len(rep.Analyzers) != len(lint.All) {
		t.Fatalf("bench has %d analyzer rows, roster has %d", len(rep.Analyzers), len(lint.All))
	}
	for i, a := range lint.All {
		if rep.Analyzers[i].Name != a.Name {
			t.Errorf("row %d = %q, want roster order %q", i, rep.Analyzers[i].Name, a.Name)
		}
	}
	for _, name := range strings.Split(layoutChecks, ",") {
		found := false
		for _, row := range rep.Analyzers {
			if row.Name == name {
				found = true
			}
		}
		if !found {
			t.Errorf("bench rows missing v6 analyzer %q", name)
		}
	}

	// Key order is part of the contract: no maps anywhere in the shape.
	text := string(data)
	keys := []string{`"schema"`, `"goversion"`, `"platform"`, `"packages"`, `"callgraph"`, `"lockgraph"`, `"analyzers"`}
	last := -1
	for _, k := range keys {
		i := strings.Index(text, k)
		if i < 0 {
			t.Fatalf("bench output missing key %s", k)
		}
		if i < last {
			t.Errorf("key %s out of declaration order", k)
		}
		last = i
	}
}
