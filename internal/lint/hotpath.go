package lint

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// The hot-path report is the compiler's own verdict on every
// `//imc:hotpath` function: gc's bounds-check, inlining and escape
// diagnostics, kept only where they fall inside a hot function's line
// span. Nothing here models those decisions: the compiler reports them
// exactly, nested inlines included (an inlined callee's callee is
// reported at the hot caller's call site).
//
// The committed golden (internal/lint/testdata/hotpath.golden) groups
// the kept lines by function, each keyed by its line offset from the
// `func` line, so an edit outside a hot function never churns it:
//
//	== maxr.coverageGain
//	+4 Found IsInBounds
//	+7 inlining call to ric.(*State).Covered
//
// Regenerate it with `imclint -update-api`, next to api.snap.

// hotPathGCFlags and hotPathEnv define the build whose diagnostics the
// report keeps. The environment pins the target so the host cannot
// change the report.
const hotPathGCFlags = "-gcflags=-m -d=ssa/check_bce/debug=1"

var hotPathEnv = []string{"GOOS=linux", "GOARCH=amd64", "GOAMD64=v1", "CGO_ENABLED=0", "GOFLAGS="}

// hotPathKept matches the five diagnostic classes the report keeps;
// "does not escape", "leaking param" and the like are dropped.
var hotPathKept = regexp.MustCompile(`^(Found IsInBounds|Found IsSliceInBounds|inlining call to |can inline |moved to heap: )|escapes to heap$`)

// hotFunc is one `//imc:hotpath` function's section of the report.
type hotFunc struct {
	name       string // "maxr.coverageGain", "ric.(*State).Covered"
	file       string // absolute path
	start, end int    // lines of the func keyword and the closing brace
}

// hotFuncs lists the program's hot functions in package then source
// order, and the import paths of the packages that hold them.
func hotFuncs(prog *Program) ([]hotFunc, []string) {
	var funcs []hotFunc
	pkgs := make([]string, 0, len(prog.Packages))
	for _, pkg := range prog.Packages {
		decls := hotFuncDecls(pkg)
		if len(decls) == 0 {
			continue
		}
		pkgs = append(pkgs, pkg.Path)
		base := path.Base(pkg.Path) + "."
		here := make([]hotFunc, 0, len(decls))
		for _, fd := range decls {
			name := base + fd.Name.Name
			if fd.Recv != nil && len(fd.Recv.List) == 1 {
				recv := renderExpr(fd.Recv.List[0].Type)
				if strings.HasPrefix(recv, "*") {
					recv = "(" + recv + ")"
				}
				name = base + recv + "." + fd.Name.Name
			}
			start, end := pkg.Fset.Position(fd.Pos()), pkg.Fset.Position(fd.End())
			here = append(here, hotFunc{name: name, file: start.Filename, start: start.Line, end: end.Line})
		}
		funcs = append(funcs, here...)
	}
	return funcs, pkgs
}

// HotPathReport builds the hot packages with gc's escape, inlining and
// bounds-check diagnostics on and renders the report the golden
// records — what `imclint -update-api` writes next to api.snap.
func HotPathReport(prog *Program) ([]byte, error) {
	funcs, pkgs := hotFuncs(prog)
	version, err := goMinorVersion(prog.ModuleDir)
	if err != nil {
		return nil, err
	}
	var out []byte
	if len(pkgs) > 0 {
		cmd := exec.Command("go", append([]string{"build", hotPathGCFlags}, pkgs...)...)
		cmd.Dir = prog.ModuleDir
		cmd.Env = append(os.Environ(), hotPathEnv...)
		if out, err = cmd.CombinedOutput(); err != nil {
			return nil, fmt.Errorf("lint: go build %s: %w\n%s", hotPathGCFlags, err, out)
		}
	}
	return renderHotPath(version, funcs, parseHotPath(prog.ModuleDir, out, funcs)), nil
}

var goMinorRe = regexp.MustCompile(`^go\d+\.\d+`)

// goMinorVersion returns the go command's toolchain as "go1.24" — the
// granularity at which gc's inliner and escape analysis change.
func goMinorVersion(dir string) (string, error) {
	cmd := exec.Command("go", "env", "GOVERSION")
	cmd.Dir = dir
	out, err := cmd.Output()
	if err != nil {
		return "", fmt.Errorf("lint: go env GOVERSION: %w", err)
	}
	v := goMinorRe.FindString(strings.TrimSpace(string(out)))
	if v == "" {
		return "", fmt.Errorf("lint: unrecognized go version %q", out)
	}
	return v, nil
}

// parseHotPath keeps the kept-class compiler lines ("file:line:col:
// message") that fall inside a hot function, as "+offset message"
// entries per function, sorted by offset then message.
func parseHotPath(moduleDir string, out []byte, funcs []hotFunc) map[string][]string {
	type entry struct {
		off int
		msg string
	}
	found := make(map[string][]entry)
	for _, line := range strings.Split(string(out), "\n") {
		parts := strings.SplitN(line, ":", 4)
		if len(parts) != 4 {
			continue
		}
		ln, err := strconv.Atoi(parts[1])
		msg := strings.TrimSpace(parts[3])
		if err != nil || !hotPathKept.MatchString(msg) {
			continue
		}
		file := parts[0]
		if !filepath.IsAbs(file) {
			file = filepath.Join(moduleDir, file)
		}
		for _, f := range funcs {
			if f.file == file && f.start <= ln && ln <= f.end {
				found[f.name] = append(found[f.name], entry{ln - f.start, msg})
			}
		}
	}
	sections := make(map[string][]string, len(found))
	for name, es := range found {
		sort.Slice(es, func(i, j int) bool {
			if es[i].off != es[j].off {
				return es[i].off < es[j].off
			}
			return es[i].msg < es[j].msg
		})
		lines := make([]string, len(es))
		for i, e := range es {
			lines[i] = fmt.Sprintf("+%d %s", e.off, e.msg)
		}
		sections[name] = lines
	}
	return sections
}

// renderHotPath writes the report: a header naming the toolchain and
// the regeneration command, then one section per hot function in
// funcs order, present even when the compiler said nothing about it.
func renderHotPath(version string, funcs []hotFunc, sections map[string][]string) []byte {
	var b bytes.Buffer
	b.WriteString("# gc bounds-check, inlining and escape diagnostics inside //imc:hotpath\n")
	b.WriteString("# functions, keyed by line offset from the func line. Checked by\n")
	b.WriteString("# TestHotPathCompilerReport; regenerate with: go run ./cmd/imclint -update-api\n")
	fmt.Fprintf(&b, "# toolchain %s %s %s\n", version, strings.Join(hotPathEnv, " "), hotPathGCFlags)
	for _, f := range funcs {
		fmt.Fprintf(&b, "\n== %s\n", f.name)
		for _, line := range sections[f.name] {
			b.WriteString(line)
			b.WriteByte('\n')
		}
	}
	return b.Bytes()
}
