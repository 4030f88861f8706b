package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"strings"
)

// annot.go parses the `//imc:` directive comments that opt functions
// into the flow-sensitive contracts:
//
//	//imc:hotpath   — the function is on the sampling hot path; the
//	                  allocfree analyzer forbids per-iteration
//	                  allocation inside its loops.
//	//imc:longrun   — the function is a long-running compute entry
//	                  point; the ctxplumb analyzer requires it to take
//	                  context.Context first and to forward that context
//	                  to any longrun callee.
//	//imc:guardedby <mutex|immutable>
//	                — a STRUCT FIELD directive: every access to the
//	                  field must sit on a path dominated by
//	                  <receiver>.<mutex>.Lock() (RLock suffices for
//	                  reads); "immutable" instead forbids writes outside
//	                  construction. Enforced by the guardedby analyzer.
//	//imc:locked <mutex>
//	                — the function must only be called with the named
//	                  receiver mutex already held (the *Locked helper
//	                  idiom); its body is checked as if the guard were
//	                  held, and its callers are checked to hold it.
//	//imc:prepublish
//	                — the function runs before its receiver is
//	                  published to other goroutines (construction or
//	                  replay); guardedby skips it.
//	//imc:compact   — a STRUCT TYPE directive: the struct's field order
//	                  must be padding-minimal; the structlayout analyzer
//	                  reports ANY reorderable padding waste on it.
//	//imc:padded    — a STRUCT TYPE directive: the struct is a
//	                  per-worker slot deliberately padded to the 64-byte
//	                  cache line; the falseshare analyzer verifies its
//	                  size is a line multiple and exempts slices of it
//	                  from false-sharing findings; structlayout skips it
//	                  (the padding is the point).
//
// Grammar: the directive must be its own comment line, in the doc
// comment of a function declaration (hotpath, longrun, locked,
// prepublish), of a type declaration (compact, padded), or of a struct
// field, whose trailing line comment also counts (guardedby) — exactly
// `//imc:<name>` with an optional argument and trailing prose after a
// space. Like `//go:` directives there is no space after the slashes.
// A directive anywhere else, or with an unknown name, does nothing, so
// Run reports it under the "directive" pseudo-check (directiveFindings).

const (
	directiveHotPath    = "hotpath"
	directiveLongRun    = "longrun"
	directiveGuardedBy  = "guardedby"
	directiveLocked     = "locked"
	directivePrepublish = "prepublish"
	directiveCompact    = "compact"
	directivePadded     = "padded"
)

// parseDirective extracts the name of an `//imc:` directive comment
// ("hotpath" from "//imc:hotpath — inner sampling loop").
func parseDirective(text string) (string, bool) {
	rest, ok := strings.CutPrefix(text, "//imc:")
	if !ok {
		return "", false
	}
	if i := strings.IndexAny(rest, " \t"); i >= 0 {
		rest = rest[:i]
	}
	return rest, rest != ""
}

// funcDirectives returns the set of //imc: directives attached to each
// function declaration of the package. Directives attached nowhere are
// reported by directiveFindings.
func funcDirectives(pkg *Package) map[*ast.FuncDecl]map[string]bool {
	out := make(map[*ast.FuncDecl]map[string]bool)
	for _, f := range pkg.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Doc == nil {
				continue
			}
			for _, c := range fd.Doc.List {
				if name, ok := parseDirective(c.Text); ok {
					set := out[fd]
					if set == nil {
						set = make(map[string]bool)
						out[fd] = set
					}
					set[name] = true
				}
			}
		}
	}
	return out
}

// hasDirective reports whether fd carries //imc:<name>.
func hasDirective(dirs map[*ast.FuncDecl]map[string]bool, fd *ast.FuncDecl, name string) bool {
	return dirs[fd][name]
}

// typeDirectives returns the set of //imc: directives attached to each
// type declaration of the package. A directive counts when it sits in
// the TypeSpec's own doc comment or — for the common unparenthesized
// `type Foo struct{…}` form — in the enclosing GenDecl's doc comment.
func typeDirectives(pkg *Package) map[*ast.TypeSpec]map[string]bool {
	out := make(map[*ast.TypeSpec]map[string]bool)
	add := func(ts *ast.TypeSpec, doc *ast.CommentGroup) {
		if doc == nil {
			return
		}
		for _, c := range doc.List {
			if name, ok := parseDirective(c.Text); ok {
				set := out[ts]
				if set == nil {
					set = make(map[string]bool)
					out[ts] = set
				}
				set[name] = true
			}
		}
	}
	for _, f := range pkg.Files {
		for _, d := range f.Decls {
			gd, ok := d.(*ast.GenDecl)
			if !ok || gd.Tok != token.TYPE {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				if len(gd.Specs) == 1 {
					add(ts, gd.Doc)
				}
				add(ts, ts.Doc)
			}
		}
	}
	return out
}

// directiveCheck is the pseudo-check name for //imc: directives that
// nothing reads. Like suppressionCheck it is not an Analyzer: the
// analyzers only look where a directive belongs, so they cannot see
// one that sits anywhere else.
const directiveCheck = "directive"

// Where each directive takes effect: the comment groups that
// funcDirectives, typeDirectives and guardedby's fieldGuards read.
const (
	onFunc  = "a function's doc comment"
	onType  = "a type's doc comment"
	onField = "a struct field's doc or line comment"
)

// directivePlaces maps every known directive to the place it is read.
var directivePlaces = map[string]string{
	directiveHotPath:    onFunc,
	directiveLongRun:    onFunc,
	directiveLocked:     onFunc,
	directivePrepublish: onFunc,
	directiveCompact:    onType,
	directivePadded:     onType,
	directiveGuardedBy:  onField,
}

// directiveFindings reports every //imc: comment of pkg that has an
// unknown name or sits outside the place its directive is read: a
// misspelled directive, or one detached from its declaration (say by a
// var inserted between a doc comment and its func), silently turns its
// contract off.
func directiveFindings(pkg *Package) []Diagnostic {
	place := make(map[*ast.Comment]string)
	mark := func(cg *ast.CommentGroup, where string) {
		if cg == nil {
			return
		}
		for _, c := range cg.List {
			place[c] = where
		}
	}
	for _, f := range pkg.Files {
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				mark(d.Doc, onFunc)
			case *ast.GenDecl:
				if d.Tok != token.TYPE {
					continue
				}
				for _, spec := range d.Specs {
					ts := spec.(*ast.TypeSpec)
					if len(d.Specs) == 1 {
						mark(d.Doc, onType)
					}
					mark(ts.Doc, onType)
					if st, ok := ts.Type.(*ast.StructType); ok && st.Fields != nil {
						for _, field := range st.Fields.List {
							mark(field.Doc, onField)
							mark(field.Comment, onField)
						}
					}
				}
			}
		}
	}
	var out []Diagnostic
	report := func(c *ast.Comment, format string, args ...any) {
		out = append(out, Diagnostic{
			Check:   directiveCheck,
			Pos:     pkg.Fset.Position(c.Pos()),
			Message: fmt.Sprintf(format, args...),
		})
	}
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, "//imc:") {
					continue
				}
				name, _ := parseDirective(c.Text)
				switch want, known := directivePlaces[name]; {
				case !known:
					report(c, "unknown directive //imc:%s; the known ones are compact, guardedby, hotpath, locked, longrun, padded and prepublish", name)
				case place[c] != want:
					report(c, "//imc:%s does nothing here: it is read only in %s", name, want)
				}
			}
		}
	}
	return out
}
