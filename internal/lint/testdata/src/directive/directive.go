// Package directive is the golden fixture for the directive pseudo-
// check: an //imc: comment with an unknown name, or outside the place
// its directive is read, turns a contract off without a word, so each
// one is a finding. Well-placed directives stay silent.
package directive

import "sync"

// Typo misspells its directive, so no analyzer treats it as hot.
//
//imc:hotpth // want "unknown directive //imc:hotpth"
func Typo(xs []int) int { return len(xs) }

// Retired carries a directive whose analyzer no longer exists.
//
//imc:pure // want "unknown directive //imc:pure"
func Retired(x int) int { return x }

// Detached lost its hot-path contract: a var slipped in between the
// doc comment and the func line, so the comment now documents the var.
//
//imc:hotpath // want "//imc:hotpath does nothing here: it is read only in a function's doc comment"
var detachedScratch []int

func Detached(xs []int) int { return len(xs) + len(detachedScratch) }

// Counter puts a type directive and a function directive on a struct.
//
//imc:compact
//imc:longrun // want "//imc:longrun does nothing here: it is read only in a function's doc comment"
type Counter struct {
	mu sync.Mutex
	//imc:guardedby mu
	n    int
	hits int //imc:guardedby mu

	//imc:padded // want "//imc:padded does nothing here: it is read only in a type's doc comment"
	misses int
}

// Add is well annotated: its directive is in its doc comment.
//
//imc:locked mu
func (c *Counter) Add() {
	c.n++
	c.hits++
	//imc:hotpath // want "//imc:hotpath does nothing here: it is read only in a function's doc comment"
	c.misses++
}

//imc:guardedby mu // want "//imc:guardedby does nothing here: it is read only in a struct field's doc or line comment"
var loose int

// Slot is a well-placed type directive.
//
//imc:padded
type Slot struct{ v [64]byte }
