package lint

import "go/ast"

// dataflow.go is the small forward-dataflow framework behind the
// flow-sensitive errflow analyzer. A FlowProblem supplies
// the lattice (Merge/Equal), the transfer function over one block
// statement, and the entry fact; Forward iterates to a fixed point over
// the CFG in reverse postorder and returns the fact at entry to every
// block. Analyzers then make exactly one reporting pass, replaying the
// transfer function over each block from its stable entry fact — that
// split (silent fixed point, then a single replay) is what keeps
// diagnostics from duplicating across worklist iterations.
//
// Facts are opaque `any` values. Transfer must treat its input as
// immutable and return a fresh (or identical) fact; Merge likewise.
// Lattices here are tiny maps keyed by types.Object, so the copying
// cost is irrelevant next to parsing.

// FlowProblem defines one forward dataflow analysis.
type FlowProblem interface {
	// Entry returns the fact holding at function entry.
	Entry() any
	// Transfer pushes fact through one block node (a statement or a
	// compound statement's header expression — see Block.Stmts).
	Transfer(fact any, n ast.Node) any
	// Merge joins the facts of two incoming edges.
	Merge(a, b any) any
	// Equal reports whether two facts are equal (fixed-point test).
	Equal(a, b any) bool
}

// Forward runs the problem to a fixed point and returns the entry fact
// of every block, indexed like cfg.Blocks. Unreachable blocks keep a
// nil fact.
func Forward(cfg *CFG, p FlowProblem) []any {
	n := len(cfg.Blocks)
	in := make([]any, n)
	out := make([]any, n)
	rpo := cfg.reversePostorder()
	in[cfg.Entry.Index] = p.Entry()
	// Seed every reachable block's out with its transfer of the current
	// in; iterate until stable. Reverse postorder makes acyclic regions
	// converge in one pass and loops in a handful.
	for changed := true; changed; {
		changed = false
		for _, blk := range rpo {
			var fact any
			if blk == cfg.Entry {
				fact = in[blk.Index]
			} else {
				first := true
				for _, pred := range blk.Preds {
					po := out[pred.Index]
					if po == nil {
						continue
					}
					if first {
						fact, first = po, false
					} else {
						fact = p.Merge(fact, po)
					}
				}
				if first {
					continue // no reachable predecessor yet
				}
				if in[blk.Index] == nil || !p.Equal(in[blk.Index], fact) {
					in[blk.Index] = fact
				}
			}
			next := transferBlock(p, fact, blk)
			if out[blk.Index] == nil || !p.Equal(out[blk.Index], next) {
				out[blk.Index] = next
				changed = true
			}
		}
	}
	return in
}

// transferBlock pushes a fact through every node of one block.
func transferBlock(p FlowProblem, fact any, blk *Block) any {
	for _, n := range blk.Stmts {
		fact = p.Transfer(fact, n)
	}
	return fact
}

// ReplayBlocks calls visit(fact, node) for every node of every
// reachable block, with fact being the dataflow state just before the
// node — the single reporting pass analyzers run after Forward.
func ReplayBlocks(cfg *CFG, p FlowProblem, in []any, visit func(fact any, n ast.Node)) {
	for _, blk := range cfg.Blocks {
		fact := in[blk.Index]
		if fact == nil {
			continue
		}
		for _, n := range blk.Stmts {
			visit(fact, n)
			fact = p.Transfer(fact, n)
		}
	}
}
