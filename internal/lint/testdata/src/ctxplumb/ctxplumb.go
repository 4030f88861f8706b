// Package ctxplumb is the lint fixture for cancellation plumbing. This
// package covers the //imc:longrun contract; the ctxfirst and chanctx
// fixtures cover context parameter placement and select cancellation.
package ctxplumb

import "context"

type pool struct{}

// GenerateCtx is a correctly plumbed entry point.
//
//imc:longrun
func (p *pool) GenerateCtx(ctx context.Context, n int) error {
	_ = n
	return ctx.Err()
}

// DoubleCtx forwards its context — legal.
//
//imc:longrun
func (p *pool) DoubleCtx(ctx context.Context) error {
	return p.GenerateCtx(ctx, 10)
}

// SolveCtx mints fresh contexts for longrun callees — both call forms
// (method and plain function) must fire.
//
//imc:longrun
func SolveCtx(ctx context.Context, p *pool) error {
	_ = ctx
	if err := p.GenerateCtx(context.Background(), 10); err != nil { // want "severs the cancellation chain"
		return err
	}
	return estimateCtx(context.TODO(), p) // want "severs the cancellation chain"
}

//imc:longrun
func estimateCtx(ctx context.Context, p *pool) error {
	return p.GenerateCtx(ctx, 1)
}

// MissingCtx is annotated longrun but takes no context at all.
//
//imc:longrun
func MissingCtx(n int) error { // want "must take context.Context as its first parameter"
	return nil
}

// CtxNotFirst is annotated longrun but hides the context mid-signature:
// one finding, from the longrun rule, not a second placement finding.
//
//imc:longrun
func CtxNotFirst(n int, ctx context.Context) error { // want "must take context.Context as its first parameter"
	return ctx.Err()
}

// Generate is an UNANNOTATED delegation shim: minting a background
// context here is the sanctioned compatibility pattern, not a
// violation.
func Generate(p *pool, n int) error {
	return p.GenerateCtx(context.Background(), n)
}

// helperCtx calls a longrun function from an unannotated helper with a
// fresh context — also legal: the contract binds annotated functions
// only.
func helperCtx(p *pool) error {
	return SolveCtx(context.TODO(), p)
}
