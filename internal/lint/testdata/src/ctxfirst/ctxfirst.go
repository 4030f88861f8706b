// Package ctxfirst is the lint fixture for ctxplumb's context
// parameter placement rule: context.Context, where present, comes
// first, in declarations, methods and function literals alike.
package ctxfirst

import "context"

func CtxSecond(name string, ctx context.Context) error { // want "must come first"
	_ = ctx
	_ = name
	return nil
}

func CtxFirst(ctx context.Context, name string) error {
	_ = ctx
	_ = name
	return nil
}

func NoCtx(name string) string { return name }

var _ = func(a int, ctx context.Context) { // want "must come first"
	_ = ctx
	_ = a
}

type handler struct{}

// CtxThird also fires on methods.
func (handler) CtxThird(a, b int, ctx context.Context) { // want "must come first"
	_ = ctx
	_, _ = a, b
}
