// Package chanctx is the lint fixture for ctxplumb's select
// cancellation rule: inside a context-taking function, a select with
// no default must wait on ctx cancellation — directly, or through a
// local bound to Done(). Selects with a default never block, and
// functions without a context parameter have nothing to plumb.
package chanctx

import "context"

type worker struct {
	jobs chan int
	done chan struct{}
}

// Wait parks on worker channels with no cancellation path: the caller
// can give up, but this goroutine never learns.
func (w *worker) Wait(ctx context.Context) int {
	select { // want "without waiting on ctx cancellation"
	case v := <-w.jobs:
		return v
	case <-w.done:
		return 0
	}
}

// WaitCtx is clean: one case waits on ctx.Done().
func (w *worker) WaitCtx(ctx context.Context) int {
	select {
	case v := <-w.jobs:
		return v
	case <-ctx.Done():
		return 0
	}
}

// WaitAlias is clean: the Done channel flows through a local.
func (w *worker) WaitAlias(ctx context.Context) int {
	stop := ctx.Done()
	select {
	case v := <-w.jobs:
		return v
	case <-stop:
		return 0
	}
}

// Poll is clean: a default clause means the select cannot block.
func Poll(ctx context.Context, ch chan int) int {
	select {
	case v := <-ch:
		return v
	default:
		return -1
	}
}

// Pump has no context parameter; there is no cancellation to plumb.
func (w *worker) Pump() int {
	select {
	case v := <-w.jobs:
		return v
	}
}
