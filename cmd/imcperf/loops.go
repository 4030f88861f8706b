package main

import (
	"context"
	"runtime"
	"sort"
	"sync"
	"time"
)

// opFunc performs operation idx and reports it; rec.start and
// rec.latency are filled in by the loop.
type opFunc func(ctx context.Context, idx int) opRecord

// beginPhase reads the process counters at the start of a timed wall.
func beginPhase() (*phase, time.Time, float64) {
	ph := &phase{}
	runtime.ReadMemStats(&ph.mem0)
	return ph, time.Now(), processCPU()
}

// endPhase reads them at its end.
func endPhase(ph *phase, start time.Time, cpu0 float64) {
	ph.wall = time.Since(start).Seconds()
	ph.cpu = processCPU() - cpu0
	runtime.ReadMemStats(&ph.mem1)
}

// closedLoop runs clients callers that each send their next operation
// only after the previous one returns, taking operation indices in
// sequence order, until d has passed. Operations in flight at the
// deadline complete and count.
func closedLoop(ctx context.Context, clients int, d time.Duration, do opFunc) *phase {
	deadline := time.Now().Add(d)
	next := 0
	return runLoop(ctx, clients, func() (int, bool) {
		if !time.Now().Before(deadline) {
			return 0, false
		}
		next++
		return next - 1, true
	}, do)
}

// replayLoop runs the given operation indices in order with clients
// callers: the traced counterpart of closedLoop over the same
// operations at the same concurrency.
func replayLoop(ctx context.Context, clients int, idxs []int, do opFunc) *phase {
	next := 0
	return runLoop(ctx, clients, func() (int, bool) {
		if next >= len(idxs) {
			return 0, false
		}
		next++
		return idxs[next-1], true
	}, do)
}

// runLoop is the closed loop both share: each caller asks take (under
// the loop's lock) for its next index and stops when there is none.
func runLoop(ctx context.Context, clients int, take func() (int, bool), do opFunc) *phase {
	ph, start, cpu0 := beginPhase()
	var mu sync.Mutex
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				idx, ok := take()
				if !ok || ctx.Err() != nil {
					mu.Unlock()
					return
				}
				ph.attempted++
				mu.Unlock()
				t0 := time.Now()
				rec := do(ctx, idx)
				rec.idx, rec.start, rec.latency = idx, t0, time.Since(t0).Seconds()
				mu.Lock()
				ph.ops = append(ph.ops, rec)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	endPhase(ph, start, cpu0)
	return ph
}

// opIndices returns the indices of a phase's operations in order.
func opIndices(ph *phase) []int {
	out := make([]int, len(ph.ops))
	for i, op := range ph.ops {
		out[i] = op.idx
	}
	sort.Ints(out)
	return out
}
