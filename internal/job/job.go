// Package job is the durable async execution substrate between the
// solvers and the HTTP surface: a disk-backed job store plus a bounded
// worker pool that runs solves asynchronously with checkpoint/resume.
//
// The serve layer's synchronous endpoints shed anything that cannot
// finish inside one request deadline — but the paper's hard instances
// (IMC is inapproximable within O(r^{1/2(loglog r)^c}), and RIC sample
// counts grow steeply with k and r) are exactly the ones that blow
// past any deadline. Jobs decouple submission from execution: a solve
// is submitted once (idempotently), executed by a worker, periodically
// checkpointed at pool-growth boundaries, and — because RIC sample i
// is always drawn from PRNG stream i of the job's seed — a killed or
// restarted process resumes every in-flight job from its last
// checkpoint and produces the byte-identical seed set an uninterrupted
// run would have. A checkpoint is only the journaled round counter:
// the pool at round d is the first ⌈Λ⌉·2^d samples of the seed, which
// the resumed solve grows back, adopting from the pool cache when one
// is wired.
//
// Store layout under the job directory:
//
//	journal.log      append-only JSONL of submissions, transitions and checkpoints
//	<id>.result.json terminal result (atomic rename)
package job

import (
	"fmt"
	"strings"
	"time"

	"imc/internal/core"
	"imc/internal/diffusion"
	"imc/internal/expt"
)

// State is a job's lifecycle phase. Transitions:
//
//	pending → running → succeeded | failed | canceled
//	running → pending        (interruption: drain or crash; resumes++)
//	pending → canceled       (cancel before a worker picks it up)
type State string

const (
	StatePending   State = "pending"
	StateRunning   State = "running"
	StateSucceeded State = "succeeded"
	StateFailed    State = "failed"
	StateCanceled  State = "canceled"
)

// Terminal reports whether a job in this state will never run again.
func (s State) Terminal() bool {
	return s == StateSucceeded || s == StateFailed || s == StateCanceled
}

// Spec is the immutable description of one solve job — the async twin
// of the serve layer's /solve request.
type Spec struct {
	// Instance selection (see expt.InstanceConfig).
	Dataset   string  `json:"dataset"`
	Scale     float64 `json:"scale"`
	Formation string  `json:"formation,omitempty"` // "louvain" (default) | "random"
	SizeCap   int     `json:"sizeCap,omitempty"`
	Bounded   bool    `json:"bounded,omitempty"`
	Seed      uint64  `json:"seed"`

	// Solve parameters.
	Alg        string  `json:"alg"` // UBG (default) | MAF | MB | HBC | KS | IM | UBG+LS | DD
	K          int     `json:"k"`
	Eps        float64 `json:"eps,omitempty"`
	Delta      float64 `json:"delta,omitempty"`
	MaxSamples int     `json:"maxSamples,omitempty"`
	BTMaxRoots int     `json:"btMaxRoots,omitempty"`
	Model      string  `json:"model,omitempty"` // "ic" (default) | "lt"
}

// knownAlgs is the algorithm whitelist, validated at submission so a
// typo fails fast instead of after queueing.
var knownAlgs = func() map[string]bool {
	m := make(map[string]bool, len(expt.AllAlgorithms)+2)
	for _, a := range expt.AllAlgorithms {
		m[a] = true
	}
	m[expt.AlgUBGLS] = true
	m[expt.AlgDD] = true
	return m
}()

// Normalize fills defaults and canonicalizes the algorithm name so
// that equal submissions hash to equal specs.
func (s Spec) Normalize() Spec {
	if s.Dataset == "" {
		s.Dataset = "facebook"
	}
	if s.Scale == 0 {
		s.Scale = 0.1
	}
	s.Alg = strings.ToUpper(s.Alg)
	if s.Alg == "" {
		s.Alg = expt.AlgUBG
	}
	s.Model = strings.ToLower(s.Model)
	return s
}

// Validate rejects specs that could never run. Call on the normalized
// form.
func (s Spec) Validate() error {
	if s.K < 1 {
		return fmt.Errorf("job: k must be ≥ 1, got %d", s.K)
	}
	if !knownAlgs[s.Alg] {
		return fmt.Errorf("job: unknown algorithm %q (valid: %v)", s.Alg, expt.AllAlgorithms)
	}
	switch s.Model {
	case "", "ic", "lt":
	default:
		return fmt.Errorf("job: unknown model %q (valid: ic, lt)", s.Model)
	}
	if s.Scale <= 0 || s.Scale > 1 {
		return fmt.Errorf("job: scale %g out of (0, 1]", s.Scale)
	}
	// Zero ε or δ selects the solver default.
	if s.Eps != 0 {
		if err := core.CheckFraction("eps", s.Eps); err != nil {
			return fmt.Errorf("job: %w", err)
		}
	}
	if s.Delta != 0 {
		if err := core.CheckFraction("delta", s.Delta); err != nil {
			return fmt.Errorf("job: %w", err)
		}
	}
	return nil
}

// model maps the spec's model name to the diffusion constant.
func (s Spec) model() diffusion.Model {
	if s.Model == "lt" {
		return diffusion.LT
	}
	return diffusion.IC
}

// InstanceConfig returns the expt instance configuration the spec
// selects.
func (s Spec) InstanceConfig() expt.InstanceConfig {
	formation := expt.Louvain
	if strings.EqualFold(s.Formation, "random") {
		formation = expt.RandomFormation
	}
	return expt.InstanceConfig{
		Dataset:   s.Dataset,
		Scale:     s.Scale,
		Formation: formation,
		SizeCap:   s.SizeCap,
		Bounded:   s.Bounded,
		Seed:      s.Seed,
	}
}

// Result is a succeeded job's output — the async twin of the serve
// layer's /solve reply.
type Result struct {
	Instance     string  `json:"instance"`
	Alg          string  `json:"alg"`
	Seeds        []int32 `json:"seeds"`
	Benefit      float64 `json:"benefit"`
	TotalBenefit float64 `json:"totalBenefit"`
	ElapsedMS    int64   `json:"elapsedMs"`
}

// CheckpointInfo describes a job's latest durable checkpoint.
type CheckpointInfo struct {
	// Doublings is the stop-and-stare round the checkpoint was taken at.
	Doublings int `json:"doublings"`
	// Samples is the pool size at the checkpoint.
	Samples int `json:"samples"`
}

// Job is one queued, running, or finished solve. Store methods return
// copies — mutating a Job does not touch store state.
type Job struct {
	ID    string `json:"id"`
	Key   string `json:"key,omitempty"` // idempotency key, "" if none
	Spec  Spec   `json:"spec"`
	State State  `json:"state"`
	Error string `json:"error,omitempty"`
	// Resumes counts how many times the job went back to pending after
	// an interruption (drain or crash).
	Resumes    int             `json:"resumes,omitempty"`
	Checkpoint *CheckpointInfo `json:"checkpoint,omitempty"`

	SubmittedAt time.Time `json:"submittedAt"`
	StartedAt   time.Time `json:"startedAt,omitempty"`
	FinishedAt  time.Time `json:"finishedAt,omitempty"`
}

// clone returns a deep copy (Checkpoint is the only pointer field).
func (j *Job) clone() *Job {
	out := *j
	if j.Checkpoint != nil {
		cp := *j.Checkpoint
		out.Checkpoint = &cp
	}
	return &out
}
