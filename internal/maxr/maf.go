package maxr

import (
	"context"
	"sort"

	"imc/internal/graph"
	"imc/internal/ric"
	"imc/internal/xrand"
)

// MAF is the Most-Appearance-First solver (paper Alg. 3). It builds two
// candidate seed sets — S1 activates whole communities in descending
// order of how often they appear as sample sources, spending h_i budget
// per community; S2 takes the k nodes touching the most samples — and
// keeps whichever influences more samples. Theorem 3: S1 alone already
// guarantees the ⌊k/h⌋/r ratio.
type MAF struct {
	// Seed drives S1's random member picks (the paper picks h arbitrary
	// members per chosen community).
	Seed uint64
	// SmartMembers switches S1's member picks from the paper's random
	// choice to the h members with the highest sample-touch counts — a
	// strictly-more-informed variant kept as an ablation knob.
	SmartMembers bool
}

var _ Solver = MAF{}

// Name implements Solver.
func (MAF) Name() string { return "MAF" }

// Guarantee implements Solver: ⌊k/h⌋/r with h = max_i h_i.
func (MAF) Guarantee(pool *ric.Pool, k int) float64 {
	h := pool.Partition().MaxThreshold()
	r := pool.Partition().NumCommunities()
	if h == 0 || r == 0 {
		return 0
	}
	return float64(k/h) / float64(r)
}

// SolveCtx implements Solver. MAF's two candidate builds are cheap
// (sort-dominated), so one poll before each suffices.
//
//imc:longrun
func (m MAF) SolveCtx(ctx context.Context, pool *ric.Pool, k int) (Result, error) {
	if err := validate(pool, k); err != nil {
		return Result{}, err
	}
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}
	s1 := m.buildS1(pool, k)
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}
	s2 := m.buildS2(pool, k)
	r1 := finalize(pool, padSeeds(pool, s1, k))
	r2 := finalize(pool, padSeeds(pool, s2, k))
	if r2.Coverage > r1.Coverage {
		return r2, nil
	}
	return r1, nil
}

// buildS1 greedily activates the most frequently sampled communities,
// taking each community's full threshold h_i of members, until the
// budget cannot fit another community.
func (m MAF) buildS1(pool *ric.Pool, k int) []graph.NodeID {
	part := pool.Partition()
	order := make([]int, part.NumCommunities())
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		fa, fb := pool.CommunityFrequency(order[a]), pool.CommunityFrequency(order[b])
		if fa != fb {
			return fa > fb
		}
		return order[a] < order[b]
	})
	rng := xrand.New(m.Seed)
	seeds := make([]graph.NodeID, 0, k)
	for _, ci := range order {
		c := part.Community(ci)
		if len(seeds)+c.Threshold > k {
			continue
		}
		if m.SmartMembers {
			members := append([]graph.NodeID(nil), c.Members...)
			sort.Slice(members, func(a, b int) bool {
				ta, tb := pool.TouchCount(members[a]), pool.TouchCount(members[b])
				if ta != tb {
					return ta > tb
				}
				return members[a] < members[b]
			})
			seeds = append(seeds, members[:c.Threshold]...)
		} else {
			for _, idx := range rng.SampleK(len(c.Members), c.Threshold) {
				seeds = append(seeds, c.Members[idx])
			}
		}
		if len(seeds) == k {
			break
		}
	}
	return seeds
}

// buildS2 takes the k nodes appearing in the most samples.
func (m MAF) buildS2(pool *ric.Pool, k int) []graph.NodeID {
	cands := candidates(pool) // already sorted by touch count desc
	if len(cands) > k {
		cands = cands[:k]
	}
	return append([]graph.NodeID(nil), cands...)
}

// SolveS1Only exposes the S1 component alone (used by the ablation
// bench comparing MAF's two halves).
func (m MAF) SolveS1Only(pool *ric.Pool, k int) (Result, error) {
	if err := validate(pool, k); err != nil {
		return Result{}, err
	}
	return finalize(pool, padSeeds(pool, m.buildS1(pool, k), k)), nil
}

// SolveS2Only exposes the S2 component alone.
func (m MAF) SolveS2Only(pool *ric.Pool, k int) (Result, error) {
	if err := validate(pool, k); err != nil {
		return Result{}, err
	}
	return finalize(pool, padSeeds(pool, m.buildS2(pool, k), k)), nil
}
