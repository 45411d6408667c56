package core

import (
	"errors"
	"fmt"
	"sort"

	"viewmap/internal/vd"
)

// DefaultDamping is the paper's empirically chosen damping factor.
const DefaultDamping = 0.8

// The power iteration stops once the L1 residual between consecutive
// iterates drops below trustEpsilon, or after trustMaxIterations steps.
const (
	trustEpsilon       = 1e-9
	trustMaxIterations = 500
)

// TrustRankConfig tunes the score iteration.
type TrustRankConfig struct {
	// Damping is the delta in P = delta*M*P + (1-delta)*d; zero selects
	// the paper's 0.8.
	Damping float64
}

func (c TrustRankConfig) withDefaults() TrustRankConfig {
	if c.Damping == 0 {
		c.Damping = DefaultDamping
	}
	return c
}

// TrustRank computes per-node trust scores by propagating trust from
// the viewmap's trusted VPs over its viewlink structure (Algorithm 1).
// The trust distribution vector d places equal mass on each trusted VP;
// a node's score flows out divided equally among its undirected edges.
func (vm *Viewmap) TrustRank(cfg TrustRankConfig) ([]float64, error) {
	scores, _, err := vm.trustRank(cfg)
	return scores, err
}

// trustRank is TrustRank plus the iteration count.
func (vm *Viewmap) trustRank(cfg TrustRankConfig) ([]float64, int, error) {
	cfg = cfg.withDefaults()
	d, p, err := vm.trustSeed(cfg)
	if err != nil {
		return nil, 0, err
	}
	scores, iters := vm.powerIterate(d, p, cfg)
	return scores, iters, nil
}

// trustSeed validates the viewmap and config and returns the trust
// distribution vector d and the cold starting vector p (a copy of d).
// cfg must already carry defaults.
func (vm *Viewmap) trustSeed(cfg TrustRankConfig) (d, p []float64, err error) {
	if cfg.Damping <= 0 || cfg.Damping >= 1 {
		return nil, nil, fmt.Errorf("core: damping must be in (0,1), got %v", cfg.Damping)
	}
	n := len(vm.Profiles)
	if n == 0 {
		return nil, nil, errors.New("core: empty viewmap")
	}
	if len(vm.Trusted) == 0 {
		return nil, nil, errors.New("core: viewmap has no trusted VP")
	}
	d = make([]float64, n)
	share := 1.0 / float64(len(vm.Trusted))
	for _, t := range vm.Trusted {
		d[t] = share
	}
	p = make([]float64, n)
	copy(p, d)
	return d, p, nil
}

// powerIterate runs the damped power iteration from starting vector p
// until the L1 residual drops below trustEpsilon or trustMaxIterations,
// returning the final vector and the iteration count. cfg must already
// carry defaults.
func (vm *Viewmap) powerIterate(d, p []float64, cfg TrustRankConfig) ([]float64, int) {
	next := make([]float64, len(p))
	iters := 0
	for iters < trustMaxIterations {
		iters++
		delta := vm.step(d, p, next, cfg.Damping)
		p, next = next, p
		if delta < trustEpsilon {
			break
		}
	}
	return p, iters
}

// step writes one damped update of p into next, walking each node's
// Adj row in order, and returns the L1 residual between the two.
func (vm *Viewmap) step(d, p, next []float64, damping float64) float64 {
	for i := range next {
		next[i] = (1 - damping) * d[i]
	}
	for u, row := range vm.Adj {
		if len(row) == 0 || p[u] == 0 {
			continue
		}
		out := damping * p[u] / float64(len(row))
		for _, v := range row {
			next[v] += out
		}
	}
	var delta float64
	for i := range next {
		diff := next[i] - p[i]
		if diff < 0 {
			diff = -diff
		}
		delta += diff
	}
	return delta
}

// Verdict is the outcome of verifying the VPs inside an investigation
// site.
type Verdict struct {
	// Legitimate lists the node ids marked LEGITIMATE by Algorithm 1.
	Legitimate []int
	// Scores are the converged trust scores for all viewmap nodes.
	Scores []float64
	// Anchor is the highest-scored in-site node that seeded the
	// legitimate set (-1 when the site was empty).
	Anchor int
}

// LegitimateIDs returns the VP identifiers of the verified profiles.
func (v *Verdict) LegitimateIDs(vm *Viewmap) []vd.VPID {
	out := make([]vd.VPID, 0, len(v.Legitimate))
	for _, i := range v.Legitimate {
		out = append(out, vm.Profiles[i].ID())
	}
	return out
}

// VerifySite runs Algorithm 1 for an investigation site, given the
// node ids whose claimed trajectories enter the site (see InSite):
// compute trust scores, mark the highest-scored in-site VP legitimate,
// then mark everything reachable from it strictly via in-site VPs.
func (vm *Viewmap) VerifySite(siteNodes []int, cfg TrustRankConfig) (*Verdict, error) {
	v, _, err := vm.verifySiteScored(siteNodes, cfg)
	return v, err
}

// verifySiteScored is VerifySite plus the power-iteration count.
func (vm *Viewmap) verifySiteScored(siteNodes []int, cfg TrustRankConfig) (*Verdict, int, error) {
	scores, iters, err := vm.trustRank(cfg)
	if err != nil {
		return nil, 0, err
	}
	verdict := &Verdict{Scores: scores, Anchor: -1}
	if len(siteNodes) == 0 {
		return verdict, iters, nil
	}
	n := len(vm.Profiles)
	inSite := make([]bool, n)
	for _, i := range siteNodes {
		inSite[i] = true
	}
	// Highest-scored VP in the site. Ties break toward the lower node
	// id for determinism.
	best := siteNodes[0]
	for _, i := range siteNodes[1:] {
		if scores[i] > scores[best] {
			best = i
		}
	}
	verdict.Anchor = best
	// BFS from the anchor restricted to in-site nodes.
	marked := make([]bool, n)
	marked[best] = true
	count := 1
	queue := []int{best}
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		for _, v := range vm.Adj[u] {
			if inSite[v] && !marked[v] {
				marked[v] = true
				count++
				queue = append(queue, v)
			}
		}
	}
	verdict.Legitimate = make([]int, 0, count)
	for i, m := range marked {
		if m {
			verdict.Legitimate = append(verdict.Legitimate, i)
		}
	}
	return verdict, iters, nil
}

// VerifyStats reports how a verification converged.
type VerifyStats struct {
	// Iterations is the number of power-iteration steps executed.
	Iterations int
	// Warm reports whether the verdict came from the certified
	// warm-start path; false means the cold VerifySite path ran (either
	// by request or because the warm run could not certify its verdict).
	Warm bool
}

// VerifySiteFrom is VerifySite warm-started from a previously converged
// score vector. The verdict is always identical to VerifySite's on the
// same viewmap: Algorithm 1 only consumes the scores through the
// highest-scored in-site node, and the legitimate set it yields is that
// node's connected component of the in-site induced subgraph. The warm
// iteration therefore stops as soon as the component ordering is
// provably settled: with L1 residual D between consecutive iterates,
// the distance to the fixed point is at most c*D for c = delta/(1-delta)
// (geometric-series tail of the delta-contraction), and the cold path
// stops with residual below epsilon, i.e. within c*epsilon of the fixed
// point. Once the gap between the best and second-best component maxima
// exceeds c*(D+epsilon), both the fixed point's and the cold vector's
// in-site argmax provably land in the warm leader's component, so the
// legitimate set — and hence the verdict — matches the cold one
// bit-for-bit. If the iteration instead reaches epsilon-convergence or
// the iteration cap without certifying (ambiguous components, exact
// ties), the warm work is discarded and the exact cold path runs.
// Anchor may name a different member of the same component than the
// cold run when scores inside it are still settling; Legitimate and
// Scores' fixed point are unaffected. A nil prev, a prev longer than
// the viewmap, or an empty site always takes the cold path.
func (vm *Viewmap) VerifySiteFrom(siteNodes []int, prev []float64, cfg TrustRankConfig) (*Verdict, VerifyStats, error) {
	c := cfg.withDefaults()
	n := len(vm.Profiles)
	if prev == nil || len(prev) > n || len(siteNodes) == 0 {
		v, iters, err := vm.verifySiteScored(siteNodes, cfg)
		return v, VerifyStats{Iterations: iters}, err
	}
	d, p, err := vm.trustSeed(c)
	if err != nil {
		return nil, VerifyStats{}, err
	}
	copy(p, prev)
	// Connected components of the in-site induced subgraph: the
	// legitimate set is always exactly one of these.
	inSite := make([]bool, n)
	for _, i := range siteNodes {
		inSite[i] = true
	}
	comp := make([]int, n)
	for i := range comp {
		comp[i] = -1
	}
	ncomp := 0
	var queue []int
	for _, s := range siteNodes {
		if comp[s] >= 0 {
			continue
		}
		comp[s] = ncomp
		queue = append(queue[:0], s)
		for head := 0; head < len(queue); head++ {
			u := queue[head]
			for _, v := range vm.Adj[u] {
				if inSite[v] && comp[v] < 0 {
					comp[v] = ncomp
					queue = append(queue, v)
				}
			}
		}
		ncomp++
	}
	coef := c.Damping / (1 - c.Damping)
	compMax := make([]float64, ncomp)
	next := make([]float64, n)
	iters := 0
	certified := false
	for iters < trustMaxIterations {
		iters++
		delta := vm.step(d, p, next, c.Damping)
		p, next = next, p
		if ncomp == 1 {
			// A single component is the verdict regardless of scores.
			certified = true
			break
		}
		best1, best2 := -1.0, -1.0
		for i := range compMax {
			compMax[i] = -1
		}
		for _, s := range siteNodes {
			if v := p[s]; v > compMax[comp[s]] {
				compMax[comp[s]] = v
			}
		}
		for _, v := range compMax {
			if v > best1 {
				best1, best2 = v, best1
			} else if v > best2 {
				best2 = v
			}
		}
		if best1-best2 > coef*(delta+trustEpsilon) {
			certified = true
			break
		}
		if delta < trustEpsilon {
			break
		}
	}
	if !certified {
		v, coldIters, err := vm.verifySiteScored(siteNodes, cfg)
		return v, VerifyStats{Iterations: iters + coldIters}, err
	}
	// Anchor: highest-scored in-site node, ties toward the lower id
	// (siteNodes ascends; strict > keeps the first maximum).
	anchor := siteNodes[0]
	for _, i := range siteNodes[1:] {
		if p[i] > p[anchor] {
			anchor = i
		}
	}
	verdict := &Verdict{Scores: p, Anchor: anchor}
	for _, s := range siteNodes {
		if comp[s] == comp[anchor] {
			verdict.Legitimate = append(verdict.Legitimate, s)
		}
	}
	sort.Ints(verdict.Legitimate)
	return verdict, VerifyStats{Iterations: iters, Warm: true}, nil
}

// SumScores returns the total trust score over the given node set,
// used by the Lemma 1/2 property checks.
func SumScores(scores []float64, nodes []int) float64 {
	var s float64
	for _, i := range nodes {
		s += scores[i]
	}
	return s
}

// Lemma1Bound returns delta^L: the maximum total trust score of VPs at
// link distance >= L from every trusted VP (Section 6.3.1, Lemma 1).
func Lemma1Bound(damping float64, l int) float64 {
	b := 1.0
	for i := 0; i < l; i++ {
		b *= damping
	}
	return b
}
