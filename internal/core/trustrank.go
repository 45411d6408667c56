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
	// Scores are the trust scores for all viewmap nodes: VerifySite's
	// converged vector, or the vector VerifySiteFrom stopped at.
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
	// Iterations is the number of power-iteration steps executed, over
	// both starts when a warm start fell back; zero when the in-site
	// subgraph is connected.
	Iterations int
	// Warm reports whether the verdict came from a run that started
	// from the previous score vector and certified; false means the run
	// started from the seed vector d, either because no usable vector
	// was given or because the warm start could not certify.
	Warm bool
}

// VerifySiteFrom is VerifySite stopped at the verdict. Its Legitimate
// set is always VerifySite's on the same viewmap: Algorithm 1 only
// consumes the scores through the highest-scored in-site node, and the
// legitimate set it yields is that node's connected component of the
// in-site induced subgraph. A site whose in-site subgraph is one
// component is therefore verified before any power step.
//
// Otherwise one loop iterates from prev when it is usable (a warm
// start) and from the seed vector d when it is not, and stops as soon
// as the component ordering is provably settled: with L1 residual D
// between consecutive iterates, the distance to the fixed point is at
// most c*D for c = delta/(1-delta) (geometric-series tail of the
// delta-contraction), and VerifySite stops with residual below
// epsilon, i.e. within c*epsilon of the fixed point (at the default
// damping it gets there within 100 steps, far inside
// trustMaxIterations). Once the gap between the best and second-best
// component maxima exceeds c*(D+epsilon), VerifySite's in-site argmax
// provably lands in the current leader's component. A warm start that
// reaches epsilon or the iteration cap without certifying (ambiguous
// components, exact ties) restarts the loop from d with the same
// component labels. A start from d steps through exactly VerifySite's
// iterates and stops no later than it does, so when it cannot certify
// either, its vector, anchor and legitimate set are VerifySite's bit
// for bit.
//
// Scores is the vector the loop stopped at, and Anchor its
// highest-scored in-site node; after an early stop Anchor may name a
// different member of the legitimate component than VerifySite's. A nil
// prev or a prev longer than the viewmap starts from d; an empty site
// runs VerifySite.
func (vm *Viewmap) VerifySiteFrom(siteNodes []int, prev []float64, cfg TrustRankConfig) (*Verdict, VerifyStats, error) {
	if len(siteNodes) == 0 {
		v, iters, err := vm.verifySiteScored(siteNodes, cfg)
		return v, VerifyStats{Iterations: iters}, err
	}
	cfg = cfg.withDefaults()
	d, p, err := vm.trustSeed(cfg)
	if err != nil {
		return nil, VerifyStats{}, err
	}
	n := len(vm.Profiles)
	warm := prev != nil && len(prev) <= n
	if warm {
		copy(p, prev)
	}
	comp, ncomp := vm.siteComponents(siteNodes)
	iters := 0
	if ncomp > 1 {
		coef := cfg.Damping / (1 - cfg.Damping)
		compMax := make([]float64, ncomp)
		next := make([]float64, n)
		for {
			certified := false
			for k := 0; k < trustMaxIterations; k++ {
				iters++
				delta := vm.step(d, p, next, cfg.Damping)
				p, next = next, p
				certified = leadGap(p, siteNodes, comp, compMax) > coef*(delta+trustEpsilon)
				if certified || delta < trustEpsilon {
					break
				}
			}
			if certified || !warm {
				break
			}
			warm = false
			copy(p, d)
		}
	}
	// Anchor: highest-scored in-site node, ties toward the first in
	// siteNodes (strict > keeps the first maximum), as in VerifySite.
	anchor := siteNodes[0]
	for _, i := range siteNodes[1:] {
		if p[i] > p[anchor] {
			anchor = i
		}
	}
	verdict := &Verdict{Scores: p, Anchor: anchor, Legitimate: make([]int, 0, len(siteNodes))}
	for _, s := range siteNodes {
		if comp[s] == comp[anchor] {
			verdict.Legitimate = append(verdict.Legitimate, s)
		}
	}
	sort.Ints(verdict.Legitimate)
	return verdict, VerifyStats{Iterations: iters, Warm: warm}, nil
}

// siteComponents labels the connected components of the in-site
// induced subgraph: comp[i] is in [0, ncomp) for an in-site node i and
// -1 for any other. The legitimate set is always exactly one of them.
func (vm *Viewmap) siteComponents(siteNodes []int) (comp []int, ncomp int) {
	n := len(vm.Profiles)
	inSite := make([]bool, n)
	for _, i := range siteNodes {
		inSite[i] = true
	}
	comp = make([]int, n)
	for i := range comp {
		comp[i] = -1
	}
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
	return comp, ncomp
}

// leadGap returns the gap between the best and second-best component
// maxima of scores over the in-site nodes, labelled by comp into
// len(compMax) components; compMax is scratch.
func leadGap(scores []float64, siteNodes, comp []int, compMax []float64) float64 {
	for i := range compMax {
		compMax[i] = -1
	}
	for _, s := range siteNodes {
		if v := scores[s]; v > compMax[comp[s]] {
			compMax[comp[s]] = v
		}
	}
	best1, best2 := -1.0, -1.0
	for _, v := range compMax {
		if v > best1 {
			best1, best2 = v, best1
		} else if v > best2 {
			best2 = v
		}
	}
	return best1 - best2
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
