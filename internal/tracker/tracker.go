// Package tracker implements the location-tracking adversary of
// Section 6.2.2: the system itself (or anyone holding the VP database)
// attempting to follow one vehicle across minutes by linking VPs that
// are adjacent in space and time.
//
// The tracker starts with perfect knowledge of the target's initial VP
// (belief p(u,0) = 1). At each minute boundary it predicts the target's
// next start position from the end of each currently-believed VP and
// redistributes belief over the candidate VPs whose start positions lie
// within a deviation model of the prediction (a Gaussian over distance,
// following the path-confusion literature the paper builds on). Guard
// VPs — fabricated trajectories that begin where a neighbor began and
// end where their creator ended — enter the candidate sets and split
// the belief, which is exactly the obfuscation mechanism ViewMap
// relies on.
//
// Metrics per minute t:
//   - location entropy H_t = -sum p log2 p, the tracker's uncertainty
//     (Figs. 10 and 22a), and
//   - tracking success S_t = total belief on VPs genuinely produced by
//     the target (Figs. 11 and 22b).
package tracker

import (
	"errors"
	"fmt"
	"math"

	"viewmap/internal/geo"
	"viewmap/internal/stats"
)

// Observation is one VP as the tracker sees it: an anonymous
// minute-long trajectory. Owner is ground truth used only for scoring
// the tracker (never by it); guard VPs carry Owner = -1.
type Observation struct {
	Start, End geo.Point
	Minute     int64
	// Owner is the ground-truth vehicle id, or -1 for guard VPs.
	Owner int
}

// Config tunes the adversary.
type Config struct {
	// SigmaM is the standard deviation of the distance-deviation model
	// between predicted and observed start positions; zero selects
	// 50 m.
	SigmaM float64
	// MaxJumpM hard-limits candidate linking distance; zero selects
	// 4 sigma.
	MaxJumpM float64
}

func (c Config) withDefaults() Config {
	if c.SigmaM == 0 {
		c.SigmaM = 50
	}
	if c.MaxJumpM == 0 {
		c.MaxJumpM = 4 * c.SigmaM
	}
	return c
}

// Tracker follows one target through an observation dataset.
type Tracker struct {
	cfg Config
	// belief[i] is the probability on observation i of the current
	// minute. A dense slice, not a map: the sums below then run in
	// observation order, so equal inputs give bit-identical metrics.
	belief []float64
	target int
}

// MinuteMetrics reports the tracker's state after processing a minute.
type MinuteMetrics struct {
	Minute int64
	// Entropy is H_t in bits.
	Entropy float64
	// Success is S_t: belief mass on the target's own VPs.
	Success float64
	// Candidates is the number of VPs with non-zero belief.
	Candidates int
}

// Track runs the adversary over a dataset grouped per minute.
// byMinute[t] holds the observations of minute t (ascending minute
// order, contiguous). The target's VP in minute 0 must be present;
// tracking starts there with belief 1.
func Track(byMinute [][]Observation, target int, cfg Config) ([]MinuteMetrics, error) {
	cfg = cfg.withDefaults()
	if len(byMinute) == 0 {
		return nil, errors.New("tracker: empty dataset")
	}
	tr := &Tracker{cfg: cfg, target: target}

	// Initialize: find the target's actual VP in minute 0.
	first := byMinute[0]
	init := -1
	for i, o := range first {
		if o.Owner == target {
			init = i
			break
		}
	}
	if init == -1 {
		return nil, fmt.Errorf("tracker: target %d has no VP in minute 0", target)
	}
	tr.belief = make([]float64, len(first))
	tr.belief[init] = 1

	out := make([]MinuteMetrics, 0, len(byMinute))
	out = append(out, tr.metrics(first))
	for m := 1; m < len(byMinute); m++ {
		tr.step(byMinute[m-1], byMinute[m])
		out = append(out, tr.metrics(byMinute[m]))
	}
	return out, nil
}

// step advances belief from the previous minute's observations to the
// next minute's.
func (tr *Tracker) step(prev, next []Observation) {
	nb := make([]float64, len(next))
	weights := make([]float64, len(next))
	for pi, pb := range tr.belief {
		if pb == 0 {
			continue
		}
		pred := prev[pi].End
		// Weight candidates by the deviation model.
		var wsum float64
		for ni := range next {
			weights[ni] = 0
			d := pred.Dist(next[ni].Start)
			if d > tr.cfg.MaxJumpM {
				continue
			}
			w := math.Exp(-d * d / (2 * tr.cfg.SigmaM * tr.cfg.SigmaM))
			weights[ni] = w
			wsum += w
		}
		if wsum == 0 {
			// Lost this thread: the vehicle parked or left the area.
			// The belief mass is dropped and the vector renormalized
			// below, mirroring a tracker discarding dead hypotheses.
			continue
		}
		for ni, w := range weights {
			nb[ni] += pb * w / wsum
		}
	}
	// Renormalize (mass may have been lost to dead threads).
	var total float64
	for _, v := range nb {
		total += v
	}
	if total > 0 {
		for k := range nb {
			nb[k] /= total
		}
	}
	tr.belief = nb
}

// metrics snapshots entropy/success for the current minute.
func (tr *Tracker) metrics(obs []Observation) MinuteMetrics {
	var m MinuteMetrics
	if len(obs) > 0 {
		m.Minute = obs[0].Minute
	}
	probs := make([]float64, 0, len(tr.belief))
	for oi, p := range tr.belief {
		if p <= 0 {
			continue
		}
		probs = append(probs, p)
		m.Candidates++
		if obs[oi].Owner == tr.target {
			m.Success += p
		}
	}
	m.Entropy = stats.Entropy(probs)
	return m
}

// Dataset is a per-minute observation store with owner bookkeeping,
// a convenience for the simulators that fabricate tracking corpora.
type Dataset struct {
	byMinute [][]Observation
	vehicles int
}

// NewDataset creates a dataset covering the given number of minutes.
func NewDataset(minutes, vehicles int) (*Dataset, error) {
	if minutes <= 0 || vehicles <= 0 {
		return nil, fmt.Errorf("tracker: need positive minutes and vehicles (%d, %d)", minutes, vehicles)
	}
	return &Dataset{byMinute: make([][]Observation, minutes), vehicles: vehicles}, nil
}

// Add appends an observation to its minute (which must be in range).
func (d *Dataset) Add(o Observation) error {
	if o.Minute < 0 || int(o.Minute) >= len(d.byMinute) {
		return fmt.Errorf("tracker: minute %d outside dataset", o.Minute)
	}
	d.byMinute[o.Minute] = append(d.byMinute[o.Minute], o)
	return nil
}

// Minutes returns the grouped observations.
func (d *Dataset) Minutes() [][]Observation { return d.byMinute }

// Vehicles returns the fleet size.
func (d *Dataset) Vehicles() int { return d.vehicles }

// AverageOverTargets runs the tracker against every vehicle in the
// dataset and averages entropy and success per minute — the curves the
// paper plots.
func (d *Dataset) AverageOverTargets(cfg Config) (entropy, success []float64, err error) {
	minutes := len(d.byMinute)
	entSum := make([]float64, minutes)
	sucSum := make([]float64, minutes)
	counted := 0
	for v := 0; v < d.vehicles; v++ {
		metrics, err := Track(d.byMinute, v, cfg)
		if err != nil {
			continue // vehicle absent in minute 0
		}
		counted++
		for i, m := range metrics {
			entSum[i] += m.Entropy
			sucSum[i] += m.Success
		}
	}
	if counted == 0 {
		return nil, nil, errors.New("tracker: no trackable vehicles in dataset")
	}
	entropy = make([]float64, minutes)
	success = make([]float64, minutes)
	for i := 0; i < minutes; i++ {
		entropy[i] = entSum[i] / float64(counted)
		success[i] = sucSum[i] / float64(counted)
	}
	return entropy, success, nil
}
