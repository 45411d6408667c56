// Package roadnet models the street network on which the ViewMap
// simulations run. It substitutes for two external dependencies of the
// paper:
//
//   - the OpenStreetMap extract of Seoul used to drive the SUMO traffic
//     traces (Section 8) — replaced by a synthetic Manhattan-style grid
//     with building blocks between streets, and
//   - the Google Directions API used by vehicles to fabricate plausible
//     guard-VP trajectories (Section 5.1.2) — replaced by shortest-path
//     routing over the same network.
//
// The substitution preserves what the evaluation actually depends on:
// a realistic road topology for mobility, buildings that block DSRC
// line of sight, and the ability to produce a driving route between two
// arbitrary points.
package roadnet

import (
	"container/heap"
	"errors"
	"fmt"
	"math"

	"viewmap/internal/geo"
)

// NodeID identifies an intersection in the network.
type NodeID int

// Node is a street intersection.
type Node struct {
	ID  NodeID
	Pos geo.Point
}

// Edge is a directed road segment between two intersections.
type Edge struct {
	From, To NodeID
	Length   float64 // metres
}

// Network is a directed road graph. Streets are bidirectional: the
// builders always insert both directions.
type Network struct {
	nodes []Node
	adj   [][]Edge // adjacency list indexed by NodeID
}

// NumNodes returns the number of intersections.
func (n *Network) NumNodes() int { return len(n.nodes) }

// NumEdges returns the number of directed edges.
func (n *Network) NumEdges() int {
	total := 0
	for _, es := range n.adj {
		total += len(es)
	}
	return total
}

// Node returns the node with the given id.
func (n *Network) Node(id NodeID) Node { return n.nodes[id] }

// Neighbors returns the outgoing edges of node id.
func (n *Network) Neighbors(id NodeID) []Edge { return n.adj[id] }

// AddNode appends a node at p and returns its id.
func (n *Network) AddNode(p geo.Point) NodeID {
	id := NodeID(len(n.nodes))
	n.nodes = append(n.nodes, Node{ID: id, Pos: p})
	n.adj = append(n.adj, nil)
	return id
}

// AddStreet inserts a bidirectional street between a and b.
func (n *Network) AddStreet(a, b NodeID) {
	l := n.nodes[a].Pos.Dist(n.nodes[b].Pos)
	n.adj[a] = append(n.adj[a], Edge{From: a, To: b, Length: l})
	n.adj[b] = append(n.adj[b], Edge{From: b, To: a, Length: l})
}

// NearestNode returns the node closest to p.
func (n *Network) NearestNode(p geo.Point) NodeID {
	best := NodeID(0)
	bestD := math.Inf(1)
	for _, nd := range n.nodes {
		if d := nd.Pos.Dist(p); d < bestD {
			bestD = d
			best = nd.ID
		}
	}
	return best
}

// ErrNoRoute is returned when no path exists between the requested
// endpoints.
var ErrNoRoute = errors.New("roadnet: no route between endpoints")

// Route is a polyline along the road network.
type Route struct {
	Points []geo.Point
	Length float64
}

// pqItem is a priority-queue entry for Dijkstra.
type pqItem struct {
	node NodeID
	dist float64
}

type pq []pqItem

func (q pq) Len() int            { return len(q) }
func (q pq) Less(i, j int) bool  { return q[i].dist < q[j].dist }
func (q pq) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *pq) Push(x interface{}) { *q = append(*q, x.(pqItem)) }
func (q *pq) Pop() interface{} {
	old := *q
	n := len(old)
	it := old[n-1]
	*q = old[:n-1]
	return it
}

// ShortestPath returns the node sequence of the shortest path from a to
// b using Dijkstra's algorithm.
func (n *Network) ShortestPath(a, b NodeID) ([]NodeID, error) {
	if int(a) >= len(n.nodes) || int(b) >= len(n.nodes) || a < 0 || b < 0 {
		return nil, fmt.Errorf("roadnet: node out of range (%d, %d)", a, b)
	}
	dist := make([]float64, len(n.nodes))
	prev := make([]NodeID, len(n.nodes))
	done := make([]bool, len(n.nodes))
	for i := range dist {
		dist[i] = math.Inf(1)
		prev[i] = -1
	}
	dist[a] = 0
	q := &pq{{node: a, dist: 0}}
	for q.Len() > 0 {
		it := heap.Pop(q).(pqItem)
		u := it.node
		if done[u] {
			continue
		}
		done[u] = true
		if u == b {
			break
		}
		for _, e := range n.adj[u] {
			if nd := dist[u] + e.Length; nd < dist[e.To] {
				dist[e.To] = nd
				prev[e.To] = u
				heap.Push(q, pqItem{node: e.To, dist: nd})
			}
		}
	}
	if math.IsInf(dist[b], 1) {
		return nil, ErrNoRoute
	}
	// Reconstruct.
	var rev []NodeID
	for v := b; v != -1; v = prev[v] {
		rev = append(rev, v)
		if v == a {
			break
		}
	}
	path := make([]NodeID, len(rev))
	for i, v := range rev {
		path[len(rev)-1-i] = v
	}
	if path[0] != a {
		return nil, ErrNoRoute
	}
	return path, nil
}

// Directions returns a driving route between two arbitrary points,
// snapping each to its nearest intersection. This is the stand-in for
// the Google Directions API that guard-VP creation uses.
func (n *Network) Directions(from, to geo.Point) (Route, error) {
	a := n.NearestNode(from)
	b := n.NearestNode(to)
	if a == b {
		return Route{Points: []geo.Point{from, to}, Length: from.Dist(to)}, nil
	}
	path, err := n.ShortestPath(a, b)
	if err != nil {
		return Route{}, err
	}
	pts := make([]geo.Point, 0, len(path)+2)
	pts = append(pts, from)
	for _, id := range path {
		pts = append(pts, n.nodes[id].Pos)
	}
	pts = append(pts, to)
	var total float64
	for i := 1; i < len(pts); i++ {
		total += pts[i-1].Dist(pts[i])
	}
	return Route{Points: pts, Length: total}, nil
}

// SamplePerSecond walks the route at the given speed (m/s) and returns
// one position per second for the requested number of seconds, starting
// at the route's first point. If the route is exhausted early, the final
// point is repeated (the vehicle "arrives and parks"). jitter, if
// non-nil, is called per sample and its return is added to the nominal
// along-route distance — the paper arranges guard-VP VDs "variably
// spaced (within the predefined margin) along the given routes" to make
// them indistinguishable from real ones.
func (r Route) SamplePerSecond(speed float64, seconds int, jitter func(i int) float64) []geo.Point {
	if seconds <= 0 || len(r.Points) == 0 {
		return nil
	}
	out := make([]geo.Point, seconds)
	for i := 0; i < seconds; i++ {
		d := speed * float64(i)
		if jitter != nil {
			d += jitter(i)
			if d < 0 {
				d = 0
			}
		}
		out[i] = r.At(d)
	}
	return out
}

// At returns the point at along-route distance d (clamped to the ends).
func (r Route) At(d float64) geo.Point {
	if len(r.Points) == 0 {
		return geo.Point{}
	}
	if d <= 0 {
		return r.Points[0]
	}
	rem := d
	for i := 1; i < len(r.Points); i++ {
		seg := geo.Seg(r.Points[i-1], r.Points[i])
		l := seg.Length()
		if rem <= l {
			if l == 0 {
				return r.Points[i]
			}
			return seg.At(rem / l)
		}
		rem -= l
	}
	return r.Points[len(r.Points)-1]
}

// GridConfig describes a synthetic Manhattan-style city.
type GridConfig struct {
	// Cols and Rows are the number of north-south and east-west streets.
	Cols, Rows int
	// Spacing is the distance between adjacent parallel streets, metres.
	Spacing float64
	// BuildingFill is the fraction (0..1) of each city block occupied by
	// a centred building footprint. 0 produces an open plain (the
	// paper's "open road" environment); values near 0.9 produce a dense
	// downtown.
	BuildingFill float64
	// Origin is the lower-left corner of the grid.
	Origin geo.Point
}

// City couples a street network with its building obstacles.
type City struct {
	Net       *Network
	Obstacles *geo.ObstacleSet
	Bounds    geo.Rect
	nodeAt    [][]NodeID // [col][row]
}

// BuildGrid constructs a synthetic city per cfg. Intersections form a
// Cols x Rows lattice joined by bidirectional streets; each interior
// block holds one rectangular building scaled by BuildingFill.
func BuildGrid(cfg GridConfig) (*City, error) {
	if cfg.Cols < 2 || cfg.Rows < 2 {
		return nil, fmt.Errorf("roadnet: grid needs at least 2x2 streets, got %dx%d", cfg.Cols, cfg.Rows)
	}
	if cfg.Spacing <= 0 {
		return nil, fmt.Errorf("roadnet: spacing must be positive, got %v", cfg.Spacing)
	}
	if cfg.BuildingFill < 0 || cfg.BuildingFill > 1 {
		return nil, fmt.Errorf("roadnet: building fill must be in [0,1], got %v", cfg.BuildingFill)
	}
	net := &Network{}
	nodeAt := make([][]NodeID, cfg.Cols)
	for c := 0; c < cfg.Cols; c++ {
		nodeAt[c] = make([]NodeID, cfg.Rows)
		for r := 0; r < cfg.Rows; r++ {
			p := geo.Pt(cfg.Origin.X+float64(c)*cfg.Spacing, cfg.Origin.Y+float64(r)*cfg.Spacing)
			nodeAt[c][r] = net.AddNode(p)
		}
	}
	for c := 0; c < cfg.Cols; c++ {
		for r := 0; r < cfg.Rows; r++ {
			if c+1 < cfg.Cols {
				net.AddStreet(nodeAt[c][r], nodeAt[c+1][r])
			}
			if r+1 < cfg.Rows {
				net.AddStreet(nodeAt[c][r], nodeAt[c][r+1])
			}
		}
	}
	obs := geo.NewObstacleSet()
	if cfg.BuildingFill > 0 {
		for c := 0; c+1 < cfg.Cols; c++ {
			for r := 0; r+1 < cfg.Rows; r++ {
				blockMin := geo.Pt(cfg.Origin.X+float64(c)*cfg.Spacing, cfg.Origin.Y+float64(r)*cfg.Spacing)
				center := blockMin.Add(geo.Pt(cfg.Spacing/2, cfg.Spacing/2))
				half := cfg.Spacing / 2 * cfg.BuildingFill
				obs.Add(geo.Building{Footprint: geo.RectAround(center, half)})
			}
		}
	}
	bounds := geo.NewRect(cfg.Origin,
		cfg.Origin.Add(geo.Pt(float64(cfg.Cols-1)*cfg.Spacing, float64(cfg.Rows-1)*cfg.Spacing)))
	return &City{Net: net, Obstacles: obs, Bounds: bounds, nodeAt: nodeAt}, nil
}

// Cols returns the number of north-south streets.
func (c *City) Cols() int { return len(c.nodeAt) }

// Rows returns the number of east-west streets.
func (c *City) Rows() int {
	if len(c.nodeAt) == 0 {
		return 0
	}
	return len(c.nodeAt[0])
}
