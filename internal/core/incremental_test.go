package core

import (
	"fmt"
	"math/rand"
	"testing"

	"viewmap/internal/geo"
	"viewmap/internal/vp"
)

// TestStageLinkedRestoresAddedGraph is the restore half of the
// evict-then-reload invariant. Over every restore arena of the linker
// property suite, with implausible and duplicate profiles mixed into the
// stream, a builder restored through StageLinked from another's
// LowerLinks must equal the builder that Add built — profile order,
// adjacency, trusted set, epoch, edge count, candidate boxes and the
// viewmap at several sites — and must stay equal to it under further
// Adds, which run on the restored staging state.
func TestStageLinkedRestoresAddedGraph(t *testing.T) {
	if testing.Short() {
		t.Skip("restore sweep is not short")
	}
	for si, sc := range restoreScenarios() {
		t.Run(fmt.Sprintf("seed=%d/n=%d/fp=%v", si, sc.n, sc.fpHeavy), func(t *testing.T) {
			t.Parallel()
			profiles, area, rng := sc.arena(t, si)
			for i := 0; i < 2; i++ {
				profiles[rng.Intn(len(profiles))].Trusted = true
			}
			for i := 0; i < 6; i++ {
				profiles = append(profiles, teleporter(t, area, rng))
			}
			stream := append([]*vp.Profile(nil), profiles...)
			for i := 0; i < 8; i++ {
				stream = append(stream, stream[rng.Intn(len(stream))])
			}
			rng.Shuffle(len(stream), func(i, j int) { stream[i], stream[j] = stream[j], stream[i] })
			saved, later := stream[:len(stream)*2/3], stream[len(stream)*2/3:]

			cfg := IncrementalConfig{Minute: 0, DSRCRange: sc.rangeM, RequirePlausible: true}
			added := NewIncrementalBuilder(cfg)
			for _, p := range saved {
				if _, err := added.Add(p); err != nil {
					t.Fatal(err)
				}
			}
			if added.Len() == len(saved) {
				t.Fatal("every saved profile joined the graph; the stream must mix in quarantined and duplicate ones")
			}
			links := added.LowerLinks()
			restored := NewIncrementalBuilder(cfg)
			node := 0
			for _, p := range saved {
				var nbs []int
				if node < len(links) {
					nbs = links[node]
				}
				ok, err := restored.StageLinked(p, nbs)
				if err != nil {
					t.Fatal(err)
				}
				if ok {
					node++
				}
			}
			if node != len(links) {
				t.Fatalf("restore admitted %d profiles, the saved graph has %d nodes", node, len(links))
			}
			restored.CommitStaged()

			sites := []geo.Rect{
				geo.RectAround(area.Center(), 200),
				geo.RectAround(geo.Pt(area.Min.X+sc.side/4, area.Min.Y+sc.side/4), 150),
				geo.RectAround(geo.Pt(area.Max.X-sc.side/5, area.Min.Y+sc.side/3), 250),
			}
			buildersEqual(t, "restored", restored, added, sites)
			for _, p := range later {
				okR, errR := restored.Add(p)
				okA, errA := added.Add(p)
				if okR != okA || (errR == nil) != (errA == nil) {
					t.Fatalf("further Add diverges: restored (%v, %v), added (%v, %v)", okR, errR, okA, errA)
				}
			}
			buildersEqual(t, "restored then added to", restored, added, sites)
		})
	}
}

// teleporter fabricates a minute-0 profile inside area whose trajectory
// moves 1 km per second, which RequirePlausible quarantines.
func teleporter(t *testing.T, area geo.Rect, rng *rand.Rand) *vp.Profile {
	t.Helper()
	track := make([]geo.Point, 60)
	y := area.Min.Y + rng.Float64()*(area.Max.Y-area.Min.Y)
	for i := range track {
		track[i] = geo.Pt(area.Min.X+float64(i%2)*1000, y)
	}
	p, err := FabricateProfile(track, 0, 0, rng)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// buildersEqual fails unless got and want hold the same graph and the
// same candidate-enumeration state, and extract identical viewmaps at
// every site.
func buildersEqual(t *testing.T, label string, got, want *IncrementalBuilder, sites []geo.Rect) {
	t.Helper()
	if len(got.profiles) != len(want.profiles) {
		t.Fatalf("%s: %d profiles, want %d", label, len(got.profiles), len(want.profiles))
	}
	for i := range want.profiles {
		if got.profiles[i] != want.profiles[i] {
			t.Fatalf("%s: profile order diverges at node %d", label, i)
		}
	}
	adjEqual(t, label, got.adj, want.adj)
	if fmt.Sprint(got.trusted) != fmt.Sprint(want.trusted) {
		t.Fatalf("%s: trusted %v, want %v", label, got.trusted, want.trusted)
	}
	if got.Epoch() != want.Epoch() || got.NumEdges() != want.NumEdges() {
		t.Fatalf("%s: epoch %d / %d edges, want %d / %d", label, got.Epoch(), got.NumEdges(), want.Epoch(), want.NumEdges())
	}
	if fmt.Sprint(got.boxes) != fmt.Sprint(want.boxes) || fmt.Sprint(got.wboxes) != fmt.Sprint(want.wboxes) || got.gridN != want.gridN {
		t.Fatalf("%s: candidate boxes or grid coverage diverge", label)
	}
	for _, site := range sites {
		g, gerr := got.ViewmapFor(site, 0)
		w, werr := want.ViewmapFor(site, 0)
		if (gerr == nil) != (werr == nil) {
			t.Fatalf("%s: ViewmapFor errors diverge: %v vs %v", label, gerr, werr)
		}
		if werr != nil {
			continue
		}
		if g.Len() != w.Len() || g.Coverage != w.Coverage || fmt.Sprint(g.Trusted) != fmt.Sprint(w.Trusted) {
			t.Fatalf("%s: viewmap at %+v diverges", label, site)
		}
		for i := range w.Profiles {
			if g.Profiles[i] != w.Profiles[i] {
				t.Fatalf("%s: viewmap member order diverges at %d", label, i)
			}
		}
		adjEqual(t, label+" viewmap", g.Adj, w.Adj)
	}
}

// TestStageLinkedRejectsTamperedLinks feeds StageLinked saved lists no
// LowerLinks could have produced — an id at or above the new node, a
// negative id, an unsorted or repeated id — and checks each is refused
// without staging anything, after which a valid list still stages.
func TestStageLinkedRejectsTamperedLinks(t *testing.T) {
	area := geo.NewRect(geo.Pt(0, 0), geo.Pt(600, 600))
	profiles, err := SynthesizeLegitimate(SynthConfig{N: 4, Area: area, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		links []int
	}{
		{"own id", []int{0, 3}},
		{"above", []int{1, 7}},
		{"negative", []int{-1, 2}},
		{"unsorted", []int{2, 0}},
		{"repeated", []int{1, 1}},
	} {
		b := NewIncrementalBuilder(IncrementalConfig{Minute: 0})
		for _, p := range profiles[:3] {
			if ok, err := b.StageLinked(p, nil); err != nil || !ok {
				t.Fatalf("%s: valid StageLinked = (%v, %v)", tc.name, ok, err)
			}
		}
		if ok, err := b.StageLinked(profiles[3], tc.links); err == nil || ok {
			t.Fatalf("%s: StageLinked(%v) = (%v, %v), want refused", tc.name, tc.links, ok, err)
		}
		if ok, err := b.StageLinked(profiles[3], []int{0, 2}); err != nil || !ok {
			t.Fatalf("%s: valid StageLinked after a refusal = (%v, %v)", tc.name, ok, err)
		}
		if n := b.CommitStaged(); n != 4 || b.NumEdges() != 2 {
			t.Fatalf("%s: committed %d nodes with %d edges, want 4 with 2", tc.name, n, b.NumEdges())
		}
	}
}

// TestIncrementalAdmissionRules pins the ingest-side admission rules to
// Build's: wrong minutes are hard errors, duplicates and implausible
// trajectories are silently dropped.
func TestIncrementalAdmissionRules(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	b := NewIncrementalBuilder(IncrementalConfig{Minute: 3, RequirePlausible: true})

	track := make([]geo.Point, 60)
	for i := range track {
		track[i] = geo.Pt(float64(i)*10, 0)
	}
	p, err := FabricateProfile(track, 3, 0, rng)
	if err != nil {
		t.Fatal(err)
	}
	if ok, err := b.Add(p); err != nil || !ok {
		t.Fatalf("Add = (%v, %v), want accepted", ok, err)
	}
	if ok, err := b.Add(p); err != nil || ok {
		t.Fatalf("duplicate Add = (%v, %v), want dropped without error", ok, err)
	}

	wrong, err := FabricateProfile(track, 4, 0, rng)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Add(wrong); err == nil {
		t.Fatal("wrong-minute Add must error")
	}

	teleport := make([]geo.Point, 60)
	for i := range teleport {
		teleport[i] = geo.Pt(float64(i)*1000, 0) // 1000 m/s
	}
	tp, err := FabricateProfile(teleport, 3, 0, rng)
	if err != nil {
		t.Fatal(err)
	}
	if ok, err := b.Add(tp); err != nil || ok {
		t.Fatalf("implausible Add = (%v, %v), want dropped without error", ok, err)
	}
	if b.Len() != 1 {
		t.Fatalf("builder holds %d profiles, want 1", b.Len())
	}
	if b.Epoch() != 1 {
		t.Fatalf("epoch = %d, want 1 (only accepted ingests advance it)", b.Epoch())
	}
}

// TestIncrementalViewmapImmutableAfterAdd verifies that a viewmap
// extracted from the builder is unaffected by later ingests — the
// property the server's epoch-keyed cache relies on.
func TestIncrementalViewmapImmutableAfterAdd(t *testing.T) {
	area := geo.NewRect(geo.Pt(0, 0), geo.Pt(2000, 2000))
	profiles, err := SynthesizeLegitimate(SynthConfig{N: 120, Area: area, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	MarkTrustedNearest(profiles[:100], area.Center())
	b := NewIncrementalBuilder(IncrementalConfig{Minute: 0})
	if _, err := b.AddBatch(profiles[:100]); err != nil {
		t.Fatal(err)
	}
	site := geo.RectAround(area.Center(), 300)
	vm, err := b.ViewmapFor(site, 0)
	if err != nil {
		t.Fatal(err)
	}
	members, edges := vm.Len(), vm.NumEdges()
	snapshot := fmt.Sprint(vm.Adj)
	if _, err := b.AddBatch(profiles[100:]); err != nil {
		t.Fatal(err)
	}
	if vm.Len() != members || vm.NumEdges() != edges || fmt.Sprint(vm.Adj) != snapshot {
		t.Fatal("extracted viewmap mutated by later ingest")
	}
	vm2, err := b.ViewmapFor(site, 0)
	if err != nil {
		t.Fatal(err)
	}
	if vm2.Len() < vm.Len() {
		t.Fatalf("re-extracted viewmap shrank: %d -> %d", vm.Len(), vm2.Len())
	}
}
